/* The recursion kernel's compensated prefix sum, compiled.

   prefix_sum(x, out) writes to out[:len(x)] the bits that
   kernels._prefix_sum writes: the float64 running sum s of x, the
   FastTwoSum error e = min(a, b) - (t - max(a, b)) of each addition
   t = a + b, the running sum E of those errors, and s + E at every node
   after the first.  It does the same float64 operations in the same order,
   in one pass that keeps s and E in registers where numpy makes seven.
   There is no multiplication, so no fused multiply-add can change a bit,
   and every addition is exactly rounded, so the bits are the same on every
   platform that evaluates double in double.

   Both arguments are read through the buffer protocol: x a C-contiguous
   1-d buffer of native doubles, out a writable one at least as long that
   does not overlap x.  Anything else raises and nothing is written, so a
   float32 or strided buffer is never read as doubles byte for byte. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <float.h>
#include <string.h>

#if !defined(FLT_EVAL_METHOD) || FLT_EVAL_METHOD != 0
#error "the prefix sum needs every double operation rounded to double"
#endif

static int
get_doubles(PyObject *obj, Py_buffer *view, int writable, const char *name)
{
    int flags = PyBUF_C_CONTIGUOUS | PyBUF_FORMAT | (writable ? PyBUF_WRITABLE : 0);
    if (PyObject_GetBuffer(obj, view, flags) < 0)
        return -1;
    if (view->ndim != 1 || view->itemsize != sizeof(double)
        || view->format == NULL || strcmp(view->format, "d") != 0) {
        PyErr_Format(PyExc_TypeError,
                     "prefix_sum: %s must be a 1-d buffer of native float64, got format %s, ndim %d",
                     name, view->format ? view->format : "B", view->ndim);
        PyBuffer_Release(view);
        return -1;
    }
    return 0;
}

static PyObject *
prefix_sum(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    Py_buffer xb, ob;
    if (nargs != 2) {
        PyErr_Format(PyExc_TypeError, "prefix_sum takes 2 arguments (%zd given)", nargs);
        return NULL;
    }
    if (get_doubles(args[0], &xb, 0, "x") < 0)
        return NULL;
    if (get_doubles(args[1], &ob, 1, "out") < 0) {
        PyBuffer_Release(&xb);
        return NULL;
    }
    const double *x = xb.buf;
    double *out = ob.buf;
    Py_ssize_t m = xb.shape[0];
    const char *error = NULL;
    if (ob.shape[0] < m)
        error = "prefix_sum: out is shorter than x";
    else if (m > 0 && (const char *)out < (const char *)(x + m)
             && (const char *)x < (const char *)(out + m))
        error = "prefix_sum: out overlaps x";
    if (error == NULL && m > 0) {
        Py_BEGIN_ALLOW_THREADS
        double s = x[0];
        /* -0.0 + e is e, bit for bit, so the first E is e itself, as the
           numpy accumulate of the errors gives it */
        double E = -0.0;
        out[0] = s;
        for (Py_ssize_t i = 1; i < m; i++) {
            double a = s, b = x[i];
            double t = a + b;
            double big = a > b ? a : b, small = a > b ? b : a;
            E += small - (t - big);
            s = t;
            out[i] = t + E;
        }
        Py_END_ALLOW_THREADS
    }
    PyBuffer_Release(&xb);
    PyBuffer_Release(&ob);
    if (error != NULL) {
        PyErr_SetString(PyExc_ValueError, error);
        return NULL;
    }
    Py_RETURN_NONE;
}

static PyMethodDef methods[] = {
    {"prefix_sum", (PyCFunction)(void (*)(void))prefix_sum, METH_FASTCALL,
     "prefix_sum(x, out)\n--\n\n"
     "Compensated prefix sums of x >= 0 into out[:len(x)], bit for bit those\n"
     "of kernels._prefix_sum."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_compensated",
    "The recursion kernel's compensated prefix sum in one compiled pass.", -1, methods,
};

PyMODINIT_FUNC
PyInit__compensated(void)
{
    return PyModule_Create(&module);
}
