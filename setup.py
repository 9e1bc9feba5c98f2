from setuptools import Extension, setup

# optional: without a C compiler the build goes on and the kernel runs its
# numpy prefix sum (kernels.py), which gives the same bits
setup(ext_modules=[Extension(
    "continuum_cascade._compensated",
    ["src/continuum_cascade/_compensated.c"],
    optional=True,
)])
