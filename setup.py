from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext


class BuildExt(build_ext):
    """Builds the extension with floating-point contraction off.

    A fused multiply-add in the step head would change a bit wherever
    x * 0.5 rounds (_compensated.c); GCC contracts by default.  The flag
    comes after any CFLAGS, so it holds whatever they ask.
    """

    def build_extensions(self):
        if self.compiler.compiler_type == "unix":  # GCC and Clang
            for ext in self.extensions:
                ext.extra_compile_args.append("-ffp-contract=off")
        super().build_extensions()


# optional: without a C compiler the build goes on and the kernel runs its
# numpy step (kernels.py), which gives the same bits
setup(
    ext_modules=[Extension(
        "continuum_cascade._compensated",
        ["src/continuum_cascade/_compensated.c"],
        optional=True,
    )],
    cmdclass={"build_ext": BuildExt},
)
