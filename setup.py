"""Build script.

The compiled kernel (modinv._core_c) is optional. It is built from the
Cython source when Cython can be imported, and otherwise from the
committed generated C file. Without a C compiler the package installs
anyway and falls back to the pure Python kernels at import time.
"""

from setuptools import Extension, setup

try:
    from Cython.Build import cythonize
except ImportError:
    extensions = [Extension("modinv._core_c", ["src/modinv/_core_c.c"], optional=True)]
else:
    extensions = cythonize(
        [
            Extension(
                "modinv._core_c",
                ["src/modinv/_core_c.pyx"],
                optional=True,
            )
        ],
        compiler_directives={"language_level": "3"},
    )

setup(ext_modules=extensions)
