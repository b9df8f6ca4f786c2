"""Kernel backend selection.

The compiled core is used when it was built; otherwise the pure Python
reference takes over. The compiled core computes in C long, where a product
of two residues overflows once p >= 2**31, so calls with such a prime go to
the pure kernels, and so do convolutions with an empty operand, which the
compiled core cannot allocate.
"""

from modinv import _core_py

try:
    from modinv import _core_c as _impl  # type: ignore[attr-defined]
except ImportError:
    _impl = _core_py

rref, reduce_row, convolve = _core_py.rref, _core_py.reduce_row, _core_py.convolve
if _impl is not _core_py:

    def rref(rows, p):
        return (_impl if p < 2**31 else _core_py).rref(rows, p)

    def reduce_row(v, basis, pivots, p):
        return (_impl if p < 2**31 else _core_py).reduce_row(v, basis, pivots, p)

    def convolve(a, b, p):
        return (_impl if p < 2**31 and a and b else _core_py).convolve(a, b, p)


def backend() -> str:
    """Name of the active kernel backend: 'c' or 'python'."""
    return _impl.BACKEND
