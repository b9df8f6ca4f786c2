"""Dense exact linear algebra over F_p on degree-slice vectors.

Everything is canonical: a subspace is stored as its reduced row echelon
basis, so equality of subspaces is equality of matrices. Spans, sums,
kernels, preimages and membership all reduce to the kernel primitives in
``_kernels``.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from modinv import _kernels
from modinv.fp_arith import check_prime


class Subspace:
    """A subspace of F_p^n given by its reduced row echelon basis."""

    __slots__ = ("p", "ncols", "rows", "pivots")

    def __init__(self, p: int, ncols: int, rows, pivots, _canonical=False):
        if not _canonical:
            raise TypeError("use Subspace.span / zero")
        self.p = p
        self.ncols = ncols
        self.rows = rows
        self.pivots = pivots

    @classmethod
    def span(cls, p: int, ncols: int, rows: Iterable[Sequence[int]]) -> "Subspace":
        """Canonical span of the given rows; rows may be dependent or empty."""
        check_prime(p)
        mat = []
        for r in rows:
            if len(r) != ncols:
                raise ValueError(f"row of length {len(r)} in ambient dimension {ncols}")
            mat.append([x % p for x in r])
        basis, pivots = _kernels.rref(mat, p)
        return cls(p, ncols, tuple(tuple(r) for r in basis), tuple(pivots), _canonical=True)

    @classmethod
    def zero(cls, p: int, ncols: int) -> "Subspace":
        check_prime(p)
        return cls(p, ncols, (), (), _canonical=True)

    @property
    def dim(self) -> int:
        return len(self.rows)

    @property
    def is_zero(self) -> bool:
        return not self.rows

    @property
    def is_full(self) -> bool:
        return len(self.rows) == self.ncols

    def complement(self) -> list[int]:
        """Non-pivot column indices: the canonical coset representatives."""
        pivot_set = set(self.pivots)
        return [c for c in range(self.ncols) if c not in pivot_set]

    def reduce(self, v: Sequence[int]) -> list[int]:
        """Canonical representative of v modulo this subspace."""
        if len(v) != self.ncols:
            raise ValueError("vector length does not match ambient dimension")
        return _kernels.reduce_row(v, self.rows, self.pivots, self.p)

    def contains(self, v: Sequence[int]) -> bool:
        return not any(self.reduce(v))

    def contains_subspace(self, other: "Subspace") -> bool:
        self._check_compatible(other)
        return all(self.contains(r) for r in other.rows)

    def sum(self, other: "Subspace") -> "Subspace":
        self._check_compatible(other)
        return Subspace.span(self.p, self.ncols, list(self.rows) + list(other.rows))

    def _check_compatible(self, other: "Subspace"):
        if self.p != other.p:
            raise ValueError(f"prime mismatch: {self.p} vs {other.p}")
        if self.ncols != other.ncols:
            raise ValueError(f"ambient dimension mismatch: {self.ncols} vs {other.ncols}")

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return (self.p, self.ncols, self.rows) == (other.p, other.ncols, other.rows)

    def __hash__(self):
        return hash((self.p, self.ncols, self.rows))

    def __repr__(self):
        return f"Subspace(p={self.p}, ncols={self.ncols}, dim={self.dim})"


def kernel(rows: Sequence[Sequence[int]], ncols: int, p: int) -> Subspace:
    """Null space {x : M x = 0} of the matrix whose rows are given.

    rank(M) + dim(kernel) = ncols.
    """
    check_prime(p)
    for r in rows:
        if len(r) != ncols:
            raise ValueError("matrix rows must all have length ncols")
    basis, pivots = _kernels.rref(list(rows), p)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    vectors = []
    for c in free:
        v = [0] * ncols
        v[c] = 1
        for row, pc in zip(basis, pivots):
            v[pc] = (-row[c]) % p
        vectors.append(v)
    return Subspace.span(p, ncols, vectors)


def preimage(p: int, ncols: int, coords: Sequence[int], maps, modulo: Subspace) -> Subspace:
    """The vectors of F_p^ncols supported on ``coords`` whose image under
    every map lies in ``modulo``; ``maps[i][k]`` is the image under map i
    of the unit vector at ``coords[k]``. One kernel of the non-pivot columns
    of the reduced images gives the coefficients, embedded back at coords."""
    free = modulo.complement()
    rows: list[list[int]] = []
    for images in maps:
        reduced = [modulo.reduce(v) for v in images]
        rows += [[w[j] for w in reduced] for j in free]
    vectors = []
    for c in kernel(rows, len(coords), p).rows:
        v = [0] * ncols
        for k, x in zip(coords, c):
            v[k] = x
        vectors.append(v)
    return Subspace.span(p, ncols, vectors)
