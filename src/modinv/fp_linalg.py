"""Dense exact linear algebra over F_p on degree-slice vectors.

Everything is canonical: a subspace is stored as its reduced row echelon
basis, so equality of subspaces is equality of matrices. A reduced row is
its pivot plus its entries on the free (non-pivot) columns, and the
reduction of any vector modulo the subspace is read off those columns
alone: v[f] - sum over the pivots c with v[c] != 0 of v[c] * row_c[f]. That
reduction is ``_kernels.reduce_row``, on a batch of vectors at once. Sums
(``Subspace.sum``, ``Subspace.shift``), preimages and membership work on
that small block of free columns; only spans call ``_kernels.rref`` on
whole rows.

``kernel`` serves the tall stacks of operator images in ``preimage``, whose
kernel is often empty. It packs each row into one integer, w bits per
column with w the bit length of p + ncols * (p - 1)**2, and eliminates
on the packed rows (Kronecker substitution), reading a slot mod p only
where an entry is needed (delayed reduction). Every basis row is stored
reduced, so a row reduced against at most ncols - 1 of them keeps each
slot below 2**w. The rows are added one at a time and the kernel is zero
as soon as the rank reaches ncols; otherwise the at most ncols echelon
rows go to ``_kernels.rref``.
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
        free = self.complement()
        part = _kernels.reduce_row([v], self.rows, self.pivots, free, self.p)[0]
        return _embed(self.ncols, free, part)

    def contains(self, v: Sequence[int]) -> bool:
        return not any(self.reduce(v))

    def _free_parts(self, rows) -> list[list[int]]:
        # the reductions of the rows modulo self on the free columns only
        # (they vanish on the pivots)
        return _kernels.reduce_row(rows, self.rows, self.pivots, self.complement(), self.p)

    def sum(self, other: "Subspace") -> "Subspace":
        """The canonical span of both. Only other's reductions on the free
        columns are echelonized; the new pivots are then cleared from the
        old rows and the two bases merged by pivot."""
        self._check_compatible(other)
        free = self.complement()
        if not free or other.is_zero:
            return self
        basis, cols = _kernels.rref(self._free_parts(other.rows), self.p)
        if not basis:
            return self
        p, n = self.p, self.ncols
        new = [_embed(n, free, b) for b in basis]
        heads = [free[c] for c in cols]
        merged = list(zip(heads, new))
        for c, row in zip(self.pivots, self.rows):
            for h, w in zip(heads, new):
                x = row[h]
                if x:
                    row = [(a - x * y) % p for a, y in zip(row, w)]
            merged.append((c, row))
        merged.sort(key=lambda item: item[0])
        return Subspace(
            p, n, tuple(tuple(r) for _, r in merged), tuple(c for c, _ in merged), _canonical=True
        )

    def shift(self) -> "Subspace":
        """P_1 * self one degree up, for a slice of degree ncols - 1: the
        x-multiples v + (0,) are reduced echelon with the same pivots, and
        the y-multiples (0,) + v, echelon with the pivots one column right,
        are summed into them."""
        p, n, rows = self.p, self.ncols + 1, self.rows
        xs = Subspace(p, n, tuple(v + (0,) for v in rows), self.pivots, _canonical=True)
        ys = Subspace(p, n, tuple((0,) + v for v in rows), tuple(c + 1 for c in self.pivots), _canonical=True)
        return xs.sum(ys)

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


def _embed(n: int, cols: Sequence[int], values: Sequence[int]) -> list[int]:
    """The length-n vector with the values at cols and zero elsewhere."""
    v = [0] * n
    for c, x in zip(cols, values):
        v[c] = x
    return v


def _pack(row: Sequence[int], w: int) -> int:
    """The row as one integer: entry j in bits j*w up to (j + 1)*w."""
    v = 0
    for x in reversed(row):
        v = (v << w) | x
    return v


def kernel(rows: Sequence[Sequence[int]], ncols: int, p: int) -> Subspace:
    """Null space {x : M x = 0} of the matrix whose rows are given.

    rank(M) + dim(kernel) = ncols. The rows join an echelon basis one at a
    time, in the order given, and the kernel is zero as soon as the rank
    reaches ncols, however many rows are left.
    """
    check_prime(p)
    for r in rows:
        if len(r) != ncols:
            raise ValueError("matrix rows must all have length ncols")
    # slot bound: see the module docstring
    w = (p + ncols * (p - 1) ** 2).bit_length()
    mask = (1 << w) - 1
    shifts = range(0, ncols * w, w)
    heads: list[tuple[int, int]] = []  # (pivot slot shift, packed row), in insertion order
    echelon: list[list[int]] = []
    for r in rows:
        v = _pack([x % p for x in r], w)
        for s, b in heads:
            f = (v >> s & mask) % p
            if f:
                v += (p - f) * b
        u = [(v >> s & mask) % p for s in shifts]
        for c, x in enumerate(u):
            if x:
                break
        else:
            continue
        inv = pow(x, -1, p)
        u = [y * inv % p for y in u]
        heads.append((c * w, _pack(u, w)))
        echelon.append(u)
        if len(echelon) == ncols:
            return Subspace.zero(p, ncols)
    basis, pivots = _kernels.rref(echelon, p)
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
    of the unit vector at ``coords[k]``. One kernel of the images' reductions
    on the non-pivot columns of ``modulo`` gives the coefficients, embedded
    back at coords."""
    rows: list[list[int]] = []
    for images in maps:
        rows += map(list, zip(*modulo._free_parts(images)))
    vectors = [_embed(ncols, coords, c) for c in kernel(rows, len(coords), p).rows]
    return Subspace.span(p, ncols, vectors)
