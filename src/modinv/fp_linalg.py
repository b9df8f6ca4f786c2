"""Exact linear algebra over F_p on degree-slice vectors, in codimension form.

A subspace V of F_p^n is stored canonically by its reduced row echelon
basis, in codimension form: its pivots, its c free (non-pivot) columns and,
for each echelon row, one int that packs the row's entries on the free
columns into w-bit slots (Kronecker substitution), each slot reduced mod p.
The row itself is 1 at its pivot, zero at the other pivots and those
entries on the free columns. The (n - c) x c block of packed entries is the
quotient map F_p^n -> F_p^n / V, and its transpose spans the inverse
system of V (Macaulay, *The Algebraic Theory of Modular Systems*, 1916).
Equal subspaces have equal pivots and blocks, so equality is that of the
stored form; dense rows (``Subspace.rows``) are built only on request.

Slot width. w is the bit length of p + n * (p - 1)**2, a function of p and
n alone, so every subspace of F_p^n packs at the same width and one's
blocks are read at another's. A reduction (``_kernels.reduce_row``) adds at
most one multiple of each of the at most n rows, and clearing k new pivots
from a row adds k multiples to an entry below p; with multipliers and
entries below p either stays below p + n * (p - 1)**2 < 2**w. ``shift``
reuses blocks one column up and repacks them only where n + 1 has a larger
w than n.

The shift. Let S be a degree-d slice (n = d + 1) with S containing
P_1 * R for a slice R of degree d - 1, as every ideal slice and every
generalized level does. Then P_1 * S = x * S + y * C, where C is the rows
of S whose pivots are not pivots of R:
- x * R lies in S and has R's pivots, so C spans a complement of x * R
  in S;
- y * x * R = x * (y * R) lies in x * S.
x * S (v -> v + (0,)) keeps S's pivots and gains column n as its top free
slot, zero in every block, so its blocks are S's ints unchanged. Only the
|C| y-shifted rows (0,) + v are reduced. A subspace made by ``shift`` or
``sum`` keeps a reference to R's pivot tuple (``base``); one made by
``span`` has none and takes C = all rows.

Sums (``Subspace.sum`` and the y * C step of ``shift``) reduce the added
rows on the free columns with ``_kernels.reduce_row`` and echelonize those
reductions. The k new pivots are then cleared, in packed form, from the
old rows that are nonzero there, and their slots removed from every
block. Preimages and membership reduce with the same ``reduce_row``;
only spans call ``_kernels.rref`` on whole rows.

``kernel`` serves the tall stacks of operator images in ``preimage``,
whose kernel is often empty. It packs each row into one integer at the
same width and eliminates on the packed rows, reading a slot mod p only
where an entry is needed (delayed reduction). Every basis row is stored
reduced, so a row reduced against at most ncols - 1 of them keeps each
slot below 2**w. The rows are added one at a time and the kernel is zero
as soon as the rank reaches ncols; otherwise the at most ncols echelon
rows go to ``_kernels.rref``. ``preimage`` hands ``kernel`` its rows
lazily, one operator at a time: the images of an operator are built and
reduced only if the operators before it left a nonzero kernel. A fixed
subspace of a group is usually zero on the searched coordinates after
its first non-diagonal element, and a generalized level often before its
last operator; the maps after that are never built.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, Sequence

from modinv import _kernels
from modinv.fp_arith import check_prime


def _width(p: int, ncols: int) -> int:
    """Slot width of the packed rows of F_p^ncols: see the module docstring."""
    return (p + ncols * (p - 1) ** 2).bit_length()


class Subspace:
    """A subspace of F_p^n in codimension form: the pivots, the free columns
    and one packed int per reduced echelon row (see the module docstring)."""

    __slots__ = ("p", "ncols", "pivots", "free", "blocks", "w", "base")

    def __init__(self, p: int, ncols: int, pivots, free, blocks, base=None, _canonical=False):
        if not _canonical:
            raise TypeError("use Subspace.span / zero")
        self.p = p
        self.ncols = ncols
        self.pivots = pivots
        self.free = free
        self.blocks = blocks
        self.w = _width(p, ncols)
        self.base = base  # pivots of the R with self containing P_1 * R, if known

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
        free = _complement(ncols, pivots)
        w = _width(p, ncols)
        blocks = tuple(_pack([r[f] for f in free], w) for r in basis)
        return cls(p, ncols, tuple(pivots), free, blocks, _canonical=True)

    @classmethod
    def zero(cls, p: int, ncols: int) -> "Subspace":
        check_prime(p)
        return cls(p, ncols, (), tuple(range(ncols)), (), _canonical=True)

    @property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        """The reduced echelon basis as dense rows, built on each request."""
        n, k, w = self.ncols, len(self.free), self.w
        out = []
        for c, b in zip(self.pivots, self.blocks):
            row = [0] * n
            row[c] = 1
            for f, x in zip(self.free, _unpack(b, k, w)):
                row[f] = x
            out.append(tuple(row))
        return tuple(out)

    @property
    def dim(self) -> int:
        return len(self.pivots)

    @property
    def is_zero(self) -> bool:
        return not self.pivots

    @property
    def is_full(self) -> bool:
        return not self.free

    def complement(self) -> list[int]:
        """Non-pivot column indices: the canonical coset representatives."""
        return list(self.free)

    def reduce(self, v: Sequence[int]) -> list[int]:
        """Canonical representative of v modulo this subspace."""
        if len(v) != self.ncols:
            raise ValueError("vector length does not match ambient dimension")
        return _embed(self.ncols, self.free, self._free_parts([v])[0])

    def contains(self, v: Sequence[int]) -> bool:
        return not any(self.reduce(v))

    def _free_parts(self, rows) -> list[list[int]]:
        # the reductions of the rows modulo self on the free columns only
        # (they vanish on the pivots)
        return _kernels.reduce_row(rows, self.blocks, self.pivots, self.free, self.w, self.p)

    def sum(self, other: "Subspace") -> "Subspace":
        """The canonical span of both: other's rows are added to self (see
        ``_extend``)."""
        self._check_compatible(other)
        if not self.free or other.is_zero:
            return self
        return self._extend(other.rows)

    def shift(self) -> "Subspace":
        """P_1 * self one degree up, for a slice of degree ncols - 1, as
        x * self + y * C (see the module docstring)."""
        p, n, k = self.p, self.ncols + 1, len(self.free)
        w, blocks = _width(p, n), self.blocks
        if w != self.w:
            blocks = tuple(_pack(_unpack(b, k, self.w), w) for b in blocks)
        xs = Subspace(p, n, self.pivots, self.free + (self.ncols,), blocks, self.pivots, _canonical=True)
        below = set(self.base or ())
        ys = []
        for c, b in zip(self.pivots, self.blocks):
            if c not in below:
                v = [0] * n
                v[c + 1] = 1
                for f, x in zip(self.free, _unpack(b, k, self.w)):
                    v[f + 1] = x
                ys.append(v)
        return xs._extend(ys) if ys else xs

    def _extend(self, rows) -> "Subspace":
        # self + span(rows): echelonize the rows' reductions on the free
        # columns, clear their k pivots from the old rows and drop the k
        # slots from every block
        p, w, free = self.p, self.w, self.free
        basis, cols = _kernels.rref(self._free_parts(rows), p)
        if not basis:
            return self
        mask = (1 << w) - 1
        taken = set(cols)
        keep = [j for j in range(len(free)) if j not in taken]
        keep_shifts = [j * w for j in keep]
        col_shifts = [j * w for j in cols]
        heads = sum(mask << s for s in col_shifts)
        cuts = [((1 << s) - 1, s + w, s) for s in reversed(col_shifts)]
        negs = [_pack([-x % p for x in row], w) for row in basis]
        blocks = []
        for b in self.blocks:
            if b & heads:
                for s, neg in zip(col_shifts, negs):
                    x = b >> s & mask
                    if x:
                        b += x * neg
                blocks.append(_pack([(b >> s & mask) % p for s in keep_shifts], w))
            else:
                for low, high, s in cuts:
                    b = (b & low) | (b >> high << s)
                blocks.append(b)
        pivots = list(self.pivots)
        for j, row in zip(cols, basis):
            i = bisect_left(pivots, free[j])
            pivots.insert(i, free[j])
            blocks.insert(i, _pack([row[m] for m in keep], w))
        return Subspace(
            p, self.ncols, tuple(pivots), tuple(free[m] for m in keep), tuple(blocks), self.base,
            _canonical=True,
        )

    def _check_compatible(self, other: "Subspace"):
        if self.p != other.p:
            raise ValueError(f"prime mismatch: {self.p} vs {other.p}")
        if self.ncols != other.ncols:
            raise ValueError(f"ambient dimension mismatch: {self.ncols} vs {other.ncols}")

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return (self.p, self.ncols, self.pivots, self.blocks) == (
            other.p, other.ncols, other.pivots, other.blocks
        )

    def __hash__(self):
        return hash((self.p, self.ncols, self.pivots, self.blocks))

    def __repr__(self):
        return f"Subspace(p={self.p}, ncols={self.ncols}, dim={self.dim})"


def _complement(n: int, pivots: Sequence[int]) -> tuple[int, ...]:
    pivot_set = set(pivots)
    return tuple(c for c in range(n) if c not in pivot_set)


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


def _unpack(v: int, k: int, w: int) -> list[int]:
    """The k w-bit slots of v, lowest first."""
    mask = (1 << w) - 1
    return [v >> s & mask for s in range(0, k * w, w)]


def kernel(rows: Iterable[Sequence[int]], ncols: int, p: int) -> Subspace:
    """Null space {x : M x = 0} of the matrix whose rows are given.

    rank(M) + dim(kernel) = ncols. The rows join an echelon basis one at a
    time, in the order given, and the kernel is zero as soon as the rank
    reaches ncols: the rest of ``rows``, which may be a lazy iterable, is
    then never read.
    """
    check_prime(p)
    w = _width(p, ncols)
    mask = (1 << w) - 1
    shifts = range(0, ncols * w, w)
    heads: list[tuple[int, int]] = []  # (pivot slot shift, packed row), in insertion order
    echelon: list[list[int]] = []
    for r in rows:
        if len(r) != ncols:
            raise ValueError("matrix rows must all have length ncols")
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
    vectors = []
    for c in _complement(ncols, pivots):
        v = [0] * ncols
        v[c] = 1
        for row, pc in zip(basis, pivots):
            v[pc] = (-row[c]) % p
        vectors.append(v)
    return Subspace.span(p, ncols, vectors)


def preimage(p: int, ncols: int, coords: Sequence[int], maps, modulo: Subspace) -> Subspace:
    """The vectors of F_p^ncols supported on ``coords`` whose image under
    every map lies in ``modulo``; ``maps`` yields, per map, the list whose
    entry k is the image of the unit vector at ``coords[k]``. One kernel of
    the images' reductions on the non-pivot columns of ``modulo`` gives the
    coefficients, embedded back at coords. The maps are read one at a time,
    each reduced only when the kernel still needs its rows, so a lazy
    ``maps`` stops at the first map after which the kernel is zero."""

    def rows():
        for images in maps:
            yield from map(list, zip(*modulo._free_parts(images)))

    vectors = [_embed(ncols, coords, c) for c in kernel(rows(), len(coords), p).rows]
    return Subspace.span(p, ncols, vectors)
