"""Matrices in GL_2(F_p), reflection detection, subgroup closure, the
catalog of reflection groups, and classification up to conjugacy.

The catalog: for r | p-1, L(r) is the group of matrices whose r-th power
has determinant 1, generated by the two transvections and a diagonal
reflection; for r, s | p-1, U(r, s) is the group of upper triangular
matrices [[alpha, lam], [0, beta]] with alpha^r = beta^s = 1, generated by
the transvection fixing x plus two diagonal reflections. Every reflection
group of order divisible by p is conjugate to exactly one catalog group.

A group is its generators and its order; conjugation and equality read
only these. Its element codes, [[a, b], [c, d]] as ((a*p + b)*p + c)*p + d
(integer order is entry order), are a cache of the one closure, built on
first read. That closure adjoins one code at a time by Dimino's coset
algorithm (G. Butler, LNCS 559, 1991, ch. 6), skipping members and
stopping at a known order, and so serves the test that a group is
generated by its reflections too: only coset representatives are tested
for membership. Mat2 objects are built only at the API edge.

Classification is constructive, by Dickson's theorem (L. E. Dickson,
Linear Groups, 1901). A subgroup of order divisible by p contains
transvections; read the lines they fix (column vectors), from the
generators first. Transvections fixing two distinct lines generate
SL_2(F_p), so a group with two lines has order divisible by
|SL_2(F_p)| = p(p^2 - 1), and a group with one line lies in that line's
stabilizer, of order p(p - 1)^2, which p(p^2 - 1) never divides: the
order alone says how many lines to look for. A group containing SL_2(F_p)
is det^-1(D) for the subgroup D of F_p^* of order |G| / p(p^2 - 1), so it
is L(r) itself with r = |D|, normal in GL_2(F_p), and generated by its
reflections (the transvections and the diagonal diag(z, 1), z in D): its
order decides it, with no reflection scan. With exactly one line,
any matrix whose first column spans the line moves the group onto the
upper triangular form of U(r, s). The witness is the lexicographically
first conjugator in entry order, as a search of all of GL_2(F_p) would
find it: (0,1;1,0) for L(r), (1,0;v,1) for the line of (1, v) and
(0,1;1,0) for the line of (0, 1). A U witness t is checked on the
generators: t^-1 m t lies in the catalog group for every generator m, so
t^-1 G t lies in it, and the orders are equal.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

from modinv.fp_arith import check_prime, divisors, primitive_root
from modinv.poly2 import LinearForm

_setattr = object.__setattr__


class Mat2:
    """An invertible 2x2 matrix over F_p, row-major entries (a, b, c, d)."""

    __slots__ = ("p", "a", "b", "c", "d")

    def __init__(self, p: int, a: int, b: int, c: int, d: int):
        check_prime(p)
        a, b, c, d = a % p, b % p, c % p, d % p
        if (a * d - b * c) % p == 0:
            raise ValueError(f"singular matrix [[{a},{b}],[{c},{d}]] mod {p}")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)

    @classmethod
    def _trusted(cls, p: int, a: int, b: int, c: int, d: int) -> "Mat2":
        # entries already reduced mod a checked prime, determinant nonzero:
        # products, inverses and decoded group elements skip both checks
        m = object.__new__(cls)
        _setattr(m, "p", p)
        _setattr(m, "a", a)
        _setattr(m, "b", b)
        _setattr(m, "c", c)
        _setattr(m, "d", d)
        return m

    def __setattr__(self, name, value):
        raise AttributeError("Mat2 is immutable")

    @property
    def entries(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)

    @classmethod
    def identity(cls, p: int) -> "Mat2":
        return cls(p, 1, 0, 0, 1)

    def det(self) -> int:
        return (self.a * self.d - self.b * self.c) % self.p

    def __mul__(self, other: "Mat2") -> "Mat2":
        if self.p != other.p:
            raise ValueError("prime mismatch")
        p = self.p
        return Mat2._trusted(
            p,
            (self.a * other.a + self.b * other.c) % p,
            (self.a * other.b + self.b * other.d) % p,
            (self.c * other.a + self.d * other.c) % p,
            (self.c * other.b + self.d * other.d) % p,
        )

    def inv(self) -> "Mat2":
        p = self.p
        di = pow(self.det(), -1, p)
        return Mat2._trusted(p, self.d * di % p, -self.b * di % p, -self.c * di % p, self.a * di % p)

    def is_diagonal(self) -> bool:
        return self.b == 0 and self.c == 0

    def __eq__(self, other):
        if not isinstance(other, Mat2):
            return NotImplemented
        return self.p == other.p and self.entries == other.entries

    def __hash__(self):
        return hash((self.p, self.entries))

    def __repr__(self):
        return f"Mat2({self.p}, {self.a}, {self.b}, {self.c}, {self.d})"

    def __str__(self):
        return f"{self.a},{self.b};{self.c},{self.d}"


def omega(p: int) -> Mat2:
    """The transvection [[1,0],[1,1]]: x -> x + y, y -> y."""
    return Mat2(p, 1, 0, 1, 1)


def omega_prime(p: int) -> Mat2:
    """The transvection [[1,1],[0,1]]: x -> x, y -> x + y."""
    return Mat2(p, 1, 1, 0, 1)


def diag(p: int, a: int, b: int) -> Mat2:
    return Mat2(p, a, 0, 0, b)


def is_reflection(m: Mat2) -> bool:
    """True iff m - 1 has rank exactly 1."""
    return _is_reflection_entries(m.p, *m.entries)


class Reflection:
    """A reflection together with the normalized linear form spanning the
    image of (matrix - 1); the form is the denominator of the associated
    difference operator."""

    __slots__ = ("matrix", "vsigma")

    def __init__(self, matrix: Mat2):
        if not is_reflection(matrix):
            raise ValueError(f"{matrix} is not a reflection")
        p = matrix.p
        col0 = ((matrix.a - 1) % p, matrix.c)
        col1 = (matrix.b, (matrix.d - 1) % p)
        col = col0 if any(col0) else col1
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "vsigma", LinearForm(p, col[0], col[1]))

    def __setattr__(self, name, value):
        raise AttributeError("Reflection is immutable")

    @property
    def p(self) -> int:
        return self.matrix.p

    def __eq__(self, other):
        if not isinstance(other, Reflection):
            return NotImplemented
        return self.matrix == other.matrix

    def __hash__(self):
        return hash(("Reflection", self.matrix))

    def __repr__(self):
        return f"Reflection({self.matrix!r})"


class CapExceededError(RuntimeError):
    pass


def gl2_order(p: int) -> int:
    return (p * p - 1) * (p * p - p)


def _entries(p: int, code: int) -> tuple[int, int, int, int]:
    hi, lo = divmod(code, p * p)
    return divmod(hi, p) + divmod(lo, p)


def _code(m: Mat2) -> int:
    p = m.p
    return ((m.a * p + m.b) * p + m.c) * p + m.d


def _is_reflection_entries(p: int, a: int, b: int, c: int, d: int) -> bool:
    # m - 1 has rank 1: m is not the identity and det(m - 1) = 1 - tr + det = 0
    return (a, b, c, d) != (1, 0, 0, 1) and (1 - a - d + a * d - b * c) % p == 0


def _adjoin(p: int, elems: list, seen: set, maps: list, g: int) -> None:
    """One step of Dimino's coset closure (G. Butler, Fundamental
    Algorithms for Permutation Groups, LNCS 559, 1991, ch. 6). ``elems``
    lists and ``seen`` holds a subgroup H closed under the right
    multiplications ``maps``, ``elems[0]`` the identity. The step adds the
    map of the code g and grows H to <H, g> by right cosets, blocks of |H|
    entries each led by its representative r, scanned from the identity
    on: when r s is new for a map s, the block of r mapped by s is the new
    coset H r s. Cosets are disjoint, so only representatives are tested."""
    pp, (a, b, c, d) = p * p, _entries(p, g)
    # entry x*p + y is the row code of (x, y) g, so m g has the code
    # rows[m // p^2] * p^2 + rows[m % p^2]
    maps.append([(x * a + y * c) % p * p + (x * b + y * d) % p for x in range(p) for y in range(p)])
    n, start = len(elems), 0
    while start < len(elems):
        hi, lo = divmod(elems[start], pp)
        for rows in maps:
            if rows[hi] * pp + rows[lo] not in seen:
                block = [rows[m // pp] * pp + rows[m % pp] for m in elems[start : start + n]]
                elems += block
                seen.update(block)
        start += n


def _closure(p: int, codes, order: Optional[int] = None) -> set[int]:
    """The subgroup generated by ``codes``: one ``_adjoin`` per code not yet
    in it, until it has ``order`` elements (the rest is never read)."""
    elems = [p * p * p + 1]  # the identity
    seen, maps = set(elems), []
    for code in codes:
        if len(elems) == order:
            break
        if code not in seen:
            _adjoin(p, elems, seen, maps, code)
    return seen


class _Elements:
    """A group's elements as a read-only set of Mat2. Size is the order and
    equality between views is group equality; only iteration, in entry
    order, reads the codes."""

    __slots__ = ("group",)

    def __init__(self, group: "MatrixGroup"):
        self.group = group

    def __len__(self) -> int:
        return self.group.order

    def __iter__(self):
        p = self.group.p
        return (Mat2._trusted(p, *_entries(p, c)) for c in sorted(self.group.codes))

    def __eq__(self, other):
        if isinstance(other, _Elements):
            return self.group == other.group
        return frozenset(self) == other


class MatrixGroup:
    """A finite subgroup of GL_2(F_p), given by ``generators`` that
    generate it and its ``order``. ``codes`` caches the closure of the
    generators (``generate_closure`` passes it, the first read of a
    conjugate builds it); ``elements`` views it as Mat2 objects. Equality
    reads the generators and the order.
    """

    __slots__ = ("p", "generators", "order", "_codes")

    def __init__(
        self, p: int, generators: tuple[Mat2, ...], order: int, codes: Optional[frozenset[int]] = None
    ):
        if order < 1 or gl2_order(p) % order != 0:
            raise ValueError(f"order {order} does not divide |GL_2(F_p)|")
        if codes is not None and len(codes) != order:
            raise ValueError(f"{len(codes)} element codes for a group of order {order}")
        _setattr(self, "p", p)
        _setattr(self, "generators", generators)
        _setattr(self, "order", order)
        _setattr(self, "_codes", codes)

    def __setattr__(self, name, value):
        raise AttributeError("MatrixGroup is immutable")

    @property
    def codes(self) -> frozenset[int]:
        codes = self._codes
        if codes is None:
            # racing readers each store an equal set in one attribute
            # write, so a duplicate build is harmless and needs no lock
            codes = frozenset(_closure(self.p, map(_code, self.generators), self.order))
            _setattr(self, "_codes", codes)
        return codes

    @property
    def elements(self) -> "_Elements":
        return _Elements(self)

    def conjugate(self, g: Mat2) -> "MatrixGroup":
        """The group g^{-1} G g; its codes are built only if read."""
        gi = g.inv()
        return MatrixGroup(self.p, tuple(gi * m * g for m in self.generators), self.order)

    def __eq__(self, other):
        # a subgroup of equal order is the whole group: one side's
        # generators are members of the side whose codes are built
        if not isinstance(other, MatrixGroup):
            return NotImplemented
        if self.p != other.p or self.order != other.order:
            return False
        built, given = (other, self) if self._codes is None else (self, other)
        codes = built.codes
        return all(_code(m) in codes for m in given.generators)

    def __hash__(self):
        return hash((self.p, self.order))

    def __repr__(self):
        return f"MatrixGroup(p={self.p}, order={self.order})"


def generate_closure(gens: Sequence[Mat2]) -> MatrixGroup:
    """The group generated by ``gens``: the trivial group, then one coset
    closure step (``_adjoin``) per generator not yet in it. It stays
    inside GL_2(F_p), so it ends with at most |GL_2(F_p)| elements."""
    if not gens:
        raise ValueError("need at least one generator (the identity gives the trivial group)")
    p = gens[0].p
    for g in gens:
        if g.p != p:
            raise ValueError("prime mismatch among generators")
    codes = frozenset(_closure(p, map(_code, gens)))
    return MatrixGroup(p, tuple(gens), len(codes), codes)


# -- catalog ------------------------------------------------------------------


def catalog_generators(kind: str, p: int, r: int, s: Optional[int] = None) -> list[Reflection]:
    """Reflection generator list for a catalog group.

    kind "L": the transvections plus diag(zeta^{(p-1)/r}, 1), for a positive
    divisor r of p-1. kind "U": the transvection fixing x plus
    diag(zeta^{(p-1)/r}, 1) and diag(1, zeta^{(p-1)/s}), for positive
    divisors r, s of p-1. Diagonals equal to the identity are dropped. Any
    other r or s is refused with a ValueError that names it.
    """
    check_prime(p)
    if r < 1 or (p - 1) % r:
        raise ValueError(f"r={r} is not a positive divisor of p-1={p - 1}")
    z = primitive_root(p)
    if kind == "L":
        mats = [omega(p), omega_prime(p), diag(p, pow(z, (p - 1) // r, p), 1)]
    elif kind == "U":
        if s is None or s < 1 or (p - 1) % s:
            raise ValueError(f"s={s} is not a positive divisor of p-1={p - 1}")
        mats = [omega_prime(p), diag(p, pow(z, (p - 1) // r, p), 1), diag(p, 1, pow(z, (p - 1) // s, p))]
    else:
        raise ValueError(f"unknown catalog kind {kind!r}")
    ident = Mat2.identity(p)
    return [Reflection(m) for m in mats if m != ident]


@lru_cache(maxsize=None)
def catalog_group(kind: str, p: int, r: int, s: Optional[int] = None) -> MatrixGroup:
    """Closure of the catalog generators, cached per (kind, p, r, s)."""
    gens = [refl.matrix for refl in catalog_generators(kind, p, r, s)]
    group = generate_closure(gens)
    expected = r * p * (p * p - 1) if kind == "L" else r * (s or 1) * p
    if group.order != expected:
        raise AssertionError(f"catalog {kind}({r},{s}) at p={p}: order {group.order} != {expected}")
    return group


# -- classification ------------------------------------------------------------


@dataclass(frozen=True)
class GroupClass:
    """Classification outcome: which catalog group (if any) the input is
    conjugate to, with the conjugating witness."""

    kind: str  # "L" | "U" | "prime_to_p" | "other_modular"
    r: Optional[int] = None
    s: Optional[int] = None
    conjugator: Optional[Mat2] = None

    def __str__(self):
        if self.kind == "L":
            return f"L({self.r})"
        if self.kind == "U":
            return f"U({self.r},{self.s})"
        return self.kind.replace("_", "-")


@lru_cache(maxsize=None)
def all_invertible(p: int) -> tuple[Mat2, ...]:
    quads = itertools.product(range(p), repeat=4)
    return tuple(Mat2(p, *e) for e in quads if (e[0] * e[3] - e[1] * e[2]) % p)


def _transvection_lines(g: MatrixGroup) -> list[tuple[int, int]]:
    """The lines fixed by the group's transvections, each as its spanning
    column vector (1, v) or (0, 1), read from the generators and then from
    the codes. There are none when p does not divide |G|; the scan stops
    at one line when p(p^2 - 1) does not divide |G| and at two otherwise
    (see the module docstring)."""
    p = g.p
    if g.order % p:
        return []
    want = 1 if g.order % (p * (p * p - 1)) else 2
    lines: list[tuple[int, int]] = []

    def quads():  # the codes only if the generators show too few lines
        yield from (m.entries for m in g.generators)
        yield from (_entries(p, c) for c in g.codes)

    for a, b, c, d in quads():
        # a transvection is not the identity and has trace 2 and determinant 1;
        # then b = 0 forces a = 1, and m - 1 = (0,0;c,0) fixes (0, 1)
        if (a, b, c, d) == (1, 0, 0, 1) or (a + d - 2) % p or (a * d - b * c - 1) % p:
            continue
        line = (1, (1 - a) * pow(b, -1, p) % p) if b else (0, 1)
        if line not in lines:
            lines.append(line)
            if len(lines) == want:
                break
    return lines


def _line_matrix(p: int, line: tuple[int, int]) -> Mat2:
    """The first invertible matrix in entry order whose first column spans
    the line: (1,0;v,1) for the line of (1, v), (0,1;1,0) for that of (0, 1)."""
    x, v = line
    return Mat2(p, 1, 0, v, 1) if x else Mat2(p, 0, 1, 1, 0)


def find_conjugator(g: MatrixGroup, target: MatrixGroup) -> Optional[Mat2]:
    """A matrix t with t^{-1} g t == target (elementwise), or None.

    For a catalog target t is the first such matrix in ``all_invertible``
    order. The construction reads the lines fixed by the transvections
    (see the module docstring), so groups of order prime to p, which have
    none, give None.
    """
    if g.p != target.p or g.order != target.order:
        return None
    p = g.p
    lines, target_lines = _transvection_lines(g), _transvection_lines(target)
    if not lines or len(lines) != len(target_lines):
        return None
    if len(lines) > 1:
        # both contain SL_2(F_p) and have the same order, so both are
        # det^-1(D) for the same D: every t works, and (0,1;1,0) is the
        # first invertible one
        return Mat2(p, 0, 1, 1, 0)
    (u,), ((x, v),) = lines, target_lines
    # the inverse of the line matrix of (1, v) is that of (1, -v), the swap
    # is its own; for a catalog target, line (1, 0), it is the identity
    t = _line_matrix(p, u) * _line_matrix(p, (x, -v % p))
    # the generators generate g, so their conjugates generate t^-1 g t
    return t if g.conjugate(t) == target else None


def _reflections_generate(g: MatrixGroup) -> bool:
    # generators that are all reflections settle it, since they generate
    # g; otherwise close g's reflections, which stops once the subgroup
    # fills g (it lies in g, so reaching |g| elements is equality)
    if all(is_reflection(m) for m in g.generators):
        return True
    p = g.p
    reflections = (c for c in g.codes if _is_reflection_entries(p, *_entries(p, c)))
    return len(_closure(p, reflections, g.order)) == g.order


def classify(g: MatrixGroup) -> GroupClass:
    """Classify a closed subgroup of GL_2(F_p) against the catalog.

    Groups of order prime to p are tagged prime_to_p; groups of order
    divisible by p that are not generated by their reflections are tagged
    other_modular; every other group is conjugate to exactly one catalog
    group and the conjugating witness is returned. A group whose order
    p(p^2 - 1) divides contains SL_2(F_p) and is L(|G| / p(p^2 - 1)) itself
    (see the module docstring), so only the other groups pay for the
    reflection test; a group with one transvection line is matched against
    the U(r, s) of its order.
    """
    p = g.p
    if g.order % p != 0:
        return GroupClass("prime_to_p")
    if g.order % (p * (p * p - 1)) == 0:
        return GroupClass("L", r=g.order // (p * (p * p - 1)), conjugator=Mat2(p, 0, 1, 1, 0))
    if not _reflections_generate(g):
        return GroupClass("other_modular")
    for r in divisors(p - 1):
        for s in divisors(p - 1):
            if g.order == r * s * p:
                t = find_conjugator(g, catalog_group("U", p, r, s))
                if t is not None:
                    return GroupClass("U", r=r, s=s, conjugator=t)
    return GroupClass("other_modular")


def all_reflections(p: int) -> list[Mat2]:
    """Every reflection in GL_2(F_p), in entry order: 1 + u w for a column
    u = (1, v) or (0, 1) and a row w != 0, with det = 1 + w u nonzero."""
    check_prime(p)
    quads = []
    for x, y in [(1, v) for v in range(p)] + [(0, 1)]:
        for e, f in itertools.product(range(p), repeat=2):
            if (e or f) and (1 + x * e + y * f) % p:
                quads.append(((1 + x * e) % p, x * f, y * e % p, (1 + y * f) % p))
    return [Mat2._trusted(p, *q) for q in sorted(quads)]


# -- matrix text grammar --------------------------------------------------------


def parse_matrix(text: str, p: int) -> Mat2:
    """Parse 'a,b;c,d' (row-major, integers reduced mod p, negatives allowed)."""
    rows = [chunk for chunk in text.strip().split(";") if chunk.strip()]
    if len(rows) != 2:
        raise ValueError(f"matrix text needs two rows: {text!r}")
    entries = []
    for row in rows:
        cells = [c for c in row.split(",") if c.strip()]
        if len(cells) != 2:
            raise ValueError(f"matrix row needs two entries: {row!r}")
        entries.extend(int(c) for c in cells)
    return Mat2(p, *entries)


def parse_matrix_list(text: str, p: int) -> list[Mat2]:
    """Parse whitespace- or semicolon-separated matrices in the grammar above."""
    rows = [chunk for chunk in re.split(r"[;\s]+", text.strip()) if chunk]
    if len(rows) % 2 != 0:
        raise ValueError(f"odd number of matrix rows in {text!r}")
    return [parse_matrix(rows[k] + ";" + rows[k + 1], p) for k in range(0, len(rows), 2)]
