"""Homogeneous ideals of F_p[x, y] as exact per-degree slices.

An ideal is represented by explicit homogeneous generators plus an
optional per-degree slice source: the invariants of a group for J_1,
which has no a-priori generator degree bound, or the search of
``demazure.generalized_ideal``. The degree-d slice is built exactly by
the recursion

    shifted(d) = x*slice(d-1) + y*slice(d-1),
    slice(d) = shifted(d) + generators of degree d
               + source(d, slice(d-1), shifted(d)),

which equals the sum over e <= d of P_{d-e} times the degree-e input and
is therefore exact at every degree. ``GradedIdeal._next_slice`` is the
only code that builds a slice from the one below. A source may read its
two subspace arguments or ignore them; it never calls back into its own
ideal. A source may rely on being called with one ideal's slices only:
an ideal made by ``with_extra_generators`` does not share its parent's
source but adds, in each degree, what that source added to the parent
(``GradedIdeal._source_part``). J_1's source needs this, because it
decides from P_1 * J_1(d-1), which is G-stable, whether to search at all
(see ``stable_chain.compute_J1``); P_1 times the slice of an extension by
a non-invariant form is not G-stable.

Slices are ``fp_linalg.Subspace``s in codimension form: pivots,
free columns and one packed int per echelon row. P_1 * slice(d-1) is
``Subspace.shift``. slice(d-1) contains P_1 * slice(d-2), so the shift is
x * slice(d-1) plus y times the rows of slice(d-1) whose pivots are not
pivots of slice(d-2); only those rows are reduced (the proof is in
``fp_linalg``). The generators and the source slice are added by the
incremental ``Subspace.sum``, which echelonizes only their reductions on
the free columns. ``with_extra_generators`` and ``with_generators`` start
a new ideal from the cached slices of one it agrees with in those
degrees.

Minimal generators are read off degree by degree by one extraction,
``degree_generators(p, d, below, cur)``: the echelon lifts of cur modulo
P_1 * below, each scaled to leading coefficient 1. It serves
``minimal_generators`` only; the generalized search looks only off
P_1 times the level below, so its generators come out of that search.

The slices are canonical (reduced echelon), so two ideals are equal iff
their slices agree through a degree in which both are generated
(``ideal_equal``): the top generator degree, or top_degree() + 1 for an
ideal with a slice source. Slices past an ideal's cache are compared as
they are built, each from the one below, and not stored.
``GradedIdeal.top_degree`` is the one place that refuses a quotient with
no zero dimension below the degree cap (``InfiniteQuotientError``); every
caller that needs a finite quotient goes through it. Membership, quotient
dimensions and the monomial basis checks (by reductions on the free
columns of a slice) also live here, together with ``invariant_slice``,
the fixed subspace of a group in P or P/I: one ``fp_linalg.preimage`` of
I_d under the rows of ``act_minus_identity``, the question
``generalized_ideal`` asks of its operators. Its diagonal elements are
one table of fixed exponent residues (``FixingSet``), built once per
group and read once per searched coordinate; the generalized search of
``demazure`` reads its diagonal reflections through the same table.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

from modinv.fp_arith import check_prime
from modinv.fp_linalg import Subspace, kernel, preimage
from modinv.grp2 import Mat2
from modinv.poly2 import Poly2, act_minus_identity, poly_from_slice, slice_vector


def default_degree_cap(p: int) -> int:
    """Scan limit for quotient-dimension searches: 4 p^2, overridable via
    the MODINV_MAX_DEGREE environment variable, which must then be a
    positive integer."""
    env = os.environ.get("MODINV_MAX_DEGREE")
    if not env:
        return 4 * p * p
    try:
        cap = int(env)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ValueError(f"MODINV_MAX_DEGREE must be a positive integer, got {env!r}")
    return cap


def degree_cap_note(p: int) -> str:
    """The degree cap in force at p and where it comes from, for messages."""
    source = "MODINV_MAX_DEGREE" if os.environ.get("MODINV_MAX_DEGREE") else "4 p^2"
    return f"degree cap {default_degree_cap(p)} at p = {p}, from {source}"


class InfiniteQuotientError(RuntimeError):
    pass


class GradedIdeal:
    """A homogeneous ideal with cached canonical degree slices. A slice
    source is called as ``slice_source(e, below, shifted)``, with below =
    slice(e-1) and shifted = P_1 * below, and returns a degree-e subspace
    to add (see the module docstring)."""

    def __init__(
        self,
        p: int,
        generators: Sequence[Poly2] = (),
        slice_source: Optional[Callable[[int, Subspace, Subspace], Subspace]] = None,
    ):
        check_prime(p)
        gens = []
        for g in generators:
            if g.p != p:
                raise ValueError("generator prime mismatch")
            if g.is_zero():
                raise ValueError("zero generator")
            if not g.is_homogeneous():
                raise ValueError(f"generator {g} is not homogeneous")
            if g.degree() < 1:
                raise ValueError("generators must have positive degree")
            gens.append(g)
        self.p = p
        self.generators = tuple(gens)
        self.slice_source = slice_source
        self._slices: list[Subspace] = [Subspace.zero(p, 1)]
        # what the slice source added in each degree of _slices (None
        # without a source), read by extensions (see with_extra_generators)
        self._parts: list[Optional[Subspace]] = [None]
        self._slice_lock = threading.Lock()  # cache extension is serialized
        self._gens_by_degree: dict[int, list[Poly2]] = {}
        for g in self.generators:
            self._gens_by_degree.setdefault(g.degree(), []).append(g)
        self._dims_cache: Optional[tuple[list[int], Optional[int]]] = None

    def with_extra_generators(self, extra: Sequence[Poly2]) -> "GradedIdeal":
        """A new ideal adding generators, sharing this ideal's cached slices
        below the lowest new generator degree, where the two ideals agree.
        Its slice source is ``_source_part``: in each degree it adds what
        this ideal's source added there, so this ideal's source is only ever
        called with this ideal's own slices."""
        source = None if self.slice_source is None else self._source_part
        out = GradedIdeal(self.p, list(self.generators) + list(extra), source)
        low = min((g.degree() for g in out.generators[len(self.generators):]), default=None)
        out._slices = self._slices[:low]
        out._parts = self._parts[:low]
        return out

    def _source_part(self, e: int, below: Subspace, shifted: Subspace) -> Subspace:
        # the slice source of an extension: what this ideal's source added in
        # degree e, whatever the extension's own slices are
        self.slice(e)
        return self._parts[e]

    def with_generators(self, generators: Sequence[Poly2], through: int) -> "GradedIdeal":
        """The ideal of these generators alone, which the caller knows to
        agree with this ideal through degree ``through``: it starts from this
        ideal's cached slices there."""
        out = GradedIdeal(self.p, generators)
        out._slices = self._slices[: through + 1]
        out._parts = [None] * len(out._slices)
        return out

    def slice(self, d: int) -> Subspace:
        """Canonical subspace of the degree-d piece of the ideal."""
        if d < 0:
            raise ValueError("negative degree")
        if len(self._slices) <= d:
            with self._slice_lock:
                while len(self._slices) <= d:
                    e = len(self._slices)
                    sub, part = self._next_slice(self._slices[e - 1], e)
                    self._slices.append(sub)
                    self._parts.append(part)
        return self._slices[d]

    def _next_slice(self, prev: Subspace, e: int) -> tuple[Subspace, Optional[Subspace]]:
        # slice(e) from prev = slice(e-1), by the recursion of the module
        # docstring, and what the slice source added
        shifted = prev.shift()
        sub, part = shifted, None
        rows = [slice_vector(g, e) for g in self._gens_by_degree.get(e, ())]
        if rows:
            sub = sub.sum(Subspace.span(self.p, e + 1, rows))
        if self.slice_source is not None:
            part = self.slice_source(e, prev, shifted)
            sub = sub.sum(part)
        if prev.is_full and not sub.is_full:
            raise AssertionError("saturation violated: full slice followed by proper slice")
        return sub, part

    def _slices_through(self, d: int):
        # slice(0), ..., slice(d): the cached ones, then the rest built from
        # the one below without being stored
        cached = self._slices[: d + 1]
        yield from cached
        prev = cached[-1]
        for e in range(len(cached), d + 1):
            prev = self._next_slice(prev, e)[0]
            yield prev

    def member(self, f: Poly2) -> bool:
        """True iff every homogeneous component of f lies in its slice."""
        if f.p != self.p:
            raise ValueError("prime mismatch")
        for d, comp in f.homogeneous_components().items():
            if not self.slice(d).contains(slice_vector(comp, d)):
                return False
        return True

    def quotient_dims(self) -> tuple[list[int], Optional[int]]:
        """Per-degree dimensions of P/I up to the first zero.

        Returns (dims, topdeg); topdeg is None when no zero dimension was
        found below the cap (the quotient is then infinite-dimensional, by
        the saturation property).
        """
        if self._dims_cache is not None:
            return self._dims_cache
        dims: list[int] = []
        for d in range(default_degree_cap(self.p) + 1):
            q = (d + 1) - self.slice(d).dim
            if q == 0:
                self._dims_cache = (dims, d - 1)
                return self._dims_cache
            dims.append(q)
        # a None topdeg depends on the cap in force, so only finite results
        # are cached
        return (dims, None)

    def top_degree(self) -> int:
        """The last degree in which P/I is nonzero. An infinite quotient,
        or one whose first zero lies above the degree cap, is refused."""
        top = self.quotient_dims()[1]
        if top is None:
            raise InfiniteQuotientError(
                f"P/I has no zero degree through the {degree_cap_note(self.p)}: "
                "the quotient is infinite-dimensional or the cap is too low"
            )
        return top

    def __repr__(self):
        gens = ", ".join(str(g) for g in self.generators) or "<slice source>"
        return f"GradedIdeal(p={self.p}, generators=[{gens}])"


def _generation_degree(ideal: GradedIdeal) -> int:
    # a degree through which the ideal is generated: its top generator
    # degree, or with a slice source top_degree() + 1, where the slice is
    # full, as is every slice above it
    if ideal.slice_source is None:
        return max((g.degree() for g in ideal.generators), default=0)
    return ideal.top_degree() + 1


def ideal_equal(a: GradedIdeal, b: GradedIdeal) -> bool:
    """True iff the canonical slices agree through a degree in which both
    ideals are generated; each then contains the other's generators."""
    if a.p != b.p:
        raise ValueError("prime mismatch")
    through = max(_generation_degree(a), _generation_degree(b))
    return all(x == y for x, y in zip(a._slices_through(through), b._slices_through(through)))


def degree_generators(p: int, d: int, below: Subspace, cur: Subspace) -> list[Poly2]:
    """The degree-d minimal generators of an ideal with slices below (degree
    d-1) and cur (degree d): the canonical (echelon) lifts of a basis of cur
    modulo P_1 * below, each scaled to leading coefficient 1."""
    if cur.is_zero:
        return []
    out: list[Poly2] = []
    w = below.shift()
    for v in cur.rows:
        red = w.reduce(v)
        if any(red):
            lead = next(x for x in red if x)
            if lead != 1:
                s = pow(lead, -1, p)
                red = [x * s % p for x in red]
            out.append(poly_from_slice(p, d, red))
            w = w.sum(Subspace.span(p, d + 1, [red]))
    return out


def minimal_generators(ideal: GradedIdeal) -> list[Poly2]:
    """Minimal homogeneous generators, by increasing degree, from
    ``degree_generators`` on the ideal's slices. The quotient must be
    finite; the scan through topdeg + 1 is then exhaustive."""
    out: list[Poly2] = []
    for d in range(1, ideal.top_degree() + 2):
        out += degree_generators(ideal.p, d, ideal.slice(d - 1), ideal.slice(d))
    return out


# -- fixed subspaces -----------------------------------------------------------


class FixingSet:
    """Group elements as the fixed-subspace search uses them: the
    non-diagonal ones (``moving``), whose action is searched, and one table
    for the diagonal ones. diag(a, b) multiplies x^i y^j by a^i b^j, which
    depends on (i, j) mod p - 1 only, so ``fixed`` holds the residue pairs
    (i mod p - 1, j mod p - 1) of the monomials every diagonal element
    fixes. Diagonal elements are given as matrices or as (a, b) pairs."""

    __slots__ = ("p", "moving", "fixed")

    def __init__(self, p: int, matrices: Sequence[Mat2], diagonals: Iterable[tuple[int, int]] = ()):
        check_prime(p)
        for g in matrices:
            if g.p != p:
                raise ValueError("prime mismatch among generators")
        self.p = p
        self.moving = tuple(g for g in matrices if not g.is_diagonal())
        pairs = {(g.a, g.d) for g in matrices if g.is_diagonal()} | set(diagonals)
        m = p - 1
        fixed = [(i, j) for i in range(m) for j in range(m)]
        for a, b in pairs:
            pa = [pow(a, i, p) for i in range(m)]
            pb = [pow(b, j, p) for j in range(m)]
            fixed = [(i, j) for i, j in fixed if pa[i] * pb[j] % p == 1]
        self.fixed = frozenset(fixed)

    def searched(self, d: int, cols: Iterable[int]) -> list[int]:
        """The columns k of cols whose monomial x^{d-k} y^k every diagonal
        element fixes: one table lookup each."""
        m, fixed = self.p - 1, self.fixed
        return [k for k in cols if ((d - k) % m, k % m) in fixed]


def invariant_slice(fixing: FixingSet, d: int, modulo: Optional[Subspace] = None) -> Subspace:
    """The subspace of the degree-d slice (of P, or of P/modulo for a
    degree-d slice ``modulo``) fixed by the elements of ``fixing``, with
    quotient vectors lifted to canonical coset representatives.

    Only the non-pivot coordinates of ``modulo`` whose monomial every
    diagonal element fixes are searched (``FixingSet.searched``); a
    diagonal element scales each unit vector, and reduction leaves the unit
    vectors of non-pivot coordinates alone, so this filter is exact. The
    rest is one ``preimage`` of ``modulo`` under (action - 1) of the
    non-diagonal elements, whose ``act_minus_identity`` rows are built for
    the searched coordinates only and one element at a time, as the
    preimage asks for them.
    """
    p, n = fixing.p, d + 1
    sl = Subspace.zero(p, n) if modulo is None else modulo
    if sl.p != p or sl.ncols != n:
        raise ValueError(f"modulo must be a degree-{d} slice over F_{p}")
    coords = fixing.searched(d, sl.free)
    if not coords:
        return Subspace.zero(p, n)
    maps = (act_minus_identity(p, g.entries, d, coords) for g in fixing.moving)
    return preimage(p, n, coords, maps, sl)


# -- monomial families and basis checks ------------------------------------------


@dataclass(frozen=True)
class MonomialFamily:
    """An explicit set of monomials expected to descend to a vector space
    basis of a quotient P/I."""

    name: str
    p: int
    monomials: tuple[tuple[int, int], ...]
    expected_total: int

    def by_degree(self) -> dict[int, list[tuple[int, int]]]:
        out: dict[int, list[tuple[int, int]]] = {}
        for (i, j) in self.monomials:
            out.setdefault(i + j, []).append((i, j))
        return out


def omega_family(p: int, r: int) -> MonomialFamily:
    """Two blocks of monomials: divisors of x^{rp-1} y^{p^2-p+r-1}, plus
    x^i y^j for rp <= i <= p^2-p-1, j < r. Size r p (p^2 - 1)."""
    check_prime(p)
    if (p - 1) % r != 0:
        raise ValueError(f"r={r} must divide p-1")
    mono = [(i, j) for i in range(r * p) for j in range(p * p - p + r)]
    mono += [(i, j) for i in range(r * p, p * p - p) for j in range(r)]
    fam = MonomialFamily(f"Omega({r})", p, tuple(sorted(mono)), r * p * (p * p - 1))
    if len(fam.monomials) != fam.expected_total:
        raise AssertionError("Omega family has the wrong size")
    return fam


def gamma_family(p: int, r: int, s: int) -> MonomialFamily:
    """All x^i y^j with i < r and j < ps. Size r s p."""
    check_prime(p)
    if (p - 1) % r != 0 or (p - 1) % s != 0:
        raise ValueError("r and s must divide p-1")
    mono = [(i, j) for i in range(r) for j in range(p * s)]
    return MonomialFamily(f"Gamma({r},{s})", p, tuple(sorted(mono)), r * s * p)


def theta_family(p: int) -> MonomialFamily:
    """The basis of the quotient of the rank-one coinvariant algebra by its
    positive-degree invariants: x^i y^j with i < p, j < 2p-1 and
    i + j != 3p-3, together with x^i for p <= i <= 2p-3."""
    check_prime(p)
    mono = [
        (i, j)
        for i in range(p)
        for j in range(2 * p - 1)
        if i + j != 3 * p - 3
    ]
    mono += [(i, 0) for i in range(p, 2 * p - 2)]
    return MonomialFamily("Theta", p, tuple(sorted(mono)), len(mono))


def basis_check(family: MonomialFamily, ideal: GradedIdeal):
    """Verify that the family descends to a vector space basis of P/I:
    per-degree counts match the quotient dimensions, the images are
    independent modulo the ideal slices, and the total count matches the
    expected group order (or family size). Once the counts match there is
    one member of degree d per free column of I_d, and the members are
    independent modulo I_d iff that square block of their reductions has a
    zero kernel. A member x^{d-j} y^j with j a free column reduces to its
    own unit vector, so when the members' y-exponents are exactly the free
    columns the block is the identity and no kernel is computed."""
    from modinv.report import Check, timed_report

    p = family.p
    if p != ideal.p:
        raise ValueError("prime mismatch")
    with timed_report(p, f"basis_check:{family.name}") as rep:
        top = ideal.top_degree()
        dims = ideal.quotient_dims()[0]
        # top_degree refuses an infinite quotient, so this check passes
        rep.add(Check.boolean("finite_quotient", True))
        rep.add(
            Check.equality("total_count_vs_quotient_dimension", sum(dims), len(family.monomials))
        )
        rep.add(Check.equality("total_count_vs_expected", family.expected_total, len(family.monomials)))
        by_deg = family.by_degree()
        rep.add(Check.boolean("degrees_within_top_degree", max(by_deg) <= top))
        counts_ok = True
        independent_ok = True
        for d in range(top + 1):
            members = by_deg.get(d, [])
            if len(members) != dims[d]:
                counts_ok = False
                break
            sl = ideal.slice(d)
            if sorted(j for _, j in members) == list(sl.free):
                continue
            units = [[int(k == j) for k in range(d + 1)] for (_, j) in members]
            if not kernel(sl._free_parts(units), sl.ncols - sl.dim, p).is_zero:
                independent_ok = False
                break
        rep.add(Check.boolean("per_degree_counts_match", counts_ok))
        rep.add(Check.boolean("images_independent_mod_ideal", independent_ok))
    return rep


def complete_intersection_dims(e1: int, e2: int) -> list[int]:
    """Coefficients of (1 - t^{e1})(1 - t^{e2}) / (1 - t)^2: the quotient
    dimensions of an ideal generated by a regular sequence of degrees
    (e1, e2)."""
    out = [0] * (e1 + e2 - 1)
    for i in range(e1):
        for j in range(e2):
            out[i + j] += 1
    return out
