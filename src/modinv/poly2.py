"""Sparse bivariate polynomials over F_p.

The ring F_p[x, y] with the GL_2(F_p) substitution action, exact division
by linear forms, the named polynomials of the engine (delta, the two
Dickson generators, the gamma family, the rho powers), degree-slice vector
codecs, lex normal forms modulo a principal ideal, and the six-identity
verifier.

Action convention: a matrix A = [[a, b], [c, d]] substitutes the row
vector (x, y) by (x, y) A, so x -> a x + c y and y -> b x + d y. Under
this convention the transvection [[1, 0], [1, 1]] sends x to x + y and
fixes y, and act(A, act(B, f)) == act(A B, f). The action on the degree-d
slice is one matrix, ``act_matrix``, whose row k is the image
(a x + c y)^{d-k} (b x + d y)^k of x^{d-k} y^k. Rows are built on demand
from cached powers of the image forms a x + c y and b x + d y (one power,
padded with zeros, when the matrix fixes x or y; one convolve of two
otherwise), and callers ask only for the rows they use; ``act`` asks for
one row per term.
``act_minus_identity`` gives the rows of A - 1 in the same way.
The power tables hold O(D^2) entries per form through degree D, where a
cache of whole matrices would hold O(D^3) per matrix.

Degree-slice encoding: a homogeneous polynomial of degree d is the vector
of coefficients of (x^d, x^{d-1} y, ..., y^d); index = exponent of y.
"""

from __future__ import annotations

import threading
from functools import lru_cache
from typing import Iterable, Mapping, Sequence

from modinv import _kernels
from modinv.fp_arith import check_prime


class NotDivisibleError(ArithmeticError):
    """Raised by exact division when the remainder is nonzero."""

    def __init__(self, message, remainder):
        super().__init__(message)
        self.remainder = remainder


class Poly2:
    """A polynomial in F_p[x, y], stored as {(i, j): coeff} with i, j the
    exponents of x, y and every stored coefficient nonzero."""

    __slots__ = ("p", "terms")

    def __init__(self, p: int, terms: Mapping[tuple[int, int], int] | None = None):
        check_prime(p)
        clean: dict[tuple[int, int], int] = {}
        if terms:
            for (i, j), c in terms.items():
                if i < 0 or j < 0:
                    raise ValueError(f"negative exponent in term {(i, j)}")
                c %= p
                if c:
                    clean[(i, j)] = c
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("Poly2 is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, p: int) -> "Poly2":
        return cls(p, {})

    @classmethod
    def const(cls, p: int, c: int) -> "Poly2":
        return cls(p, {(0, 0): c})

    @classmethod
    def monomial(cls, p: int, c: int, i: int, j: int) -> "Poly2":
        return cls(p, {(i, j): c})

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(i + j for (i, j) in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {i + j for (i, j) in self.terms}
        return len(degs) <= 1

    def homogeneous_components(self) -> dict[int, "Poly2"]:
        """Components keyed by degree, zero components omitted."""
        buckets: dict[int, dict] = {}
        for (i, j), c in self.terms.items():
            buckets.setdefault(i + j, {})[(i, j)] = c
        return {d: Poly2(self.p, t) for d, t in sorted(buckets.items())}

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "Poly2"):
        if self.p != other.p:
            raise ValueError(f"prime mismatch: {self.p} vs {other.p}")

    def __add__(self, other: "Poly2") -> "Poly2":
        self._check(other)
        out = dict(self.terms)
        p = self.p
        for k, c in other.terms.items():
            v = (out.get(k, 0) + c) % p
            if v:
                out[k] = v
            elif k in out:
                del out[k]
        return Poly2(p, out)

    def __neg__(self) -> "Poly2":
        p = self.p
        return Poly2(p, {k: p - c for k, c in self.terms.items()})

    def __sub__(self, other: "Poly2") -> "Poly2":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        self._check(other)
        p = self.p
        out: dict[tuple[int, int], int] = {}
        for (i1, j1), c1 in self.terms.items():
            for (i2, j2), c2 in other.terms.items():
                k = (i1 + i2, j1 + j2)
                v = (out.get(k, 0) + c1 * c2) % p
                if v:
                    out[k] = v
                elif k in out:
                    del out[k]
        return Poly2(p, out)

    __rmul__ = __mul__

    def scale(self, c: int) -> "Poly2":
        c %= self.p
        if c == 0:
            return Poly2.zero(self.p)
        return Poly2(self.p, {k: (v * c) % self.p for k, v in self.terms.items()})

    def __pow__(self, k: int) -> "Poly2":
        if k < 0:
            raise ValueError("negative power of a polynomial")
        out = Poly2.const(self.p, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def __eq__(self, other):
        if not isinstance(other, Poly2):
            return NotImplemented
        return self.p == other.p and self.terms == other.terms

    def __hash__(self):
        return hash((self.p, frozenset(self.terms.items())))

    def __repr__(self):
        return f"Poly2({self.p}, {format_poly(self)!r})"

    def __str__(self):
        return format_poly(self)


class LinearForm:
    """A nonzero linear form a*x + b*y, normalized so its first nonzero
    coefficient is 1."""

    __slots__ = ("p", "a", "b")

    def __init__(self, p: int, a: int, b: int):
        check_prime(p)
        a %= p
        b %= p
        if a == 0 and b == 0:
            raise ValueError("linear form must be nonzero")
        if a:
            s = pow(a, -1, p)
            a, b = 1, b * s % p
        else:
            b = 1
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    def __setattr__(self, name, value):
        raise AttributeError("LinearForm is immutable")

    def __eq__(self, other):
        if not isinstance(other, LinearForm):
            return NotImplemented
        return (self.p, self.a, self.b) == (other.p, other.a, other.b)

    def __hash__(self):
        return hash((self.p, self.a, self.b))

    def __repr__(self):
        return f"LinearForm({self.p}, {self.a}, {self.b})"


# -- matrix action ----------------------------------------------------------


def act(mat, f: Poly2) -> Poly2:
    """Apply the substitution action of an invertible matrix to f.

    ``mat`` carries ``p`` and ``entries == (a, b, c, d)`` row-major. The
    image of the term c x^i y^j is c times row j of ``act_matrix`` at
    degree i + j; each degree asks for the rows of its terms only.
    """
    if mat.p != f.p:
        raise ValueError(f"prime mismatch: {mat.p} vs {f.p}")
    if not f.terms:
        return f
    p = f.p
    by_degree: dict[int, list[tuple[int, int]]] = {}
    for (i, j), coeff in f.terms.items():
        by_degree.setdefault(i + j, []).append((j, coeff))
    out: dict[tuple[int, int], int] = {}
    for deg, terms in by_degree.items():
        rows = act_matrix(p, mat.entries, deg, [j for j, _ in terms])
        for (_, coeff), row in zip(terms, rows):
            for k, v in enumerate(row):
                if v:
                    key = (deg - k, k)
                    w = (out.get(key, 0) + coeff * v) % p
                    if w:
                        out[key] = w
                    elif key in out:
                        del out[key]
    return Poly2(p, out)


@lru_cache(maxsize=64)
def _power_table(p: int, form: tuple[int, int]) -> list[tuple[int, ...]]:
    # slice vectors of (u x + v y)^n for n = 0, 1, ...; only form_powers grows it
    return [(1,)]


_powers_lock = threading.Lock()


def form_powers(p: int, form: tuple[int, int], n: int) -> list[tuple[int, ...]]:
    """The cached power table of the linear form u x + v y, form = (u, v),
    through exponent n: entry e is the slice vector of (u x + v y)^e. A
    table grows by one length-2 convolve per new power and may already
    hold more than n + 1 entries. Growth is serialized and appends only
    whole entries, so a reader never sees a half-built table.
    """
    table = _power_table(p, form)
    if len(table) <= n:
        with _powers_lock:
            while len(table) <= n:
                table.append(tuple(_kernels.convolve(table[-1], form, p)))
    return table


def check_rows(d: int, ks: Iterable[int]) -> list[int]:
    """ks as a list, after checking that d >= 0 and that every k is a row
    0..d of the degree-d slice."""
    if d < 0:
        raise ValueError(f"negative degree {d}")
    ks = list(ks)
    if ks and not 0 <= min(ks) <= max(ks) <= d:
        bad = next(k for k in ks if not 0 <= k <= d)
        raise ValueError(f"row {bad} outside 0..{d}")
    return ks


def act_matrix(
    p: int, entries: tuple[int, int, int, int], d: int, ks: Iterable[int]
) -> tuple[tuple[int, ...], ...]:
    """Rows k in ks, in that order, of the matrix of the substitution action
    on the degree-d slice.

    Row k is the slice vector of the image of x^{d-k} y^k, which is
    (a x + c y)^{d-k} (b x + d y)^k, built from cached powers of the image
    forms (``form_powers``). A matrix that fixes x (a = 1, c = 0) makes row
    k the power (b x + d y)^k padded with d - k zeros, x^{d-k} adding
    nothing to the y-exponents; one that fixes y (b = 0, d = 1) makes it k
    zeros, the factor y^k, followed by (a x + c y)^{d-k}. Any other row is
    one convolve of the two powers, the operand with fewer nonzero entries
    outermost.
    """
    ks = check_rows(d, ks)
    a, b, c, dd = entries
    if (a, c) == (1, 0):
        ys = form_powers(p, (b, dd), d)
        return tuple(ys[k] + (0,) * (d - k) for k in ks)
    xs = form_powers(p, (a, c), d)
    if (b, dd) == (0, 1):
        return tuple((0,) * k + xs[d - k] for k in ks)
    ys = form_powers(p, (b, dd), d)
    rows = []
    for k in ks:
        u, v = xs[d - k], ys[k]
        if len(u) - u.count(0) > len(v) - v.count(0):
            u, v = v, u
        rows.append(tuple(_kernels.convolve(u, v, p)))
    return tuple(rows)


def act_minus_identity(
    p: int, entries: tuple[int, int, int, int], d: int, ks: Iterable[int]
) -> list[list[int]]:
    """Rows k in ks of A - 1 on the degree-d slice, A = ``act_matrix``: row
    k of A with 1 taken from its entry k. Fixed subspaces and difference
    operators are both built from these rows."""
    ks = list(ks)
    rows = [list(image) for image in act_matrix(p, entries, d, ks)]
    for k, row in zip(ks, rows):
        row[k] = (row[k] - 1) % p
    return rows


# -- degree-slice vector codec ----------------------------------------------


def slice_vector(f: Poly2, d: int) -> list[int]:
    """Coefficient vector of a homogeneous degree-d polynomial (index = y-exponent)."""
    vec = [0] * (d + 1)
    for (i, j), c in f.terms.items():
        if i + j != d:
            raise ValueError(f"term of degree {i + j} in a degree-{d} slice")
        vec[j] = c
    return vec


def poly_from_slice(p: int, d: int, vec: Sequence[int]) -> Poly2:
    """Inverse of slice_vector."""
    if len(vec) != d + 1:
        raise ValueError("slice vector has wrong length")
    return Poly2(p, {(d - k, k): v for k, v in enumerate(vec) if v % p})


def divide_slice_by_form(vec: Sequence[int], form: LinearForm, p: int) -> list[int]:
    """Exact division of a degree-d slice vector by a linear form.

    Synthetic division in the slice encoding; raises NotDivisibleError with
    the scalar remainder when the division is not exact.
    """
    d = len(vec) - 1
    if form.a == 0:
        # form is y: shift indices down
        if vec[0] % p:
            raise NotDivisibleError("not divisible by y", vec[0] % p)
        return [x % p for x in vec[1:]]
    # form is x + b*y
    b = form.b
    q = [0] * d
    prev = 0
    for k in range(d):
        q[k] = (vec[k] - b * prev) % p
        prev = q[k]
    rem = (vec[d] - b * prev) % p
    if rem:
        raise NotDivisibleError("not divisible by linear form", rem)
    return q


# -- exact division ----------------------------------------------------------


def div_exact_linear(f: Poly2, form: LinearForm) -> Poly2:
    """Exact quotient f / (a x + b y).

    Each homogeneous component is divided on its slice vector by
    ``divide_slice_by_form`` (synthetic division). Raises NotDivisibleError
    carrying the nonzero remainder otherwise: the sum over the components
    of degree d of their scalar remainders times x^d for the form y, and
    times y^d for a form x + b y.
    """
    if f.p != form.p:
        raise ValueError("prime mismatch")
    p = f.p
    quot: dict[tuple[int, int], int] = {}
    rem: dict[tuple[int, int], int] = {}
    slices: dict[int, list[int]] = {}
    for (i, j), c in f.terms.items():
        if i + j not in slices:
            slices[i + j] = [0] * (i + j + 1)
        slices[i + j][j] = c
    for d, vec in slices.items():
        try:
            q = divide_slice_by_form(vec, form, p)
        except NotDivisibleError as exc:
            rem[(d, 0) if form.a == 0 else (0, d)] = exc.remainder
            continue
        quot.update(((d - 1 - k, k), c) for k, c in enumerate(q))
    if rem:
        what = "y" if form.a == 0 else "linear form"
        raise NotDivisibleError(f"not divisible by {what}", Poly2(p, rem))
    return Poly2(p, quot)


# -- named polynomials -------------------------------------------------------


def x_var(p: int) -> Poly2:
    return Poly2.monomial(p, 1, 1, 0)


def y_var(p: int) -> Poly2:
    return Poly2.monomial(p, 1, 0, 1)


def delta(p: int) -> Poly2:
    """x y^p - x^p y, minus the product of the normalized linear forms."""
    return Poly2(p, {(1, p): 1, (p, 1): -1})


def _div_delta(f: Poly2) -> Poly2:
    """Exact quotient f / delta, one linear factor at a time:
    delta = -y * prod_{b in F_p} (x + b y)."""
    p = f.p
    for form in [LinearForm(p, 0, 1)] + [LinearForm(p, 1, b) for b in range(p)]:
        f = div_exact_linear(f, form)
    return -f


def d1(p: int) -> Poly2:
    """The degree p^2 - p Dickson generator, (x y^{p^2} - x^{p^2} y) / delta."""
    quot = _div_delta(Poly2(p, {(1, p * p): 1, (p * p, 1): -1}))
    expected = Poly2(p, {((p - 1) * i, (p - 1) * (p - i)): 1 for i in range(p + 1)})
    if quot != expected:
        raise AssertionError("d1 construction mismatch between division and sum form")
    return quot


def d0(p: int) -> Poly2:
    """The degree p^2 - 1 Dickson generator, (x^p y^{p^2} - x^{p^2} y^p) / delta."""
    return _div_delta(Poly2(p, {(p, p * p): 1, (p * p, p): -1}))


def gamma(p: int, i: int) -> Poly2:
    """x^{i(p-1)} - x^{p-1} y^{(i-1)(p-1)} + y^{i(p-1)} for i >= 1."""
    if i < 1:
        raise ValueError(f"gamma index must be >= 1, got {i}")
    out: dict[tuple[int, int], int] = {}
    for key, c in (
        ((i * (p - 1), 0), 1),
        ((p - 1, (i - 1) * (p - 1)), -1),
        ((0, i * (p - 1)), 1),
    ):
        out[key] = (out.get(key, 0) + c) % p
    return Poly2(p, out)


def rho(p: int, s: int) -> Poly2:
    """(y^p - x^{p-1} y)^s, the second invariant of the triangular groups."""
    if s < 1:
        raise ValueError(f"rho exponent must be >= 1, got {s}")
    base = Poly2(p, {(0, p): 1, (p - 1, 1): -1})
    return base**s

def power(p: int, var: str, k: int) -> Poly2:
    """x^k or y^k."""
    if var == "x":
        return Poly2.monomial(p, 1, k, 0)
    if var == "y":
        return Poly2.monomial(p, 1, 0, k)
    raise ValueError(f"unknown variable {var!r}")


# -- text output --------------------------------------------------------------


def format_poly(f: Poly2) -> str:
    """Canonical rendering: terms in decreasing graded lex order (x > y),
    joined by ' + ', coefficients reduced to [1, p)."""
    if f.is_zero():
        return "0"
    parts = []
    for (i, j) in sorted(f.terms, key=lambda ij: (ij[0] + ij[1], ij[0]), reverse=True):
        c = f.terms[(i, j)]
        factors = []
        if c != 1 or (i == 0 and j == 0):
            factors.append(str(c))
        if i:
            factors.append("x" if i == 1 else f"x^{i}")
        if j:
            factors.append("y" if j == 1 else f"y^{j}")
        parts.append("*".join(factors))
    return " + ".join(parts)


# -- lex normal forms modulo a principal ideal ----------------------------------


def lex_normal_forms(g: Poly2, d: int) -> list[dict[int, int]]:
    """Lex (x > y) normal forms modulo (g) of the degree-d monomials.

    g is a nonzero homogeneous form of degree k whose lex leading term
    c x^a y^b is read from g itself. A single form is a Groebner basis of
    the ideal it generates, so every degree-d polynomial f has a unique
    normal form supported on the standard monomials x^s y^{d-s} (s < a or
    s > d - b; k of them once d >= k - 1), the map is linear, and f lies in
    (g)_d exactly when its normal form is zero.

    Entry i is the normal form of x^i y^{d-i}, a sparse vector {s: coeff}
    keyed by the x-exponent s of each standard monomial. A reducible
    monomial (a <= i <= d - b) equals -c^{-1} x^{i-a} y^{d-i-b} (g - c x^a y^b),
    whose monomials all have x-exponent below i, so one pass from high
    y-exponent to low builds every entry from earlier ones, touching only
    the nonzero terms of g.

    Entry i does not depend on d while i <= d - b, and is {i: 1} for
    i > d - b. Proof, by induction on i: an entry i < a is {i: 1} in every
    degree; an entry a <= i <= d - b is the same combination of the
    entries i - a + u (u < a ranging over the x-exponents of g's other
    terms), each below i and so also at most d - b. Above d - b the
    monomial is standard. So the table at one degree D gives the table at
    every degree d <= D: entries 0 .. d - b are the same, the rest are
    unit vectors.
    """
    if g.is_zero() or not g.is_homogeneous():
        raise ValueError("normal forms need a nonzero homogeneous form")
    p = g.p
    a = max(i for i, _ in g.terms)
    b = g.degree() - a
    c_inv = pow(g.terms[(a, b)], -1, p)
    tail = [(a - u, (p - c) * c_inv % p) for (u, _), c in g.terms.items() if u != a]
    out = [{i: 1} for i in range(d + 1)]
    for i in range(a, d - b + 1):
        acc: dict[int, int] = {}
        for shift, c in tail:
            for s, w in out[i - shift].items():
                acc[s] = acc.get(s, 0) + c * w
        out[i] = {s: w % p for s, w in acc.items() if w % p}
    return out


# -- the six-identity verifier ------------------------------------------------


def verify_formules(p: int):
    """Check the six identities relating d1, d0, delta and the monomial
    rewriting rules. Returns a VerificationReport; p must exceed 2.

    Items 1-4 are exact polynomial equalities. Items 5 and 6 are ideal
    memberships over every monomial x^i y^{d-i} of degree d <= 2 p^2, tested
    by lex (x > y) normal forms (``lex_normal_forms``). The leading term of
    delta^r is x^{rp} y^r, so entry i of the degree-d table is the same in
    every degree d >= i + r; one table T_r at degree 2 p^2 per r = 1 .. p - 2
    therefore answers every degree at once, with no loop over d:

    * item 5: x^i y^j - x^b y^{d-b}, b = (i - 1) mod (p - 1) + 1, lies in
      (delta) exactly when the two monomials have the same normal form, so
      the check is T_1[i] == T_1[b] for p <= i < 2 p^2;
    * item 6: x^i y^{d-i} lies in span(x^s y^{d-s} : s < rp) + (delta^r)_d
      exactly when its normal form lies in the span of the normal forms of
      those units. Every unit is a standard monomial, its own normal form,
      so the check is that T_r[i] has no key >= rp, for
      rp <= i <= 2 p^2 - r.

    The ranges of i are the unions over d of the ranges a per-degree check
    visits (p <= i < d for item 5, rp <= i <= d - r for item 6), and each
    i lies in the degree-free part of the tables.

    Why the normal form decides membership: (1) {delta^r} is a Groebner
    basis of (delta^r), since any nonzero h delta^r has leading term
    LT(h) x^{rp} y^r; (2) so f - NF(f) lies in the ideal and NF(f) has no
    term divisible by x^{rp} y^r; (3) a nonzero element of the ideal has a
    term divisible by x^{rp} y^r, so NF vanishes exactly on the ideal, and
    a combination of standard monomials lies in the ideal only when it is
    zero.
    """
    from modinv.report import Check, timed_report

    check_prime(p)
    if p == 2:
        raise ValueError("the identity set requires p > 2")

    with timed_report(p, "formules") as report:
        dd1, dd0, dl = d1(p), d0(p), delta(p)
        yv = y_var(p)

        sum_form = Poly2(p, {((p - 1) * i, (p - 1) * (p - i)): 1 for i in range(p + 1)})
        report.add(Check.equality("item1_d1_sum_form", sum_form, dd1))

        lhs2 = power(p, "y", p * p - 1)
        rhs2 = yv ** (p - 1) * dd1 - dd0
        report.add(Check.equality("item2_y_pp_minus_1", lhs2, rhs2))

        ok3 = True
        for r in range(p):
            lhs = power(p, "y", p * p - p + r)
            base = yv ** (p - 1) - x_var(p) ** (p - 1)
            rhs = yv**r * dd1 - x_var(p) ** (p - r - 1) * base ** (p - r - 1) * dl**r
            if lhs != rhs:
                ok3 = False
                break
        report.add(Check.boolean("item3_y_power_rewrite", ok3))

        star = p * p - 2 * p + 1
        tail = Poly2.zero(p)
        for k in range(1, p - 1):
            tail = tail + Poly2.monomial(p, k, p * p - 2 * p - k * (p - 1), k * (p - 1) - 1)
        rhs4 = (
            power(p, "x", p * p - p)
            + power(p, "y", p * p - p)
            - Poly2.monomial(p, 1, p - 1, star)
            - dl * tail
        )
        report.add(Check.equality("item4_d1_expansion", rhs4, dd1))

        # items 5 and 6 quantify over all monomials; they are tested over
        # all (i, j) with i + j <= 2 p^2, from one degree-free table per r
        cap = 2 * p * p
        t1 = lex_normal_forms(dl, cap)
        ok5 = all(t1[i] == t1[(i - 1) % (p - 1) + 1] for i in range(p, cap))
        report.add(Check.boolean("item5_monomial_reduction_mod_delta", ok5))

        ok6 = True
        for r in range(1, p - 1):
            tr = t1 if r == 1 else lex_normal_forms(dl**r, cap)
            ok6 = all(s < r * p for i in range(r * p, cap - r + 1) for s in tr[i])
            if not ok6:
                break
        report.add(Check.boolean("item6_monomial_span_mod_delta_power", ok6))
    return report
