"""Independent naive oracles for freezing expected values.

The text reader ``parse_poly`` lets tests write polynomials in the grammar
that ``format_poly`` prints. Most of this is deliberately separate from
the package internals: dense dict arithmetic over the integers reduced
mod p at the end, substitution via explicit big-integer binomial
expansion, and a literal long-division routine. Slow and obviously correct. The rest are the slow paths that
faster library code replaced (the conjugator search, the transvection
line scan over every element and the witness check on every element, the
breadth-first group closure, group equality and the reflection test
built on it, the classification that runs the reflection scan before it
reads the order, the shear division,
the action matrix from products of powers of the image forms, the
iterated fixed-subspace kernel, the operator rows from that matrix, the
generalized invariant levels searched over every coordinate, the dense
slices behind formules items 5 and 6, ideal equality by
generator membership, the shift and sum of subspaces by one dense RREF of
all their rows, the kernel by one RREF of every row, the preimage through
full reductions, the reduction of a whole row by whole-row subtraction,
the reduction on the free columns with list rows instead of packed ones,
the basis check by one span per degree and by one kernel per degree,
J_1 by a full invariant search in every degree, generalized invariance by
enumerating every operator chain), kept as references
to compare with.
"""

from __future__ import annotations

import itertools
import re
from functools import lru_cache
from math import comb
from typing import Optional, Sequence

from modinv import _kernels
from modinv.demazure import chain
from modinv.fp_arith import check_prime, divisors
from modinv.fp_linalg import Subspace, kernel
from modinv.graded_ideal import (
    GradedIdeal,
    MonomialFamily,
    degree_generators,
    invariant_slice,
    minimal_generators,
)
from modinv.grp2 import (
    Mat2,
    _reflections_generate,
    _transvection_lines,
    catalog_group,
    find_conjugator,
)
from modinv.poly2 import Poly2, divide_slice_by_form
from modinv.stable_chain import fixing_set


def zpoly(terms=None):
    """Integer-coefficient polynomial as {(i, j): int}."""
    return dict(terms or {})


def zadd(f, g):
    out = dict(f)
    for k, c in g.items():
        out[k] = out.get(k, 0) + c
    return {k: c for k, c in out.items() if c}


def zneg(f):
    return {k: -c for k, c in f.items()}


def zsub(f, g):
    return zadd(f, zneg(g))


def zmul(f, g):
    out = {}
    for (i1, j1), c1 in f.items():
        for (i2, j2), c2 in g.items():
            k = (i1 + i2, j1 + j2)
            out[k] = out.get(k, 0) + c1 * c2
    return {k: c for k, c in out.items() if c}


def zpow(f, n):
    out = {(0, 0): 1}
    for _ in range(n):
        out = zmul(out, f)
    return out


def zreduce(f, p):
    return {k: c % p for k, c in f.items() if c % p}


def zsubstitute(f, a, b, c, d):
    """x -> a x + c y, y -> b x + d y, expanded with big-integer binomials."""
    out = {}
    for (i, j), coeff in f.items():
        for s in range(i + 1):
            for t in range(j + 1):
                key = (s + t, (i - s) + (j - t))
                out[key] = out.get(key, 0) + coeff * comb(i, s) * comb(j, t) * a**s * c ** (
                    i - s
                ) * b**t * d ** (j - t)
    return {k: v for k, v in out.items() if v}


def zdivide(f, g, p):
    """Long division of f by g over F_p (graded lex leading terms).

    Returns (quotient, remainder) with f = quotient * g + remainder and no
    remainder term divisible by the leading term of g.
    """

    def leading(h):
        return max(h, key=lambda ij: (ij[0] + ij[1], ij[0]))

    f = zreduce(f, p)
    g = zreduce(g, p)
    gi, gj = leading(g)
    gc = g[(gi, gj)]
    gc_inv = pow(gc, -1, p)
    q, r = {}, dict(f)
    while r:
        fi, fj = leading(r)
        if fi >= gi and fj >= gj:
            c = r[(fi, fj)] * gc_inv % p
            key = (fi - gi, fj - gj)
            q[key] = (q.get(key, 0) + c) % p
            r = zreduce(zsub(r, zmul({key: c}, g)), p)
        else:
            break
    return {k: c for k, c in q.items() if c}, r


def to_zdict(poly):
    """Convert a package polynomial to the oracle representation."""
    return dict(poly.terms)


def same_poly(zd, poly, p):
    """Compare an oracle dict against a package polynomial mod p."""
    return zreduce(zd, p) == dict(poly.terms)


_TERM_RE = re.compile(
    r"^\s*(?:(?P<coeff>-?\d+)\s*\*?\s*)?"
    r"(?:x(?:\s*\^\s*(?P<xe>\d+))?\s*\*?\s*)?"
    r"(?:y(?:\s*\^\s*(?P<ye>\d+))?)?\s*$"
)


def parse_poly(text: str, p: int) -> Poly2:
    """Parse the polynomial grammar: terms joined by + or -, each term
    ``[coeff*]x^i[*]y^j`` with omitted exponent meaning 1 and omitted
    variable meaning exponent 0. E.g. ``x*y^3 + 2*x^3*y``."""
    check_prime(p)
    s = text.strip()
    if not s:
        raise ValueError("empty polynomial text")
    if s == "0":
        return Poly2.zero(p)
    # split into signed chunks
    chunks: list[tuple[int, str]] = []
    sign = 1
    buf = ""
    for ch in s:
        if ch in "+-":
            if buf.strip():
                chunks.append((sign, buf))
            elif chunks:
                raise ValueError(f"dangling operator in {text!r}")
            sign = 1 if ch == "+" else -1
            buf = ""
        else:
            buf += ch
    if not buf.strip():
        raise ValueError(f"dangling operator in {text!r}")
    chunks.append((sign, buf))
    terms: dict[tuple[int, int], int] = {}
    for sgn, chunk in chunks:
        m = _TERM_RE.match(chunk)
        if not m or not chunk.strip():
            raise ValueError(f"cannot parse term {chunk!r}")
        has_x = "x" in chunk
        has_y = "y" in chunk
        coeff = int(m.group("coeff")) if m.group("coeff") is not None else None
        if coeff is None and not (has_x or has_y):
            raise ValueError(f"cannot parse term {chunk!r}")
        c = 1 if coeff is None else coeff
        i = (int(m.group("xe")) if m.group("xe") else 1) if has_x else 0
        j = (int(m.group("ye")) if m.group("ye") else 1) if has_y else 0
        key = (i, j)
        terms[key] = (terms.get(key, 0) + sgn * c) % p
    return Poly2(p, terms)


def _mat_mul(x, y, p):
    a, b, c, d = x
    e, f, g, h = y
    return ((a * e + b * g) % p, (a * f + b * h) % p, (c * e + d * g) % p, (c * f + d * h) % p)


def brute_force_conjugator(group, target):
    """The first invertible t, in entry order (a, b, c, d), with
    t^-1 g t == target elementwise, as an entry tuple, or None. Tries every
    matrix of GL_2(F_p); the generators screen a candidate before the
    whole group is conjugated."""
    p = group.p
    elements = [m.entries for m in group.elements]
    want = {m.entries for m in target.elements}
    if len(elements) != len(want):
        return None
    gens = [m.entries for m in group.generators] or elements
    for a in range(p):
        for b in range(p):
            for c in range(p):
                for d in range(p):
                    det = (a * d - b * c) % p
                    if not det:
                        continue
                    di = pow(det, -1, p)
                    t, ti = (a, b, c, d), (d * di % p, -b * di % p, -c * di % p, a * di % p)
                    if all(_mat_mul(_mat_mul(ti, m, p), t, p) in want for m in gens) and {
                        _mat_mul(_mat_mul(ti, m, p), t, p) for m in elements
                    } == want:
                        return t
    return None


def bfs_closure(gens) -> frozenset[int]:
    """The element codes ((a*p + b)*p + c)*p + d of the group generated by
    the Mat2 list ``gens``, breadth-first: every frontier element times
    every generator, until nothing new appears."""
    p = gens[0].p
    mats = [m.entries for m in gens]
    seen = frontier = {(1, 0, 0, 1)}
    while frontier:
        frontier = {_mat_mul(m, g, p) for m in frontier for g in mats} - seen
        seen = seen | frontier
    return frozenset(((a * p + b) * p + c) * p + d for a, b, c, d in seen)


def bfs_group_equal(group, other) -> bool:
    """Group equality as equality of element sets: the ``bfs_closure`` of
    each side's generators."""
    return group.p == other.p and _bfs_of(group.generators) == _bfs_of(other.generators)


@lru_cache(maxsize=1024)
def _bfs_of(gens: tuple) -> frozenset[int]:
    return bfs_closure(list(gens))


def reflections_generate(group) -> bool:
    """Whether the group's reflections generate it: each reflection not yet
    in the subgroup is adjoined, and the subgroup is closed again by
    ``bfs_closure``."""
    p = group.p
    identity = p * p * p + 1
    gens, codes = [], frozenset({identity})
    for m in sorted(group.elements, key=lambda m: m.entries):
        a, b, c, d = m.entries
        moved = ((a - 1) % p, b, c, (d - 1) % p)
        if any(moved) and (moved[0] * moved[3] - moved[1] * moved[2]) % p == 0:
            if ((a * p + b) * p + c) * p + d not in codes:
                gens.append(m)
                codes = bfs_closure(gens)
    return codes == group.codes


def full_scan_transvection_lines(group) -> set[tuple[int, int]]:
    """Every line fixed by a transvection of the group, as its spanning
    column vector (1, v) or (0, 1), from a scan of every element."""
    p = group.p
    lines = set()
    for code in group.codes:
        hi, lo = divmod(code, p * p)
        a, b, c, d = divmod(hi, p) + divmod(lo, p)
        # not the identity, trace 2 and determinant 1
        if (a, b, c, d) == (1, 0, 0, 1) or (a + d - 2) % p or (a * d - b * c - 1) % p:
            continue
        lines.add((1, (1 - a) * pow(b, -1, p) % p) if b else (0, 1))
    return lines


def elementwise_conjugator(group, target) -> Optional[tuple[int, int, int, int]]:
    """The constructive witness of ``find_conjugator`` as an entry tuple,
    or None, with the lines read by a full scan and every element of the
    group conjugated into the target. Two or more lines on both sides
    compare the element sets."""
    p = group.p
    if p != target.p or group.order != target.order:
        return None
    lines, target_lines = full_scan_transvection_lines(group), full_scan_transvection_lines(target)
    if not lines or min(len(lines), 2) != min(len(target_lines), 2):
        return None
    if len(lines) > 1:
        return (0, 1, 1, 0) if group.codes == target.codes else None
    (u,), ((x, v),) = lines, target_lines

    def line_matrix(line):
        return (1, 0, line[1], 1) if line[0] else (0, 1, 1, 0)

    t = _mat_mul(line_matrix(u), line_matrix((x, -v % p)), p)
    a, b, c, d = t
    di = pow((a * d - b * c) % p, -1, p)
    ti = (d * di % p, -b * di % p, -c * di % p, a * di % p)
    want = {m.entries for m in target.elements}
    if all(_mat_mul(_mat_mul(ti, m.entries, p), t, p) in want for m in group.elements):
        return t
    return None


def elementwise_classify(group) -> tuple[str, Optional[int], Optional[int], Optional[tuple]]:
    """(kind, r, s, witness entries) of ``classify``, by trying every
    catalog group of the right order with ``elementwise_conjugator``, the
    reflection test by ``reflections_generate``."""
    p = group.p
    if group.order % p:
        return ("prime_to_p", None, None, None)
    if not reflections_generate(group):
        return ("other_modular", None, None, None)
    divs = [d for d in range(1, p) if (p - 1) % d == 0]
    for r in divs:
        if group.order == r * p * (p * p - 1):
            t = elementwise_conjugator(group, catalog_group("L", p, r))
            if t is not None:
                return ("L", r, None, t)
    for r in divs:
        for s in divs:
            if group.order == r * s * p:
                t = elementwise_conjugator(group, catalog_group("U", p, r, s))
                if t is not None:
                    return ("U", r, s, t)
    return ("other_modular", None, None, None)


def scan_first_classify(group) -> tuple[str, Optional[int], Optional[int], Optional[tuple]]:
    """(kind, r, s, witness entries) of ``classify`` by its earlier decision
    order: the reflection scan (``grp2._reflections_generate``) on every
    group of order divisible by p before anything else, L(r) from two
    transvection lines, then the U(r, s) of the group's order."""
    p = group.p
    if group.order % p:
        return ("prime_to_p", None, None, None)
    if not _reflections_generate(group):
        return ("other_modular", None, None, None)
    if len(_transvection_lines(group)) > 1:
        return ("L", group.order // (p * (p * p - 1)), None, (0, 1, 1, 0))
    for r in divisors(p - 1):
        for s in divisors(p - 1):
            if group.order == r * s * p:
                t = find_conjugator(group, catalog_group("U", p, r, s))
                if t is not None:
                    return ("U", r, s, t.entries)
    return ("other_modular", None, None, None)


def element_order(a, p):
    """Multiplicative order of a nonzero residue, by repeated multiplication."""
    a %= p
    if a == 0:
        raise ZeroDivisionError("0 has no multiplicative order")
    x, n = a, 1
    while x != 1:
        x = x * a % p
        n += 1
    return n


def shear_div_linear(f, a, b, p):
    """Division of f by the normalized form a x + b y (a in {0, 1}) through
    a change of variables: x -> x - b y turns x + b y into x, the terms free
    of the divisor variable are the remainder, and the inverse substitution
    brings quotient and remainder back. Returns (quotient, remainder); the
    quotient is meaningful only when the remainder is {}."""
    f = zreduce(f, p)
    if a == 0:
        rem = {(i, j): c for (i, j), c in f.items() if j == 0}
        return {(i, j - 1): c for (i, j), c in f.items() if j}, rem
    g = zreduce(zsubstitute(f, 1, 0, -b, 1), p)
    rem = {(i, j): c for (i, j), c in g.items() if i == 0}
    quot = {(i - 1, j): c for (i, j), c in g.items() if i}
    return zreduce(zsubstitute(quot, 1, 0, b, 1), p), zreduce(zsubstitute(rem, 1, 0, b, 1), p)


def _product(f, g, p):
    # the product of two slice vectors, the one with fewer nonzero entries
    # outermost, whose zero entries are skipped
    if len(f) - f.count(0) > len(g) - g.count(0):
        f, g = g, f
    out = [0] * (len(f) + len(g) - 1)
    for i, u in enumerate(f):
        if u:
            out[i : i + len(g)] = [s + u * v for s, v in zip(out[i : i + len(g)], g)]
    return [x % p for x in out]


@lru_cache(maxsize=None)
def _oracle_powers(p: int, form) -> list[list[int]]:
    # slice vectors of (u x + v y)^n for n = 0, 1, ...; grown by power_product_rows
    return [[1]]


def power_product_rows(p: int, entries, d: int, ks) -> tuple[tuple[int, ...], ...]:
    """Rows k in ks of the substitution matrix on the degree-d slice (row k
    = the image of x^{d-k} y^k) as the products (a x + c y)^{d-k} (b x + d y)^k
    of powers of the two image forms. The powers of each form are built
    once, each from the one below."""
    a, b, c, dd = entries
    tables = []
    for form in ((a, c), (b, dd)):
        table = _oracle_powers(p, form)
        while len(table) <= d:
            table.append(_product(table[-1], list(form), p))
        tables.append(table)
    xs, ys = tables
    return tuple(tuple(_product(xs[d - k], ys[k], p)) for k in ks)


@lru_cache(maxsize=None)
def power_product_act_matrix(p: int, entries, d: int) -> tuple[tuple[int, ...], ...]:
    """The substitution matrix on the degree-d slice: every row of
    ``power_product_rows``."""
    return power_product_rows(p, entries, d, range(d + 1))


def recurrence_act_matrix(p: int, entries, prev) -> tuple[tuple[int, ...], ...]:
    """The substitution matrix on the degree-d slice from the one on the
    degree d-1 slice, ``prev`` (``((1,),)`` at degree 0): x^{d-k} y^k is
    x * x^{d-1-k} y^k for k < d and y * y^{d-1} for k = d, and x, y go to
    a x + c y and b x + d y, so each row is one row of prev times a linear
    form."""
    a, b, c, dd = entries

    def times(row, u, v):
        return tuple([(u * s + v * t) % p for s, t in zip(row + (0,), (0,) + row)])

    return tuple(times(row, a, c) for row in prev) + (times(prev[-1], b, dd),)


def _apply_action(g: Mat2, v: Sequence[int], d: int) -> list[int]:
    p = g.p
    n = d + 1
    if g.is_diagonal():
        a, dd = g.a, g.d
        return [v[k] * pow(a, d - k, p) * pow(dd, k, p) % p for k in range(n)]
    mat = power_product_act_matrix(p, g.entries, d)
    out = [0] * n
    for k, c in enumerate(v):
        if c:
            row = mat[k]
            out = [(x + c * y) % p for x, y in zip(out, row)]
    return out


def rref_kernel(rows: Sequence[Sequence[int]], ncols: int, p: int) -> Subspace:
    """``fp_linalg.kernel`` by one list RREF of every row: a null vector
    for each free column, read off the reduced rows."""
    basis, pivots = _kernels.rref([[x % p for x in r] for r in rows], p)
    pivot_set = set(pivots)
    vectors = []
    for c in range(ncols):
        if c not in pivot_set:
            v = [0] * ncols
            v[c] = 1
            for row, pc in zip(basis, pivots):
                v[pc] = (-row[c]) % p
            vectors.append(v)
    return Subspace.span(p, ncols, vectors)


def _left_kernel(rows: list[list[int]], p: int) -> list[list[int]]:
    # coefficient vectors c with sum_i c_i rows[i] = 0
    k = len(rows)
    n = len(rows[0]) if rows else 0
    transposed = [[rows[i][j] for i in range(k)] for j in range(n)]
    return [list(r) for r in rref_kernel(transposed, k, p).rows]


def iterated_invariant_slice(
    p: int,
    gens: Sequence[Mat2],
    d: int,
    modulo: Optional[Subspace] = None,
) -> Subspace:
    """The subspace of the degree-d slice (of P, or of P/modulo for a
    degree-d slice ``modulo``) fixed by every generator, with quotient
    vectors lifted to canonical coset representatives.

    Computed as the iterated kernel of (action - 1) restricted to the
    running fixed space; diagonal generators are processed first since
    their fixed spaces are coordinate subspaces.
    """
    check_prime(p)
    for g in gens:
        if g.p != p:
            raise ValueError("prime mismatch among generators")
    n = d + 1
    sl = modulo
    if sl is not None:
        if sl.p != p:
            raise ValueError("prime mismatch with the quotient slice")
        if sl.is_full:
            return Subspace.zero(p, n)
        basis = [[1 if k == c else 0 for k in range(n)] for c in sl.complement()]
    else:
        basis = [[1 if k == c else 0 for k in range(n)] for c in range(n)]
    ordered = sorted(gens, key=lambda g: (not g.is_diagonal(), g.entries))
    sl_rows = None if sl is None else sl.rows  # built on each request: read once
    for g in ordered:
        if not basis:
            break
        rows = []
        for v in basis:
            w = _apply_action(g, v, d)
            if sl is not None:
                w = dense_reduce_row(w, sl_rows, sl.pivots, p)
            rows.append([(a - b) % p for a, b in zip(w, v)])
        coeffs = _left_kernel(rows, p)
        new_basis = []
        for c in coeffs:
            vec = [0] * n
            for ci, v in zip(c, basis):
                if ci:
                    vec = [(a + ci * b) % p for a, b in zip(vec, v)]
            new_basis.append(vec)
        basis = new_basis
    return Subspace.span(p, n, basis)


def substitution_delta_rows(op, d: int, ks=None) -> tuple[tuple[int, ...], ...]:
    """Rows k in ks (all rows by default) of the matrix of the difference
    operator of a reflection on the degree-d slice (row k = the image of
    x^{d-k} y^k), as (action matrix - identity) divided row by row by the
    reflection's linear form."""
    p = op.p
    if ks is None:
        ks, images = range(d + 1), power_product_act_matrix(p, op.matrix.entries, d)
    else:
        ks = list(ks)
        images = power_product_rows(p, op.matrix.entries, d, ks)
    rows = []
    for k, image in zip(ks, images):
        diff = [(a - (1 if i == k else 0)) % p for i, a in enumerate(image)]
        rows.append(tuple(divide_slice_by_form(diff, op.vsigma, p)))
    return tuple(rows)


def p1_rows(prev: Subspace) -> list[list[int]]:
    """Rows spanning P_1 * prev one degree up: x*v, then y*v, for each row v."""
    rows = []
    for v in prev.rows:
        row = list(v)
        rows.append(row + [0])
        rows.append([0] + row)
    return rows


def dense_shift(prev: Subspace) -> Subspace:
    """P_1 * prev by one RREF of all the shifted rows."""
    return Subspace.span(prev.p, prev.ncols + 1, p1_rows(prev))


def dense_sum(a: Subspace, b: Subspace) -> Subspace:
    """a + b by one RREF of the rows of both."""
    return Subspace.span(a.p, a.ncols, list(a.rows) + list(b.rows))


def contains_all(big: Subspace, small: Subspace) -> bool:
    """Whether small lies in big, tested row by row with ``contains``."""
    return all(big.contains(r) for r in small.rows)


def full_reduce_preimage(p: int, ncols: int, coords, maps, modulo: Subspace) -> Subspace:
    """``fp_linalg.preimage`` with every image reduced in full modulo
    ``modulo`` before its non-pivot coordinates are read."""
    free = modulo.complement()
    basis = modulo.rows  # built on each request: read once
    rows: list[list[int]] = []
    for images in maps:
        reduced = [dense_reduce_row(v, basis, modulo.pivots, p) for v in images]
        rows += [[w[j] for w in reduced] for j in free]
    vectors = []
    for c in rref_kernel(rows, len(coords), p).rows:
        v = [0] * ncols
        for k, x in zip(coords, c):
            v[k] = x
        vectors.append(v)
    return Subspace.span(p, ncols, vectors)


def full_preimage_levels(ops, through: int):
    """The levels of the generalized invariant ideal of the reflections
    through degree ``through``, each the preimage of the level below over
    every coordinate, and the minimal generators read off them with
    ``degree_generators``. Returns (levels, [(degree, generator)])."""
    p = ops[0].p
    levels = [Subspace.zero(p, 1)]
    gens = []
    for e in range(1, through + 1):
        maps = [substitution_delta_rows(op, e) for op in ops]
        levels.append(full_reduce_preimage(p, e + 1, range(e + 1), maps, levels[e - 1]))
        gens += [(e, g) for g in degree_generators(p, e, levels[e - 1], levels[e])]
    return levels, gens


def slice_span_verdicts(ideal: GradedIdeal, d: int, units, targets) -> list[bool]:
    """For each i in targets, whether x^i y^{d-i} lies in
    span(x^s y^{d-s} : s in units) + I_d, from the dense slice I_d of the
    ideal and one RREF together with the unit vectors (the slice path of
    formules item 6)."""
    p = ideal.p
    unit_rows = [[1 if k == d - s else 0 for k in range(d + 1)] for s in units]
    w = Subspace.span(p, d + 1, unit_rows).sum(ideal.slice(d))
    out = []
    for i in targets:
        vec = [0] * (d + 1)
        vec[d - i] = 1
        out.append(w.contains(vec))
    return out


def generating_polys(ideal: GradedIdeal) -> list[Poly2]:
    """A finite generating set: the explicit generators when the ideal has
    no slice source, otherwise the minimal generators extracted from the
    slices (requires a finite quotient)."""
    if ideal.slice_source is None:
        return list(ideal.generators)
    return minimal_generators(ideal)


def generator_ideal_equal(a: GradedIdeal, b: GradedIdeal) -> bool:
    """True iff every generator of each ideal belongs to the other."""
    if a.p != b.p:
        raise ValueError("prime mismatch")
    return all(b.member(g) for g in generating_polys(a)) and all(
        a.member(g) for g in generating_polys(b)
    )


def list_reduce_row(vectors, basis, pivots, free, p):
    """``_kernels.reduce_row`` on dense list rows: the reductions of the
    vectors modulo the span of an RREF basis on its free columns, by one
    multiply-add of the free block of each row whose pivot entry is
    nonzero."""
    blocks = [[r[f] for f in free] for r in basis]
    out = []
    for v in vectors:
        acc = [v[f] for f in free]
        for c, b in zip(pivots, blocks):
            x = v[c]
            if x:
                acc = [a - x * y for a, y in zip(acc, b)]
        out.append([a % p for a in acc])
    return out


def dense_reduce_row(v, basis, pivots, p) -> list[int]:
    """The canonical representative of v modulo the span of an RREF basis,
    by subtracting whole rows: zero at every pivot, and zero exactly when v
    lies in the span."""
    out = list(v)
    for row, c in zip(basis, pivots):
        f = out[c] % p
        if f:
            out = [(a - f * b) % p for a, b in zip(out, row)]
    return [x % p for x in out]


def span_basis_verdicts(family: MonomialFamily, ideal: GradedIdeal) -> tuple[bool, bool]:
    """basis_check's per_degree_counts_match and images_independent_mod_ideal
    verdicts, each degree's independence tested by one span of the slice
    rows together with the members' unit vectors."""
    p = family.p
    dims = ideal.quotient_dims()[0]
    by_deg = family.by_degree()
    for d in range(ideal.top_degree() + 1):
        members = by_deg.get(d, [])
        if len(members) != dims[d]:
            return False, True
        sl = ideal.slice(d)
        rows = [list(v) for v in sl.rows]
        for (_, j) in members:
            vec = [0] * (d + 1)
            vec[j] = 1
            rows.append(vec)
        if Subspace.span(p, d + 1, rows).dim != sl.dim + len(members):
            return True, False
    return True, True


def kernel_basis_verdicts(family: MonomialFamily, ideal: GradedIdeal) -> tuple[bool, bool]:
    """basis_check's per_degree_counts_match and images_independent_mod_ideal
    verdicts, each degree's independence tested by one kernel of the
    members' reductions on the free columns of the slice, whatever columns
    the members sit on."""
    p = family.p
    dims = ideal.quotient_dims()[0]
    by_deg = family.by_degree()
    for d in range(ideal.top_degree() + 1):
        members = by_deg.get(d, [])
        if len(members) != dims[d]:
            return False, True
        sl = ideal.slice(d)
        units = [[int(k == j) for k in range(d + 1)] for (_, j) in members]
        if not kernel(sl._free_parts(units), sl.ncols - sl.dim, p).is_zero:
            return True, False
    return True, True


def full_search_J1(group, extra: Sequence[Poly2] = ()) -> GradedIdeal:
    """J_1 of the group plus the ideal of ``extra``, with the invariants of
    every degree searched in full: the slice source adds all degree-e
    invariants, whatever the slices below hold."""
    fixing = fixing_set(group)
    cache: dict[int, Subspace] = {}

    def source(e, below, shifted):
        if e not in cache:
            cache[e] = invariant_slice(fixing, e)
        return cache[e]

    return GradedIdeal(group.p, list(extra), slice_source=source)


class BudgetExceededError(RuntimeError):
    pass


def brute_force_is_gen_inv(s: Sequence, f: Poly2, budget: int = 10**6) -> bool:
    """Literal enumeration oracle for generalized invariance: every chain of
    deg(f) operators of the reflections s kills f."""
    if f.is_zero() or not f.is_homogeneous() or f.degree() < 1:
        raise ValueError("need a nonzero homogeneous polynomial of positive degree")
    k = f.degree()
    if len(s) ** k > budget:
        raise BudgetExceededError(f"{len(s)}^{k} chains exceed the budget {budget}")
    return all(chain(seq, f).is_zero() for seq in itertools.product(s, repeat=k))
