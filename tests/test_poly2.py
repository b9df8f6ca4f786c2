"""Polynomials: named constructors, the matrix action, exact division,
the text grammar, and the identity verifier."""

import inspect
import random
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modinv import poly2
from modinv.graded_ideal import GradedIdeal
from modinv.fp_arith import divisors
from modinv.grp2 import (
    Mat2,
    all_invertible,
    all_reflections,
    catalog_generators,
    diag,
    is_reflection,
    omega,
    omega_prime,
)
from modinv.poly2 import (
    LinearForm,
    NotDivisibleError,
    Poly2,
    act,
    act_matrix,
    div_exact_linear,
    divide_slice_by_form,
    format_poly,
    poly_from_slice,
    slice_vector,
)
from oracles import (
    parse_poly,
    power_product_act_matrix,
    recurrence_act_matrix,
    same_poly,
    shear_div_linear,
    slice_span_verdicts,
    zdivide,
    zmul,
    zpow,
    zreduce,
    zsub,
    zsubstitute,
)

PRIMES = [2, 3, 5, 7]


def random_poly(rng, p, max_deg=8, terms=5):
    return Poly2(
        p,
        {
            (rng.randrange(max_deg + 1), rng.randrange(max_deg + 1)): rng.randrange(1, p)
            for _ in range(terms)
        },
    )


def random_homogeneous(rng, p, d):
    return Poly2(p, {(d - j, j): rng.randrange(p) for j in range(d + 1)})


# -- named polynomials ---------------------------------------------------------


def test_delta_value():
    assert poly2.delta(3) == parse_poly("x*y^3 + 2*x^3*y", 3)


def test_d1_by_long_division_oracle():
    # divide x y^4 - x^4 y by x y^2 - x^2 y with the literal long-division oracle
    q, r = zdivide({(1, 4): 1, (4, 1): -1}, {(1, 2): 1, (2, 1): -1}, 2)
    assert r == {}
    assert q == {(2, 0): 1, (1, 1): 1, (0, 2): 1}
    assert poly2.d1(2) == parse_poly("x^2 + x*y + y^2", 2)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_d1_sum_form(p):
    expected = Poly2(p, {((p - 1) * i, (p - 1) * (p - i)): 1 for i in range(p + 1)})
    assert poly2.d1(p) == expected


@pytest.mark.parametrize("p", PRIMES)
def test_d0_is_delta_power(p):
    assert poly2.d0(p) == poly2.delta(p) ** (p - 1)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_dickson_generators_times_delta(p):
    # d1 and d0 are built by dividing by the p + 1 linear factors of delta
    dl = poly2.delta(p)
    assert poly2.d1(p) * dl == Poly2(p, {(1, p * p): 1, (p * p, 1): -1})
    assert poly2.d0(p) * dl == Poly2(p, {(p, p * p): 1, (p * p, p): -1})
    assert poly2.d0(p) == dl ** (p - 1)


def test_gamma_values():
    assert poly2.gamma(3, 2) == parse_poly("x^4 - x^2*y^2 + y^4", 3)
    assert poly2.gamma(5, 1) == poly2.power(5, "y", 4)
    with pytest.raises(ValueError):
        poly2.gamma(5, 0)


def test_rho_is_invariant_seed():
    p = 3
    assert poly2.rho(p, 1) == parse_poly("y^3 - x^2*y", p)
    assert poly2.rho(p, 2) == poly2.rho(p, 1) * poly2.rho(p, 1)


def test_make_named_forms():
    assert poly2.power(5, "x", 4) == Poly2.monomial(5, 1, 4, 0)
    assert poly2.power(5, "y", 4) == Poly2.monomial(5, 1, 0, 4)
    assert poly2.rho(3, 2) == parse_poly("y^6 - 2*x^2*y^4 + x^4*y^2", 3)
    with pytest.raises(ValueError):
        poly2.power(5, "z", 4)
    with pytest.raises(ValueError):
        poly2.rho(3, 0)


# -- the action ----------------------------------------------------------------


def test_act_omega_on_x():
    for p in [2, 3, 5]:
        assert act(omega(p), poly2.x_var(p)) == parse_poly("x + y", p)
        assert act(omega(p), poly2.y_var(p)) == poly2.y_var(p)
        assert act(omega_prime(p), poly2.x_var(p)) == poly2.x_var(p)


def test_act_diagonal_scales_monomials():
    p = 7
    f = Poly2.monomial(p, 1, 3, 2)
    assert act(diag(p, 2, 3), f) == f.scale(pow(2, 3, p) * pow(3, 2, p))


def test_act_identity():
    rng = random.Random(3)
    for p in PRIMES:
        f = random_poly(rng, p)
        assert act(Mat2.identity(p), f) == f


def test_act_matches_bigint_substitution_oracle():
    rng = random.Random(5)
    for p in PRIMES:
        for _ in range(10):
            f = random_poly(rng, p, max_deg=5)
            mats = [m for m in (omega(p), omega_prime(p)) if True]
            a, b, c, d = rng.choice(mats).entries
            expected = zreduce(zsubstitute(dict(f.terms), a, b, c, d), p)
            assert dict(act(Mat2(p, a, b, c, d), f).terms) == expected


def test_act_is_ring_homomorphism():
    rng = random.Random(11)
    for p in PRIMES:
        for _ in range(10):
            f, g = random_poly(rng, p), random_poly(rng, p)
            m = _random_invertible(rng, p)
            assert act(m, f * g) == act(m, f) * act(m, g)
            assert act(m, f + g) == act(m, f) + act(m, g)


def _random_invertible(rng, p):
    while True:
        a, b, c, d = (rng.randrange(p) for _ in range(4))
        if (a * d - b * c) % p:
            return Mat2(p, a, b, c, d)


@pytest.mark.parametrize("p", PRIMES)
def test_act_composition(p):
    rng = random.Random(100 + p)
    for _ in range(50):
        m1, m2 = _random_invertible(rng, p), _random_invertible(rng, p)
        f = random_poly(rng, p, max_deg=4, terms=3)
        assert act(m1, act(m2, f)) == act(m1 * m2, f)


def test_act_preserves_homogeneity():
    rng = random.Random(17)
    for p in [3, 5]:
        f = random_homogeneous(rng, p, 6)
        g = act(_random_invertible(rng, p), f)
        assert g.is_zero() or (g.is_homogeneous() and g.degree() == 6)


@pytest.mark.parametrize("p", PRIMES)
def test_act_matrix_and_act_match_power_products(p):
    # every invertible matrix at p <= 3; every reflection and 20 seeded
    # random invertibles at p = 5, 7
    if p <= 3:
        mats = list(all_invertible(p))
    else:
        rng = random.Random(200 + p)
        mats = all_reflections(p) + [_random_invertible(rng, p) for _ in range(20)]
    for m in mats:
        for d in range(31):
            expected = power_product_act_matrix(p, m.entries, d)
            assert act_matrix(p, m.entries, d, range(d + 1)) == expected, (m, d)
            for k, row in enumerate(expected):
                image = act(m, Poly2.monomial(p, 1, d - k, k))
                assert image.terms == {(d - j, j): v for j, v in enumerate(row) if v}, (m, d, k)


def test_act_matrix_cold_call_is_shallow():
    # a cold call grows the power tables without recursing once per degree:
    # at degree 150 it stays within 200 levels of the caller, where
    # recursing once per degree takes about 300
    entries = omega(7).entries
    d = 150
    poly2._power_table.cache_clear()
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 200)
    try:
        rows = act_matrix(7, entries, d, range(d + 1))
    finally:
        sys.setrecursionlimit(limit)
    assert rows == power_product_act_matrix(7, entries, d)


def _seeded_non_triangular_reflections(rng, p, count):
    out = []
    while len(out) < count:
        a, b, c, d = (rng.randrange(p) for _ in range(4))
        if b and c and (a * d - b * c) % p and is_reflection(Mat2(p, a, b, c, d)):
            out.append(Mat2(p, a, b, c, d))
    return out


def _catalog_matrices(p):
    mats = {}
    for r in divisors(p - 1):
        groups = [catalog_generators("L", p, r)]
        groups += [catalog_generators("U", p, r, s) for s in divisors(p - 1)]
        for gens in groups:
            mats.update((refl.matrix, None) for refl in gens)
    return list(mats)


def test_act_matrix_rows_match_recurrence_oracle():
    # every reflection at p <= 5; the catalog generators and 20 seeded
    # non-triangular reflections at p = 7 and 11. Each degree asks for one
    # kind of row list in turn: all rows, a sorted random subset of up to 4
    # rows, an unsorted one, none.
    rng = random.Random(1606)
    cases = [(p, m) for p in (2, 3, 5) for m in all_reflections(p)]
    for p in (7, 11):
        mats = _catalog_matrices(p) + _seeded_non_triangular_reflections(rng, p, 20)
        cases += [(p, m) for m in mats]
    for p, m in cases:
        expected = ((1,),)
        for d in range(61):
            if d:
                expected = recurrence_act_matrix(p, m.entries, expected)
            subset = rng.sample(range(d + 1), min(d + 1, 4))
            ks = (range(d + 1), sorted(subset), subset, [])[d % 4]
            got = act_matrix(p, m.entries, d, ks)
            assert got == tuple(expected[k] for k in ks), (m, d, ks)


@pytest.mark.parametrize(
    "d, ks, message",
    [
        (-1, [], "negative degree -1"),
        (-3, [0], "negative degree -3"),
        (0, [1], "row 1 outside 0..0"),
        (4, [2, 5], "row 5 outside 0..4"),
        (4, [0, -1], "row -1 outside 0..4"),
    ],
)
def test_act_matrix_rejects_a_negative_degree_or_a_row_outside_the_slice(d, ks, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        act_matrix(5, (1, 1, 0, 1), d, ks)


# -- division ------------------------------------------------------------------


def _form_poly(form):
    return Poly2(form.p, {(1, 0): form.a, (0, 1): form.b})


def test_div_exact_linear_freshman_dream():
    p = 3
    cube = zpow({(1, 0): 1, (0, 1): 1}, 3)
    assert zreduce(cube, p) == {(3, 0): 1, (0, 3): 1}
    f = parse_poly("x^3 + y^3", p) - parse_poly("x^3", p)
    assert div_exact_linear(f, LinearForm(p, 0, 1)) == parse_poly("y^2", p)


def test_div_exact_linear_roundtrip():
    rng = random.Random(23)
    for p in PRIMES:
        for _ in range(20):
            g = random_poly(rng, p, max_deg=4, terms=3)
            form = LinearForm(p, rng.randrange(p), 1 + rng.randrange(p - 1) if p > 2 else 1)
            f = _form_poly(form) * g
            assert div_exact_linear(f, form) == g


def test_div_exact_linear_error_carries_remainder():
    p = 3
    with pytest.raises(NotDivisibleError) as exc:
        div_exact_linear(poly2.x_var(p), LinearForm(p, 0, 1))
    assert exc.value.remainder == poly2.x_var(p)


def test_div_exact_linear_remainder_for_x_plus_by():
    # over F_7, x^2 + y^2 = (x + 2y)(x - 2y) + 5y^2 and x + 2y is divisible:
    # only the components of degree 2 and 0 leave a remainder
    p = 7
    with pytest.raises(NotDivisibleError) as exc:
        div_exact_linear(parse_poly("x^2 + y^2 + x + 2*y + 1", p), LinearForm(p, 1, 2))
    assert exc.value.remainder == parse_poly("5*y^2 + 1", p)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_div_exact_linear_matches_shear_oracle(p):
    # quotient or remainder, against the change-of-variables division
    rng = random.Random(37 + p)
    forms = [LinearForm(p, 0, 1)] + [LinearForm(p, 1, b) for b in range(p)]
    for form in forms:
        for _ in range(3):
            g = random_poly(rng, p, max_deg=5, terms=4)
            for f in (g, _form_poly(form) * g):
                quot, rem = shear_div_linear(dict(f.terms), form.a, form.b, p)
                if rem:
                    with pytest.raises(NotDivisibleError) as exc:
                        div_exact_linear(f, form)
                    assert same_poly(rem, exc.value.remainder, p)
                else:
                    assert same_poly(quot, div_exact_linear(f, form), p)


def test_divide_slice_matches_poly_division():
    rng = random.Random(29)
    for p in [3, 5]:
        for _ in range(20):
            d = rng.randrange(1, 7)
            g = random_homogeneous(rng, p, d - 1)
            if g.is_zero():
                continue
            form = LinearForm(p, rng.randrange(2), 1)
            f = _form_poly(form) * g
            vec = slice_vector(f, d)
            q_vec = divide_slice_by_form(vec, form, p)
            assert poly_from_slice(p, d - 1, q_vec) == div_exact_linear(f, form)


def test_degree_drop_on_linear_division():
    p = 5
    f = poly2.delta(p)
    q = div_exact_linear(f, LinearForm(p, 0, 1))
    assert q.degree() == f.degree() - 1


# -- grammar -------------------------------------------------------------------


def test_parse_format_roundtrip():
    rng = random.Random(31)
    for p in PRIMES:
        for _ in range(20):
            f = random_poly(rng, p)
            assert parse_poly(format_poly(f), p) == f


def test_parse_accepts_signs_and_constants():
    p = 5
    assert parse_poly("-x + 2", p) == Poly2(p, {(1, 0): 4, (0, 0): 2})
    assert parse_poly("3", p) == Poly2.const(p, 3)
    assert parse_poly("0", p).is_zero()
    assert parse_poly("y^2 - y^2", p).is_zero()
    assert parse_poly("2x^2y", p) == Poly2.monomial(p, 2, 2, 1)


def test_parse_rejects_garbage():
    for bad in ["", "x +", "* y", "x^", "z^2", "x**2"]:
        with pytest.raises(ValueError):
            parse_poly(bad, 5)


def test_format_is_graded_lex_descending():
    p = 5
    f = parse_poly("y^3 + x*y + x^2*y^2", p)
    assert format_poly(f) == "x^2*y^2 + y^3 + x*y"


@settings(deadline=None, max_examples=40)
@given(
    p=st.sampled_from([2, 3, 5]),
    terms=st.dictionaries(
        st.tuples(st.integers(0, 6), st.integers(0, 6)),
        st.integers(1, 6),
        min_size=0,
        max_size=6,
    ),
)
def test_roundtrip_property(p, terms):
    f = Poly2(p, terms)
    assert parse_poly(format_poly(f), p) == f


# -- identity verifier ----------------------------------------------------------


def test_formules_items_against_naive_oracle_p3():
    p = 3
    # item 2: y^{p^2-1} = y^{p-1} d1 - d0, expanded over the integers
    d1 = {(2 * i, 2 * (3 - i)): 1 for i in range(4)}
    d0 = zpow({(1, 3): 1, (3, 1): -1}, 2)
    rhs = zsub(zmul({(0, 2): 1}, d1), d0)
    assert zreduce(rhs, p) == {(0, 8): 1}
    # item 1 is the definition used above; item 4 expanded the same way
    star = p * p - 2 * p + 1
    tail = {}
    for k in range(1, p - 1):
        tail[(p * p - 2 * p - k * (p - 1), k * (p - 1) - 1)] = k
    rhs4 = zsub(
        zsub({(p * p - p, 0): 1, (0, p * p - p): 1}, {(p - 1, star): 1}),
        zmul({(1, p): 1, (p, 1): -1}, tail),
    )
    assert zreduce(rhs4, p) == zreduce(d1, p)


@pytest.mark.parametrize("p", [3, 5])
def test_verify_formules_passes(p):
    rep = poly2.verify_formules(p)
    assert rep.status == "pass"
    assert len(rep.checks) == 6


def test_verify_formules_rejects_p2():
    with pytest.raises(ValueError):
        poly2.verify_formules(2)


def _table_at(table, d, b):
    # the degree-d normal-form table cut from a table of higher degree, for a
    # generator with leading term x^a y^b: entries up to d - b are the same,
    # the rest are unit vectors (the lemma of lex_normal_forms)
    keep = max(0, d - b + 1)
    return table[:keep] + [{i: 1} for i in range(keep, d + 1)]


@pytest.mark.parametrize("p", [3, 5, 7])
def test_formules_items_5_6_match_slice_oracle(p):
    # every monomial of every degree the items visit, not only the ones they
    # check, so that failing memberships are compared too; the verdicts are
    # read from one table per r at degree 2 p^2, as verify_formules reads them
    dl = poly2.delta(p)
    cap = 2 * p * p
    seen = set()
    ideal = GradedIdeal(p, [dl])
    t1 = poly2.lex_normal_forms(dl, cap)
    for d in range(p + 1, cap + 1):
        nfs = _table_at(t1, d, 1)
        for i in range(d + 1):
            b = (i - 1) % (p - 1) + 1
            f = Poly2.monomial(p, 1, i, d - i) - Poly2.monomial(p, 1, b, d - b)
            verdict = nfs[i] == nfs[b]
            assert verdict == ideal.member(f), (d, i)
            seen.add(verdict)
    for r in range(1, p - 1):
        gr = dl**r
        ideal_r = GradedIdeal(p, [gr])
        tr = poly2.lex_normal_forms(gr, cap)
        for d in range(r * p + r, cap + 1):
            units, targets = range(r * p), range(d + 1)
            nfs = _table_at(tr, d, r)
            verdicts = [all(s < r * p for s in nfs[i]) for i in targets]
            assert verdicts == slice_span_verdicts(ideal_r, d, units, targets), (r, d)
            seen.update(verdicts)
    assert seen == {True, False}


def test_normal_forms_match_slice_oracle_on_random_forms():
    rng = random.Random(6)
    seen = set()
    for _ in range(60):
        p = rng.choice(PRIMES)
        k = rng.randrange(1, 7)
        a = rng.randrange(k + 1)  # the x-exponent of the leading term
        terms = {(a, k - a): rng.randrange(1, p)}
        terms.update(((u, k - u), rng.randrange(p)) for u in range(a) if rng.random() < 0.5)
        g = Poly2(p, terms)
        ideal = GradedIdeal(p, [g])
        top = k + 6
        table = poly2.lex_normal_forms(g, top)
        for d in range(top + 1):
            nfs = poly2.lex_normal_forms(g, d)
            assert nfs == _table_at(table, d, k - a), (g, d)
            for i, nf in enumerate(nfs):
                # congruent to its monomial and supported on standard monomials
                assert all(s < a or s > d - (k - a) for s in nf)
                rest = Poly2(p, {(s, d - s): c for s, c in nf.items()})
                assert ideal.member(Poly2.monomial(p, 1, i, d - i) - rest)
            # a random form of degree d, half the time a multiple of g, lies in
            # the ideal exactly when its normal form is zero
            f = Poly2(p, {(i, d - i): rng.randrange(p) for i in range(d + 1)})
            if d >= k and rng.random() < 0.5:
                f = g * Poly2(p, {(i, d - k - i): rng.randrange(p) for i in range(d - k + 1)})
            total: dict[int, int] = {}
            for (i, _), c in f.terms.items():
                for s, w in nfs[i].items():
                    total[s] = (total.get(s, 0) + c * w) % p
            verdict = ideal.member(f)
            assert verdict == (not any(total.values())), (g, f)
            seen.add(verdict)
    assert seen == {True, False}


# -- misc ----------------------------------------------------------------------


def test_homogeneous_components():
    p = 5
    f = parse_poly("x^2 + x*y + y + 3", p)
    comps = f.homogeneous_components()
    assert sorted(comps) == [0, 1, 2]
    assert comps[2] == parse_poly("x^2 + x*y", p)


def test_slice_vector_roundtrip():
    p = 7
    f = parse_poly("x^3 + 2*x*y^2 + y^3", p)
    vec = slice_vector(f, 3)
    assert vec == [1, 0, 2, 1]
    assert poly_from_slice(p, 3, vec) == f
    with pytest.raises(ValueError):
        slice_vector(parse_poly("x + y^2", p), 2)


def test_linear_form_normalization():
    lf = LinearForm(5, 2, 3)
    assert (lf.a, lf.b) == (1, 4)  # scaled by inverse of 2
    lf = LinearForm(5, 0, 2)
    assert (lf.a, lf.b) == (0, 1)
    with pytest.raises(ValueError):
        LinearForm(5, 0, 0)


def test_concurrent_power_table_growth(monkeypatch):
    # a convolve that sleeps hands the interpreter to another thread inside
    # every growth step, so growth that is not serialized appends a power
    # twice and every later entry is off by one exponent
    import math
    import time
    from concurrent.futures import ThreadPoolExecutor

    convolve = poly2._kernels.convolve

    def slow(a, b, p):
        time.sleep(0.001)
        return convolve(a, b, p)

    monkeypatch.setattr(poly2._kernels, "convolve", slow)
    p, (u, v), n = 101, (3, 7), 20  # a form no other test grows
    with ThreadPoolExecutor(max_workers=8) as pool:
        list(pool.map(lambda m: poly2.form_powers(p, (u, v), m), [n] * 8))
    table = poly2.form_powers(p, (u, v), n)
    assert len(table) == n + 1
    for e, row in enumerate(table):
        assert row == tuple(math.comb(e, k) * u ** (e - k) * v**k % p for k in range(e + 1))
