"""Difference operators, generalized invariants, and the chain oracle."""

import itertools
import random

import pytest

from modinv import poly2
from modinv.demazure import (
    chain,
    delta,
    delta_slice_rows,
    generalized_ideal,
    verify_operadorsD,
)
from modinv.fp_arith import divisors
from modinv.graded_ideal import GradedIdeal, ideal_equal, minimal_generators
from modinv.grp2 import (
    CapExceededError,
    Mat2,
    Reflection,
    all_reflections,
    catalog_generators,
    catalog_group,
    diag,
    generate_closure,
    omega,
    omega_prime,
)
from modinv.poly2 import Poly2, act_matrix
from modinv.stable_chain import compute_J1, stable_chain
from oracles import (
    BudgetExceededError,
    brute_force_is_gen_inv,
    contains_all,
    full_preimage_levels,
    parse_poly,
    power_product_rows,
    substitution_delta_rows,
)


def _omega_ops(p):
    return Reflection(omega(p)), Reflection(omega_prime(p))


def random_homogeneous(rng, p, d):
    return Poly2(p, {(d - j, j): rng.randrange(p) for j in range(d + 1)})


def test_delta_basic_values():
    for p in [2, 3, 5]:
        dop, _ = _omega_ops(p)
        assert delta(dop, poly2.x_var(p)) == Poly2.const(p, 1)
        for k in range(1, 4):
            assert delta(dop, poly2.power(p, "y", k)).is_zero()


@pytest.mark.parametrize("p", [3, 5, 7])
def test_delta_iterated_factorial(p):
    dop, _ = _omega_ops(p)
    fact = 1
    for i in range(p):
        if i:
            fact = fact * i % p
        f = poly2.power(p, "x", i)
        for _ in range(i):
            f = delta(dop, f)
        assert f == Poly2.const(p, fact)


def test_delta_drops_degree():
    rng = random.Random(3)
    p = 5
    dop, _ = _omega_ops(p)
    for d in range(1, 6):
        f = random_homogeneous(rng, p, d)
        g = delta(dop, f)
        assert g.is_zero() or g.degree() == d - 1


def test_chain_on_overlong_sequence_vanishes():
    p = 3
    dop, dbar = _omega_ops(p)
    f = parse_poly("x^2 + x*y", p)
    assert chain([dop, dbar, dop], f).is_zero()


@pytest.mark.parametrize("p", [3, 5, 7])
def test_gamma2_image_and_nonvanishing_chain(p):
    dop, dbar = _omega_ops(p)
    fact = 1
    for i in range(2, p - 1):
        fact = fact * i % p
    expected = Poly2(p, {(p, 0): 1, (1, p - 1): -1}).scale(fact)
    got = poly2.gamma(p, 2)
    for _ in range(p - 2):
        got = delta(dop, got)
    assert got == expected
    full = chain([dop] + [dbar] * (p - 1) + [dop] * (p - 2), poly2.gamma(p, 2))
    assert not full.is_zero() and full.degree() == 0


def test_twisted_leibniz_rule():
    rng = random.Random(9)
    for p in [2, 3, 5]:
        reflections = list(catalog_generators("L", p, 1))
        for r in divisors(p - 1):
            for s in divisors(p - 1):
                reflections += catalog_generators("U", p, r, s)
        ops = list({r.matrix: r for r in reflections}.values())
        for _ in range(50):
            f = random_homogeneous(rng, p, rng.randrange(1, 7))
            g = random_homogeneous(rng, p, rng.randrange(1, 7))
            op = rng.choice(ops)
            sigma_f = poly2.act(op.matrix, f)
            lhs = delta(op, f * g)
            rhs = delta(op, f) * g + sigma_f * delta(op, g)
            assert lhs == rhs


def test_delta_kills_exactly_the_fixed_polynomials():
    rng = random.Random(15)
    p = 5
    ops = list(catalog_generators("L", p, 2))
    for _ in range(40):
        f = random_homogeneous(rng, p, rng.randrange(1, 6))
        op = rng.choice(ops)
        fixed = poly2.act(op.matrix, f) == f
        assert delta(op, f).is_zero() == fixed


def test_generalized_ideal_examples():
    p = 3
    res = generalized_ideal([Reflection(omega(p)), Reflection(omega_prime(p))])
    assert res.regular_sequence
    assert sorted(res.generator_degrees) == [4, 6]
    assert ideal_equal(res.ideal, GradedIdeal(p, [poly2.delta(p), poly2.d1(p)]))

    res = generalized_ideal([Reflection(omega_prime(p))])
    assert ideal_equal(res.ideal, GradedIdeal(p, [parse_poly("x", p), parse_poly("y^3", p)]))

    no_order_p = [Mat2(p, 1, 1, 0, 2), Mat2(p, 1, 0, 0, 2)]
    res = generalized_ideal(no_order_p)
    assert ideal_equal(res.ideal, GradedIdeal(p, [parse_poly("x", p), parse_poly("y^2", p)]))


def test_generalized_ideal_top_degree_matches_certificate():
    p = 3
    res = generalized_ideal([Reflection(omega(p)), Reflection(omega_prime(p))])
    d1_, d2_ = sorted(res.generator_degrees)
    assert res.top_degree == d1_ + d2_ - 2
    dims, top = res.ideal.quotient_dims()
    assert top == res.top_degree


def test_brute_force_examples():
    p = 3
    w, wp = Reflection(omega(p)), Reflection(omega_prime(p))
    assert brute_force_is_gen_inv([w, wp], poly2.delta(p))
    assert not brute_force_is_gen_inv([w, wp], poly2.gamma(p, 2))
    res = generalized_ideal([w, wp])
    for _, g in res.generators:
        assert brute_force_is_gen_inv([w, wp], g)


def test_brute_force_budget():
    p = 3
    w, wp = Reflection(omega(p)), Reflection(omega_prime(p))
    with pytest.raises(BudgetExceededError):
        brute_force_is_gen_inv([w, wp], poly2.d1(p), budget=3)


def test_brute_force_rejects_inhomogeneous():
    p = 3
    w, _ = _omega_ops(p)
    with pytest.raises(ValueError):
        brute_force_is_gen_inv([w], parse_poly("x + y^2", p))


def test_dp_agrees_with_brute_force_oracle():
    rng = random.Random(77)
    p = 3
    sets = [
        [Reflection(omega(p)), Reflection(omega_prime(p))],
        [Reflection(omega_prime(p))],
    ]
    for s in sets:
        res = generalized_ideal(s)
        for _ in range(30):
            d = rng.randrange(1, 7)
            f = random_homogeneous(rng, p, d)
            if f.is_zero():
                continue
            from modinv.poly2 import slice_vector

            in_ideal = res.ideal.slice(d).contains(slice_vector(f, d))
            assert brute_force_is_gen_inv(s, f) == in_ideal


@pytest.mark.parametrize("p", [2, 3, 5])
def test_sandwich_between_ordinary_and_stable(p):
    for kind, params in [("L", [(r,) for r in divisors(p - 1)])] + [
        ("U", [(r, s) for r in divisors(p - 1) for s in divisors(p - 1)])
    ]:
        for args in params:
            refl = catalog_generators(kind, p, *args)
            group = catalog_group(kind, p, *args)
            res = generalized_ideal(refl)
            j1 = compute_J1(group)
            jinf = stable_chain(group).stable_ideal
            _, top = j1.quotient_dims()
            for d in range(top + 2):
                gi_slice = res.ideal.slice(d)
                assert contains_all(gi_slice, j1.slice(d))
                assert contains_all(jinf.slice(d), gi_slice)


def _catalog_sets(p):
    sets = [catalog_generators("L", p, r) for r in divisors(p - 1)]
    sets += [catalog_generators("U", p, r, s) for r in divisors(p - 1) for s in divisors(p - 1)]
    return sets


def _check_against_full_preimage(refl):
    # the levels (read as the returned ideal's slices) and the generators
    # through the end of the scan, against the recursion over every coordinate;
    # a regular result reuses the levels, so its two generators are checked
    # to rebuild them in a fresh ideal
    res = generalized_ideal(refl)
    d1, d2 = res.generator_degrees[:2]
    levels, gens = full_preimage_levels(refl, d1 + d2)
    assert [res.ideal.slice(d) for d in range(d1 + d2 + 1)] == levels
    assert res.generators == gens
    if res.regular_sequence:
        fresh = GradedIdeal(refl[0].p, [g for _, g in res.generators])
        assert [fresh.slice(d) for d in range(d1 + d2 + 1)] == levels
    return res


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_levels_and_generators_match_full_preimage_oracle(p):
    for refl in _catalog_sets(p):
        _check_against_full_preimage(refl)


def test_levels_and_generators_match_full_preimage_oracle_on_random_sets():
    # every pair of reflections at p = 3 and seeded random pairs and triples
    # at p = 5; some of them have two minimal generators in one degree
    refls = {p: [Reflection(m) for m in all_reflections(p)] for p in (3, 5)}
    rng = random.Random(11)
    sets = [list(pair) for pair in itertools.combinations(refls[3], 2)]
    sets += [rng.sample(refls[5], rng.choice([2, 3])) for _ in range(8)]
    shared_degrees = 0
    for refl in sets:
        try:
            res = _check_against_full_preimage(refl)
        except CapExceededError:
            continue
        degrees = res.generator_degrees
        shared_degrees += len(set(degrees)) < len(degrees)
    assert shared_degrees > 0


@pytest.mark.parametrize("p", [2, 3, 5])
def test_generators_are_the_minimal_generators_of_the_ideal(p):
    # minimal_generators over the oracle's levels gives the generators of
    # the scan, in the same degrees and the same order
    for refl in _catalog_sets(p):
        res = generalized_ideal(refl)
        d1, d2 = res.generator_degrees[:2]
        levels, _ = full_preimage_levels(refl, d1 + d2)
        oracle = GradedIdeal(p, [], slice_source=lambda e, below, shifted: levels[e])
        expected = [(g.degree(), g) for g in minimal_generators(oracle)]
        assert res.generators == expected


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_delta_slice_rows_match_substitution_oracle(p):
    for m in all_reflections(p):
        op = Reflection(m)
        for d in range(31):
            assert delta_slice_rows(op, d, range(d + 1)) == substitution_delta_rows(op, d), (m, d)


def _axis_transvection_rows(rng, d):
    # every row through degree 12, then the two end rows, the middle one and
    # a seeded draw, in no particular order
    if d <= 12:
        return list(range(d + 1))
    ks = [d, 0, d // 2, rng.randrange(d + 1)]
    rng.shuffle(ks)
    return ks


@pytest.mark.parametrize("p", [11, 13])
def test_axis_transvection_rows_match_power_product_oracles(p):
    # x -> x + c y and y -> b x + y for every nonzero b and c, every degree
    # through 2 p^2: the padded powers of act_matrix and the operator rows
    # read off one power table, against the products of powers and the
    # divided (A - 1) rows
    rng = random.Random(500 + p)
    mats = [Mat2(p, 1, 0, c, 1) for c in range(1, p)] + [Mat2(p, 1, b, 0, 1) for b in range(1, p)]
    for m in mats:
        op = Reflection(m)
        for d in range(2 * p * p + 1):
            ks = _axis_transvection_rows(rng, d)
            assert act_matrix(p, m.entries, d, ks) == power_product_rows(p, m.entries, d, ks), (m, d)
            assert delta_slice_rows(op, d, ks) == substitution_delta_rows(op, d, ks), (m, d)


def _diagonal_sets(p, rng, count):
    # seeded sets holding diag(l, 1) and diag(1, m) together, alone or with a
    # transvection, a conjugated (non-diagonal, non-triangular) semisimple
    # reflection, or both
    units = range(2, p)
    out = []
    for _ in range(count):
        lam, mu = rng.choice(units), rng.choice(units)
        u, v = rng.randrange(1, p), rng.randrange(1, p)
        while u * v % p == 1:
            u, v = rng.randrange(1, p), rng.randrange(1, p)
        t = Mat2(p, 1, u, v, 1)
        conjugated = t.inv() * diag(p, rng.choice(units), 1) * t
        extra = rng.choice([[], [omega(p)], [omega_prime(p)], [conjugated], [omega(p), conjugated]])
        out.append([Reflection(m) for m in [diag(p, lam, 1), diag(p, 1, mu)] + extra])
    return out


@pytest.mark.parametrize("p", [3, 5])
def test_levels_match_full_preimage_oracle_on_sets_with_diagonals(p):
    # the diagonal reflections filter the searched coordinates and build no
    # operator rows; the levels and generators must equal the search over
    # every coordinate with every operator
    rng = random.Random(300 + p)
    sets = _diagonal_sets(p, rng, 12)
    assert any(op.matrix.b and op.matrix.c for refl in sets for op in refl)
    for refl in sets:
        _check_against_full_preimage(refl)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_diagonal_reflections_alone_give_the_monomial_ideal(p):
    # diag(l, 1) of order r and diag(1, m) of order s: a chain of deg(f)
    # operators on x^i y^j lowers i by the first operator's count and j by
    # the second's, so it kills x^i y^j iff i >= r or j >= s, and the ideal
    # is (x^r, y^s); no operator rows are built
    from modinv.fp_arith import primitive_root

    z = primitive_root(p)
    for r in divisors(p - 1):
        for s in divisors(p - 1):
            if r == 1 or s == 1:
                continue
            lam, mu = pow(z, (p - 1) // r, p), pow(z, (p - 1) // s, p)
            refl = [Reflection(diag(p, lam, 1)), Reflection(diag(p, 1, mu))]
            res = _check_against_full_preimage(refl)
            monomials = GradedIdeal(p, [poly2.power(p, "x", r), poly2.power(p, "y", s)])
            assert ideal_equal(res.ideal, monomials)
            assert res.regular_sequence and sorted(res.generator_degrees) == sorted([r, s])


@pytest.mark.parametrize("p", [3, 5])
def test_diagonalizable_sets_give_stable_invariants(p):
    # sets of diagonalizable reflections: the generalized invariants agree
    # with the stable invariants of the generated group
    from modinv.fp_arith import primitive_root

    z = primitive_root(p)
    for s in divisors(p - 1):
        if s == 1:
            continue
        b = pow(z, (p - 1) // s, p)
        gens = [Mat2(p, 1, 1, 0, b), Mat2(p, 1, 0, 0, b)]
        res = generalized_ideal(gens)
        jinf = stable_chain(generate_closure(gens)).stable_ideal
        assert ideal_equal(res.ideal, jinf)


@pytest.mark.parametrize("p", [3, 5])
def test_operator_identities_pass(p):
    rep = verify_operadorsD(p)
    assert rep.status == "pass"
    assert not rep.failures()


def test_operator_identities_p2_records_skips():
    rep = verify_operadorsD(2)
    assert rep.status == "pass"
    skipped = {c.name for c in rep.checks if c.status == "skipped"}
    assert "item3_iterate_x_i_plus_1" in skipped
    passed = {c.name for c in rep.checks if c.status == "pass"}
    assert {"item1_power_recurrence", "item2_iterate_x_i", "item4_twisted_power_rule"} <= passed


def test_generalized_ideal_cap_exceeded(monkeypatch):
    p = 3
    monkeypatch.setenv("MODINV_MAX_DEGREE", "3")
    with pytest.raises(CapExceededError):
        generalized_ideal([Reflection(omega(p)), Reflection(omega_prime(p))])


def test_prime_to_p_set_has_coinciding_ideals():
    # for a reflection set generating a group of order prime to p, the
    # generalized, ordinary, and stable invariants are all the same ideal
    p = 3
    swap = Mat2(p, 0, 1, 1, 0)
    res = generalized_ideal([swap])
    group = generate_closure([swap])
    assert group.order % p != 0
    j1 = compute_J1(group)
    chain_res = stable_chain(group)
    assert chain_res.stabilization_index == 1
    assert ideal_equal(res.ideal, j1)
    assert ideal_equal(res.ideal, chain_res.stable_ideal)
    assert ideal_equal(
        res.ideal, GradedIdeal(p, [parse_poly("x + y", p), parse_poly("x*y", p)])
    )
