"""Ideal slices, membership, quotients, minimal generators, basis checks."""

import random

import pytest

from modinv import graded_ideal, poly2, stable_chain as chain_module, verify
from modinv.fp_arith import divisors
from modinv.fp_linalg import Subspace
from modinv.graded_ideal import (
    FixingSet,
    GradedIdeal,
    MonomialFamily,
    basis_check,
    complete_intersection_dims,
    default_degree_cap,
    gamma_family,
    ideal_equal,
    invariant_slice,
    minimal_generators,
    omega_family,
    theta_family,
)
from modinv.grp2 import Mat2, catalog_group, omega_prime
from modinv.poly2 import Poly2, slice_vector
from modinv.stable_chain import compute_J1, stable_chain
from oracles import (
    generator_ideal_equal,
    iterated_invariant_slice,
    kernel_basis_verdicts,
    parse_poly,
    span_basis_verdicts,
)


def ideal(p, *texts):
    return GradedIdeal(p, [parse_poly(t, p) for t in texts])


def test_ideal_slice_examples():
    p = 3
    i1 = ideal(p, "x", "y^6")
    s = i1.slice(2)
    assert s.dim == 2  # x^2 and x*y
    assert s.contains(slice_vector(parse_poly("x^2", p), 2))
    assert s.contains(slice_vector(parse_poly("x*y", p), 2))
    assert i1.slice(0).is_zero
    i2 = GradedIdeal(p, [poly2.d1(p), poly2.delta(p)])
    s4 = i2.slice(4)
    assert s4.dim == 1
    assert s4.contains(slice_vector(poly2.delta(p), 4))


def test_member_examples():
    p = 3
    assert not ideal(p, "x", "y^6").member(parse_poly("y^2", p))
    assert ideal(p, "x", "y^2").member(parse_poly("y^2", p))
    big = GradedIdeal(p, [poly2.d1(p), poly2.delta(p), poly2.gamma(p, 2)])
    assert big.member(parse_poly("x^2*y^4", p))


def test_member_componentwise():
    p = 5
    i = ideal(p, "x")
    assert i.member(parse_poly("x^2 + x*y", p))
    assert not i.member(parse_poly("x^2 + y", p))
    assert i.member(Poly2.zero(p))


def test_ideal_equal_examples():
    p = 3
    a = GradedIdeal(
        p, [poly2.d1(p), poly2.delta(p), poly2.gamma(p, 2), parse_poly("x^2*y^4", p)]
    )
    b = GradedIdeal(p, [poly2.d1(p), poly2.delta(p), poly2.gamma(p, 2)])
    assert ideal_equal(a, b)
    assert not ideal_equal(ideal(p, "x", "y^3"), ideal(p, "x", "y^2"))
    assert ideal_equal(a, a)


# the targets whose runners compare ideals
_COMPARING_TARGETS = ["basedos", "genL", "genU", "invariantsU", "stableL", "stableU", "weyl_examples"]


@pytest.mark.parametrize("p", [2, 3, 5])
def test_ideal_equal_matches_generator_oracle(monkeypatch, p):
    # every pair the verify runners compare, recorded through the names they
    # call, and pairs that differ only above a generation degree
    pairs = []

    def recording(a, b):
        pairs.append((a, b))
        return graded_ideal.ideal_equal(a, b)

    monkeypatch.setattr(verify, "ideal_equal", recording)
    monkeypatch.setattr(chain_module, "ideal_equal", recording)
    reports = verify.run_verification([p], _COMPARING_TARGETS)
    assert all(r.status != "fail" for r in reports)
    assert pairs
    monkeypatch.undo()

    j1, j2 = stable_chain(catalog_group("L", p, 1)).ideals
    # (x) and (x, y^5) first differ above the smaller generation degree
    pairs += [(j1, j2), (ideal(p, "x"), ideal(p, "x", "y^5"))]
    if p == 3:
        # J_1 = (delta, d1) first differs from (delta) in degree 6 = deg d1,
        # above the only generator degree of (delta)
        pairs.append((compute_J1(catalog_group("L", p, 1)), GradedIdeal(p, [poly2.delta(p)])))
    for a, b in pairs:
        assert ideal_equal(a, b) == generator_ideal_equal(a, b), (a, b)
        assert ideal_equal(b, a) == generator_ideal_equal(a, b), (b, a)


def test_quotient_dims_examples():
    p = 3
    dims, top = ideal(p, "x", "y^2").quotient_dims()
    assert dims == [1, 1] and top == 1
    dims, top = GradedIdeal(p, [poly2.d1(p), poly2.delta(p)]).quotient_dims()
    assert sum(dims) == 24 and top == 8
    assert dims == dims[::-1] and dims[0] == 1 == dims[-1]
    dims, top = GradedIdeal(p, [poly2.delta(p)]).quotient_dims()
    assert top is None


def test_minimal_generators_examples():
    p = 3
    gens = minimal_generators(ideal(p, "x", "y^2"))
    assert gens == [parse_poly("x", p), parse_poly("y^2", p)]
    j1 = compute_J1(catalog_group("L", p, 1))
    gens = minimal_generators(j1)
    assert sorted(g.degree() for g in gens) == [4, 6]
    assert ideal_equal(
        GradedIdeal(p, gens), GradedIdeal(p, [poly2.delta(p), poly2.d1(p)])
    )


def test_minimal_generators_are_scaled_to_leading_coefficient_one():
    # the degree-3 generator reduces to 4*y^3 modulo P_1 * slice(2)
    p = 5
    i = ideal(p, "4*x + 4*y", "4*x^3 + 2*x^2*y + 3*x*y^2 + 4*y^3")
    assert minimal_generators(i) == [parse_poly("x + y", p), parse_poly("y^3", p)]


def test_saturation_asserted_and_monotone():
    p = 3
    i = ideal(p, "x", "y^2")
    for d in range(1, 8):
        prev, cur = i.slice(d - 1), i.slice(d)
        for v in prev.rows:
            assert cur.contains(list(v) + [0])
            assert cur.contains([0] + list(v))
        if prev.is_full:
            assert cur.is_full


def test_invariant_slice_examples():
    p = 3
    assert invariant_slice(FixingSet(p, [omega_prime(p)]), 1).rows == ((1, 0),)  # span{x}
    l1 = catalog_group("L", p, 1)
    s = invariant_slice(FixingSet(p, l1.generators), 4)
    assert s.dim == 1
    assert s.contains(slice_vector(poly2.delta(p), 4))
    assert invariant_slice(FixingSet(p, l1.generators), 0).is_full


def test_invariant_slice_in_quotient():
    p = 3
    j1 = compute_J1(catalog_group("L", p, 1))
    fixed4 = invariant_slice(FixingSet(p, catalog_group("L", p, 1).generators), 4, j1.slice(4))
    assert fixed4.dim == 1
    # the canonical representative of the gamma_2 class
    assert fixed4.contains(j1.slice(4).reduce(slice_vector(poly2.gamma(p, 2), 4)))


def _random_invertible(rng, p, diagonal):
    while True:
        a, d = rng.randrange(1, p), rng.randrange(1, p)
        b, c = (0, 0) if diagonal else (rng.randrange(p), rng.randrange(p))
        if (a * d - b * c) % p and (diagonal or b or c):
            return Mat2(p, a, b, c, d)


def _random_form(rng, p, d):
    vec = [rng.randrange(p) for _ in range(d + 1)]
    vec[rng.randrange(d + 1)] = rng.randrange(1, p)
    return poly2.poly_from_slice(p, d, vec)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_invariant_slice_matches_iterated_oracle(p):
    # catalog groups through top(J_1) + 1, in P and modulo J_1 and J_2
    for r in divisors(p - 1):
        groups = [catalog_group("L", p, r)] + [
            catalog_group("U", p, r, s) for s in divisors(p - 1)
        ]
        for group in groups:
            gens = list(group.generators)
            ideals = stable_chain(group).ideals[:2]
            for d in range(ideals[0].top_degree() + 2):
                for modulo in [None] + [ideal.slice(d) for ideal in ideals]:
                    assert invariant_slice(FixingSet(p, gens), d, modulo) == iterated_invariant_slice(
                        p, gens, d, modulo
                    )
    # random diagonal and non-diagonal matrices, mostly not reflections, in
    # P and modulo a random two-generator ideal
    rng = random.Random(100 + p)
    for _ in range(12):
        gens = [_random_invertible(rng, p, rng.random() < 0.5) for _ in range(rng.randrange(1, 4))]
        modulo = GradedIdeal(p, [_random_form(rng, p, rng.randrange(1, 5)) for _ in range(2)])
        for d in range(9):
            for m in (None, modulo.slice(d)):
                assert invariant_slice(FixingSet(p, gens), d, m) == iterated_invariant_slice(p, gens, d, m)


def test_j1_slices_match_direct_product_span():
    # oracle: slice(d) = sum over e of (monomials of degree d-e) * invariants_e
    p = 3
    for group in [catalog_group("L", p, 1), catalog_group("U", p, 1, 2)]:
        j1 = compute_J1(group)
        _, top = j1.quotient_dims()
        for d in range(0, top + 2):
            rows = []
            for e in range(1, d + 1):
                inv = invariant_slice(FixingSet(p, group.generators), e)
                for v in inv.rows:
                    for a in range(d - e + 1):
                        b = d - e - a
                        # multiply by x^a y^b: shift the slice vector by b
                        rows.append([0] * b + list(v) + [0] * a)
            direct = Subspace.span(p, d + 1, rows)
            assert direct == j1.slice(d)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_catalog_quotients_poincare_duality_and_hilbert(p):
    for r in divisors(p - 1):
        j1 = compute_J1(catalog_group("L", p, r))
        dims, top = j1.quotient_dims()
        assert dims == dims[::-1] and dims[0] == 1 == dims[top]
        assert sum(dims) == catalog_group("L", p, r).order
        assert dims == complete_intersection_dims(p * p - p, r * (p + 1))
        for s in divisors(p - 1):
            j1u = compute_J1(catalog_group("U", p, r, s))
            dims, top = j1u.quotient_dims()
            assert dims == dims[::-1]
            assert sum(dims) == r * s * p
            assert dims == complete_intersection_dims(r, s * p)


def test_omega_family_sizes():
    fam = omega_family(3, 1)
    assert len(fam.monomials) == 24
    assert fam.expected_total == 24
    fam = omega_family(5, 2)
    assert len(fam.monomials) == 2 * 5 * 24


def test_basis_check_examples():
    p = 3
    rep = basis_check(omega_family(p, 1), GradedIdeal(p, [poly2.d1(p), poly2.delta(p)]))
    assert rep.status == "pass"
    rep = basis_check(gamma_family(p, 1, 1), ideal(p, "x", "y^3"))
    assert rep.status == "pass"
    assert gamma_family(p, 1, 1).monomials == ((0, 0), (0, 1), (0, 2))
    theta_ideal = GradedIdeal(
        p, [poly2.d1(p), poly2.delta(p), poly2.gamma(p, 2), parse_poly("x^2*y^4", p)]
    )
    rep = basis_check(theta_family(p), theta_ideal)
    assert rep.status == "pass"


def test_basis_check_detects_wrong_family():
    p = 3
    rep = basis_check(gamma_family(p, 1, 1), ideal(p, "x", "y^2"))
    assert rep.status == "fail"


def _verdicts(family, target):
    checks = {c.name: c.status == "pass" for c in basis_check(family, target).checks}
    return checks["per_degree_counts_match"], checks["images_independent_mod_ideal"]


def _made_dependent(family, target):
    """The family with one member swapped for a copy of another of the same
    degree, and with one swapped for a monomial of the same degree that
    lies in the target ideal, each where the family allows it."""
    out = []
    mono = list(family.monomials)
    by_deg = family.by_degree()
    dup = next((ms for _, ms in sorted(by_deg.items()) if len(ms) > 1), None)
    if dup:
        out.append([dup[0] if m == dup[1] else m for m in mono])
    for d, ms in sorted(by_deg.items()):
        units = [[int(k == j) for k in range(d + 1)] for j in range(d + 1)]
        inside = [(d - j, j) for j in range(d + 1) if target.slice(d).contains(units[j])]
        if inside:
            out.append([inside[0] if m == ms[0] else m for m in mono])
            break
    return [_family_like(family, m) for m in out]


def _family_like(family, monomials):
    return MonomialFamily(family.name, family.p, tuple(monomials), family.expected_total)


def _catalog_family_cases(p):
    # every catalog family with the ideal it is a basis modulo
    cases = []
    for r in divisors(p - 1):
        cases.append((omega_family(p, r), compute_J1(catalog_group("L", p, r))))
        for s in divisors(p - 1):
            cases.append((gamma_family(p, r, s), compute_J1(catalog_group("U", p, r, s))))
    if p > 2:
        reduced = [poly2.d1(p), poly2.delta(p), poly2.gamma(p, 2), Poly2.monomial(p, 1, p - 1, 2 * p - 2)]
        cases.append((theta_family(p), GradedIdeal(p, reduced)))
    return cases


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_basis_check_matches_span_oracle(p):
    for family, target in _catalog_family_cases(p):
        assert _verdicts(family, target) == span_basis_verdicts(family, target) == (True, True)
        dependent = _made_dependent(family, target)
        assert dependent
        for bad in dependent:
            assert _verdicts(bad, target) == span_basis_verdicts(bad, target) == (True, False)
    # x for y at degree 1 in U(1, 1): x lies in J_1
    j1 = compute_J1(catalog_group("U", p, 1, 1))
    fam = gamma_family(p, 1, 1)
    swapped = _family_like(fam, [(1, 0) if m == (0, 1) else m for m in fam.monomials])
    assert _verdicts(swapped, j1) == span_basis_verdicts(swapped, j1) == (True, False)
    # members at pivot columns: x and x^2 are independent modulo (x + y, y^3)
    # only through their reductions, -y and y^2
    powers = MonomialFamily("x powers", p, ((0, 0), (1, 0), (2, 0)), 3)
    shear = ideal(p, "x + y", "y^3")
    assert _verdicts(powers, shear) == span_basis_verdicts(powers, shear) == (True, True)


def _mutants(family, target):
    """Pairs (mutated family, the verdicts it must get, or None where either
    is possible): the family with one member dropped, with one member in
    place of another of the same degree, and with one member moved onto a
    pivot column of its slice, each where the family allows it."""
    mono = list(family.monomials)
    by_deg = family.by_degree()
    out = [(mono[1:], (False, True))]
    dup = next((ms for _, ms in sorted(by_deg.items()) if len(ms) > 1), None)
    if dup:
        out.append(([dup[0] if m == dup[1] else m for m in mono], (True, False)))
    for d, ms in sorted(by_deg.items()):
        pivots = target.slice(d).pivots
        if pivots:
            out.append(([(d - pivots[0], pivots[0]) if m == ms[0] else m for m in mono], None))
            break
    return [(_family_like(family, m), want) for m, want in out]


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_basis_check_matches_the_kernel_oracle(p):
    moved = 0
    for family, target in _catalog_family_cases(p):
        assert _verdicts(family, target) == kernel_basis_verdicts(family, target) == (True, True)
        for bad, want in _mutants(family, target):
            got = _verdicts(bad, target)
            assert got == kernel_basis_verdicts(bad, target)
            assert got == want or want is None
            moved += want is None
    assert moved
    # members on pivot columns, independent only through their reductions
    powers = MonomialFamily("x powers", p, ((0, 0), (1, 0), (2, 0)), 3)
    shear = ideal(p, "x + y", "y^3")
    assert _verdicts(powers, shear) == kernel_basis_verdicts(powers, shear) == (True, True)


@pytest.mark.parametrize("p", [3, 5])
def test_catalog_families_sit_on_free_columns(monkeypatch, p):
    # every member of a catalog family is a free column of its slice, so
    # basis_check decides independence without a kernel
    def no_kernel(*args):
        raise AssertionError("kernel computed")

    monkeypatch.setattr(graded_ideal, "kernel", no_kernel)
    for family, target in _catalog_family_cases(p):
        assert basis_check(family, target).status == "pass"


def test_theta_family_size():
    # p=3: 3*5 grid minus the excluded antidiagonal cell, plus {x^3}
    fam = theta_family(3)
    assert len(fam.monomials) == 15
    assert (2, 4) not in fam.monomials
    assert (3, 0) in fam.monomials


def test_generator_validation():
    p = 3
    with pytest.raises(ValueError):
        GradedIdeal(p, [parse_poly("x + y^2", p)])  # not homogeneous
    with pytest.raises(ValueError):
        GradedIdeal(p, [Poly2.zero(p)])
    with pytest.raises(ValueError):
        GradedIdeal(p, [Poly2.const(p, 1)])


def test_random_ideal_slice_monotonicity():
    rng = random.Random(12)
    for _ in range(10):
        p = rng.choice([2, 3, 5])
        gens = []
        for _ in range(rng.randrange(1, 3)):
            d = rng.randrange(1, 5)
            vec = [rng.randrange(p) for _ in range(d + 1)]
            if not any(vec):
                vec[0] = 1
            gens.append(poly2.poly_from_slice(p, d, vec))
        i = GradedIdeal(p, gens)
        for d in range(1, 9):
            prev, cur = i.slice(d - 1), i.slice(d)
            for v in prev.rows:
                assert cur.contains(list(v) + [0]) and cur.contains([0] + list(v))


def test_degree_cap_env_override(monkeypatch):
    p = 3
    i = GradedIdeal(p, [poly2.delta(p)])
    monkeypatch.setenv("MODINV_MAX_DEGREE", "6")
    dims, top = i.quotient_dims()
    assert top is None and len(dims) == 7
    monkeypatch.setenv("MODINV_MAX_DEGREE", "9")
    dims, top = i.quotient_dims()
    assert top is None and len(dims) == 10


@pytest.mark.parametrize("value", ["abc", "0", "-3", "2.5"])
def test_degree_cap_env_rejects_invalid(monkeypatch, value):
    monkeypatch.setenv("MODINV_MAX_DEGREE", value)
    with pytest.raises(ValueError, match="MODINV_MAX_DEGREE"):
        default_degree_cap(3)


def test_concurrent_slice_readers():
    from concurrent.futures import ThreadPoolExecutor

    # compared with an ideal built in one thread: a slice appended twice
    # would shift every later degree of the shared ideal
    p = 3
    gens = [poly2.d1(p), poly2.delta(p)]
    i = GradedIdeal(p, gens)
    with ThreadPoolExecutor(max_workers=8) as pool:
        dims = list(pool.map(lambda d: i.slice(d).dim, list(range(12)) * 4))
    alone = GradedIdeal(p, gens)
    assert dims == [alone.slice(d).dim for d in list(range(12)) * 4]
    assert [i.slice(d) for d in range(12)] == [alone.slice(d) for d in range(12)]


def test_concurrent_slice_readers_interleaved_by_the_source():
    # a source that sleeps hands the interpreter to another reader inside
    # every slice step, so growth that is not serialized appends a degree
    # twice here
    import time
    from concurrent.futures import ThreadPoolExecutor

    p = 3
    gens = [poly2.d1(p), poly2.delta(p)]

    def pause(e, below, shifted):
        time.sleep(0.001)
        return Subspace.zero(p, e + 1)

    i = GradedIdeal(p, gens, slice_source=pause)
    with ThreadPoolExecutor(max_workers=8) as pool:
        list(pool.map(lambda d: i.slice(d), [11] * 8 + list(range(12))))
    alone = GradedIdeal(p, gens)
    assert len(i._slices) == 12
    assert [i.slice(d) for d in range(12)] == [alone.slice(d) for d in range(12)]


@pytest.mark.parametrize("p", [2, 3, 5])
def test_invariant_ring_hilbert_structure(p):
    # per-degree invariant dimensions equal the monomial counts of a
    # polynomial algebra on the known generator degrees
    for r in divisors(p - 1):
        group = catalog_group("L", p, r)
        e1, e2 = p * p - p, r * (p + 1)
        for d in range(0, 2 * e1 + 1, max(1, (p - 1) // 2)):
            expected = sum(1 for a in range(d // e1 + 1) if (d - a * e1) % e2 == 0)
            assert invariant_slice(FixingSet(p, group.generators), d).dim == expected
        for s in divisors(p - 1):
            groupu = catalog_group("U", p, r, s)
            e1u, e2u = r, s * p
            for d in range(0, 2 * e2u + 1):
                expected = sum(1 for a in range(d // e1u + 1) if (d - a * e1u) % e2u == 0)
                assert invariant_slice(FixingSet(p, groupu.generators), d).dim == expected
