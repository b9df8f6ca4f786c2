"""The invariant ideal chain: first ideal, steps, stabilization."""

import random

import pytest

from modinv import _kernels, poly2
from modinv import stable_chain as stable_chain_module
from modinv.fp_arith import divisors
from modinv.fp_linalg import Subspace
from modinv.graded_ideal import GradedIdeal, InfiniteQuotientError, ideal_equal, invariant_slice
from modinv.grp2 import Mat2, all_reflections, catalog_group, generate_closure
from modinv.poly2 import Poly2, slice_vector
from modinv.stable_chain import (
    MaxIterationsError,
    StableChainResult,
    compute_J1,
    fixing_set,
    next_ideal,
    stable_chain,
    verify_basedos,
)
from oracles import contains_all, dense_shift, full_search_J1, iterated_invariant_slice, parse_poly


def ideal(p, *texts):
    return GradedIdeal(p, [parse_poly(t, p) for t in texts])


def test_compute_J1_examples():
    p = 3
    assert ideal_equal(compute_J1(catalog_group("U", p, 1, 1)), ideal(p, "x", "y^3"))
    j1_l2 = compute_J1(catalog_group("L", p, 2))
    assert ideal_equal(j1_l2, GradedIdeal(p, [poly2.d1(p), poly2.delta(p) ** 2]))
    assert ideal_equal(compute_J1(generate_closure([Mat2.identity(p)])), ideal(p, "x", "y"))


def test_compute_J1_via_rho_generators():
    # the invariant ring generators x^r, (y^p - x^{p-1} y)^s give the same ideal
    for p in [3, 5]:
        for r in divisors(p - 1):
            for s in divisors(p - 1):
                j1 = compute_J1(catalog_group("U", p, r, s))
                expected = GradedIdeal(p, [poly2.power(p, "x", r), poly2.rho(p, s)])
                assert ideal_equal(j1, expected)


def test_next_ideal_finds_new_invariant_classes():
    p = 3
    group = catalog_group("L", p, 1)
    j1 = compute_J1(group)
    j2, new = next_ideal(j1, group)
    assert sorted(f.degree() for f in new) == [4, 8]
    # the classes span gamma_2 and the fundamental class x^2 y^6 modulo J_1
    got4 = Subspace.span(p, 5, [slice_vector(f, 4) for f in new if f.degree() == 4])
    want4 = Subspace.span(
        p, 5, [j1.slice(4).reduce(slice_vector(poly2.gamma(p, 2), 4))]
    )
    assert got4 == want4
    got8 = [f for f in new if f.degree() == 8]
    assert got8 == [parse_poly("x^2*y^6", p)]


def test_next_ideal_nothing_new_for_r2():
    p = 3
    group = catalog_group("L", p, 2)
    j1 = compute_J1(group)
    j2, new = next_ideal(j1, group)
    assert new == []
    assert j2 is j1


def test_next_ideal_second_step_stabilizes():
    p = 3
    group = catalog_group("L", p, 1)
    j2, _ = next_ideal(compute_J1(group), group)
    j3, new = next_ideal(j2, group)
    assert new == []


def test_next_ideal_rejects_infinite_quotient():
    p = 3
    group = catalog_group("L", p, 1)
    with pytest.raises(InfiniteQuotientError):
        next_ideal(GradedIdeal(p, [poly2.delta(p)]), group)


def test_stable_chain_examples():
    p = 3
    res = stable_chain(catalog_group("U", p, 1, 2))
    assert res.stabilization_index == 2
    assert ideal_equal(res.ideals[0], ideal(p, "x", "y^6"))
    assert ideal_equal(res.stable_ideal, ideal(p, "x", "y^2"))

    res = stable_chain(catalog_group("U", p, 2, 2))
    assert res.stabilization_index == 1
    assert ideal_equal(res.stable_ideal, ideal(p, "x^2", "y^6"))

    res5 = stable_chain(catalog_group("L", 5, 1))
    assert res5.stabilization_index == 2
    expected = GradedIdeal(
        5, [poly2.d1(5), poly2.delta(5), poly2.gamma(5, 2), parse_poly("x^4*y^8", 5)]
    )
    assert ideal_equal(res5.stable_ideal, expected)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_chain_is_increasing_and_short(p):
    for r in divisors(p - 1):
        groups = [catalog_group("L", p, r)] + [
            catalog_group("U", p, r, s) for s in divisors(p - 1)
        ]
        for group in groups:
            res = stable_chain(group)
            assert res.stabilization_index <= 2
            _, top = res.ideals[0].quotient_dims()
            for a, b in zip(res.ideals, res.ideals[1:]):
                for d in range(top + 2):
                    assert contains_all(b.slice(d), a.slice(d))


def test_prime_to_p_group_stabilizes_immediately():
    p = 3
    swap = generate_closure([Mat2(p, 0, 1, 1, 0)])
    res = stable_chain(swap)
    assert res.stabilization_index == 1
    # its first ideal is generated by the symmetric polynomials
    assert ideal_equal(res.ideals[0], ideal(p, "x + y", "x*y"))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_fundamental_class_degrees(p):
    for r in divisors(p - 1):
        _, top = compute_J1(catalog_group("L", p, r)).quotient_dims()
        assert top == (r * p - 1) + (p * p - p + r - 1)
        for s in divisors(p - 1):
            _, top = compute_J1(catalog_group("U", p, r, s)).quotient_dims()
            assert top == (r - 1) + (p * s - 1)


def test_max_iterations_error(monkeypatch):
    p = 3
    monkeypatch.setattr("modinv.stable_chain.MAX_ITERATIONS", 1)
    with pytest.raises(MaxIterationsError):
        stable_chain(catalog_group("U", p, 1, 2))


def test_new_invariants_recorded_per_step():
    p = 3
    res = stable_chain(catalog_group("L", p, 1))
    assert isinstance(res, StableChainResult)
    assert len(res.new_invariants) == 2
    assert res.new_invariants[1] == []
    assert sorted(f.degree() for f in res.new_invariants[0]) == [4, 8]


@pytest.mark.parametrize("p", [3, 5])
def test_verify_basedos_passes(p):
    rep = verify_basedos(p)
    assert rep.status == "pass"
    names = {c.name for c in rep.checks}
    assert "item1_reduced_generating_set" in names
    if p == 3:
        assert "item1b_three_generators_suffice_at_p3" in names


def test_verify_basedos_p2_skips():
    rep = verify_basedos(2)
    assert rep.status == "skipped"


@pytest.mark.parametrize("p", [2, 3, 5])
def test_full_linear_group_invariants_are_the_dickson_pair(p):
    # at r = p-1 the second generator power equals the other Dickson
    # generator, so the first ideal is generated by the pair
    j1 = compute_J1(catalog_group("L", p, p - 1))
    assert ideal_equal(j1, GradedIdeal(p, [poly2.d1(p), poly2.d0(p)]))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_fundamental_class_monomial_survives_to_the_top(p):
    for r in divisors(p - 1):
        j1 = compute_J1(catalog_group("L", p, r))
        dims, top = j1.quotient_dims()
        assert dims[top] == 1
        mu = Poly2.monomial(p, 1, r * p - 1, p * p - p + r - 1)
        assert mu.degree() == top
        assert not j1.member(mu)
        for s in divisors(p - 1):
            j1u = compute_J1(catalog_group("U", p, r, s))
            _, topu = j1u.quotient_dims()
            muu = Poly2.monomial(p, 1, r - 1, p * s - 1)
            assert muu.degree() == topu
            assert not j1u.member(muu)


@pytest.mark.parametrize("p", [5, 7])
def test_extra_generators_start_from_the_parent_slices(p):
    ideals = stable_chain(catalog_group("L", p, 1)).ideals
    assert len(ideals) >= 2
    for parent, child in zip(ideals, ideals[1:]):
        low = min(g.degree() for g in child.generators[len(parent.generators):])
        assert all(child.slice(d) is parent.slice(d) for d in range(low))
        fresh = GradedIdeal(p, child.generators, child.slice_source)
        top = child.top_degree()
        assert fresh.top_degree() == top
        assert all(child.slice(d) == fresh.slice(d) for d in range(top + 2))


def test_shift_reduces_only_the_rows_new_since_the_slice_below(monkeypatch):
    # the shift of slice d hands its 1 + c_{d-1} - c_d rows with pivots not
    # pivots of slice d - 1 to the reduction, c_d the codimension of slice d
    # (c_{-1} = 0), not all d + 1 - c_d of its rows
    p = 7
    j1 = compute_J1(catalog_group("L", p, 1))
    handed: dict[int, int] = {}
    inside: list[int] = []
    shift, reduce_row = Subspace.shift, _kernels.reduce_row

    def counting_shift(self):
        inside.append(self.ncols - 1)
        handed[self.ncols - 1] = 0
        try:
            return shift(self)
        finally:
            inside.pop()

    def counting_reduce_row(vectors, *args):
        if inside:
            handed[inside[-1]] += len(vectors)
        return reduce_row(vectors, *args)

    monkeypatch.setattr(Subspace, "shift", counting_shift)
    monkeypatch.setattr(_kernels, "reduce_row", counting_reduce_row)
    top = j1.top_degree()
    j1.slice(top + 1)
    monkeypatch.undo()
    codim = [d + 1 - j1.slice(d).dim for d in range(top + 1)]
    expected = {d: 1 + (codim[d - 1] if d else 0) - codim[d] for d in range(top + 1)}
    assert handed == expected
    assert sum(expected.values()) == j1.slice(top).dim < sum(d + 1 - c for d, c in enumerate(codim))


def _catalog(p):
    out = [catalog_group("L", p, r) for r in divisors(p - 1)]
    return out + [catalog_group("U", p, r, s) for r in divisors(p - 1) for s in divisors(p - 1)]


def _non_invariant_form(group):
    # the first of x + y, y, x that the group moves
    p = group.p
    invariants = invariant_slice(fixing_set(group), 1)
    return next(
        (f for f in (parse_poly(t, p) for t in ("x + y", "y", "x")) if not invariants.contains(slice_vector(f, 1))),
        None,
    )


def _matches(ideal, oracle):
    # equal slices through a degree in which the oracle is generated: the
    # ideals are then equal (the slice above is full in both)
    return all(ideal.slice(d) == oracle.slice(d) for d in range(oracle.top_degree() + 2))


def _check_against_full_search(group):
    assert _matches(compute_J1(group), full_search_J1(group))
    chain = stable_chain(group)
    if len(chain.ideals) > 1:
        assert _matches(chain.ideals[1], full_search_J1(group, chain.new_invariants[0]))
    h = _non_invariant_form(group)
    if h is not None:
        assert _matches(compute_J1(group).with_extra_generators([h]), full_search_J1(group, [h]))
    return h is not None


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_j1_matches_the_full_search_oracle(p):
    # J_1, the J_2 of the chain and J_1 plus a form the group moves, for
    # the catalog groups and seeded reflection closures
    assert all(_check_against_full_search(group) for group in _catalog(p))
    if p > 2:
        rng = random.Random(60 + p)
        refs = all_reflections(p)
        for _ in range(4):
            _check_against_full_search(generate_closure(rng.sample(refs, rng.randrange(1, 3))))


def test_j1_matches_the_full_search_oracle_at_p11():
    assert _check_against_full_search(catalog_group("L", 11, 1))


def test_j1_searches_in_full_only_where_a_fixed_class_exists(monkeypatch):
    # the J_1 source runs one quotient test per degree and the full search
    # only where P_e / (P_1 * J_1(e-1)) has a fixed class, as the iterated
    # kernel oracle finds them on the dense shift of the oracle's slices
    p = 7
    group = catalog_group("L", p, 1)
    calls = []
    real = stable_chain_module.invariant_slice

    def recording(fixing, d, modulo=None):
        got = real(fixing, d, modulo)
        calls.append((d, modulo is None, got.is_zero))
        return got

    monkeypatch.setattr(stable_chain_module, "invariant_slice", recording)
    j1 = compute_J1(group)
    top = j1.top_degree()
    j1.slice(top + 1)
    monkeypatch.undo()
    tested = {d: zero for d, full, zero in calls if not full}
    searched = [d for d, full, _ in calls if full]
    assert sorted(tested) == list(range(1, top + 2))
    assert searched == [d for d in sorted(tested) if not tested[d]]
    oracle = full_search_J1(group)
    gens = list(group.generators)
    expected = [
        e
        for e in range(1, top + 2)
        if not iterated_invariant_slice(p, gens, e, dense_shift(oracle.slice(e - 1))).is_zero
    ]
    assert searched == expected
    assert 8 in searched and 42 in searched  # the invariant generator degrees p + 1, p^2 - p
    assert len(searched) < (top + 1) // 4


def test_an_extension_does_not_call_the_j1_source_with_its_own_slices(monkeypatch):
    # mutant: an extension shares the raw J_1 source, which then tests for
    # fixed classes modulo P_1 * (J_1 + (x + y))(e-1). That is not G-stable,
    # so the source skips a degree where J_1 has a new invariant, and the
    # comparison with the full search fails
    p = 3
    group = catalog_group("L", p, 1)
    h = parse_poly("x + y", p)
    assert _non_invariant_form(group) == h
    oracle = full_search_J1(group, [h])
    assert _matches(compute_J1(group).with_extra_generators([h]), oracle)

    def sharing(self, extra):
        out = GradedIdeal(self.p, list(self.generators) + list(extra), self.slice_source)
        out._slices, out._parts = self._slices[:1], self._parts[:1]
        return out

    monkeypatch.setattr(GradedIdeal, "with_extra_generators", sharing)
    assert not _matches(compute_J1(group).with_extra_generators([h]), oracle)
    with pytest.raises(AssertionError):
        _check_against_full_search(group)
