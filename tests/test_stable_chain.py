"""The invariant ideal chain: first ideal, steps, stabilization."""

import pytest

from modinv import _kernels, poly2
from modinv.fp_arith import divisors
from modinv.fp_linalg import Subspace
from modinv.graded_ideal import GradedIdeal, InfiniteQuotientError, ideal_equal
from modinv.grp2 import Mat2, catalog_group, generate_closure
from modinv.poly2 import Poly2, slice_vector
from modinv.stable_chain import (
    MaxIterationsError,
    StableChainResult,
    compute_J1,
    next_ideal,
    stable_chain,
    verify_basedos,
)
from oracles import contains_all, parse_poly


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
