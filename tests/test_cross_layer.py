"""Randomized cross-layer consistency: random reflection sets must give
coherent answers through the group, ideal, and operator layers at once."""

import random

import pytest

from modinv import demazure, fp_linalg, graded_ideal
from modinv.demazure import generalized_ideal
from modinv.fp_arith import divisors
from modinv.graded_ideal import ideal_equal
from modinv.grp2 import all_reflections, catalog_generators, catalog_group, classify, generate_closure
from modinv.poly2 import Poly2, slice_vector
from modinv.stable_chain import compute_J1, stable_chain
from oracles import brute_force_is_gen_inv, contains_all, dense_shift, dense_sum, full_reduce_preimage


@pytest.mark.parametrize("p", [2, 3, 5])
def test_random_reflection_sets_are_consistent(p):
    rng = random.Random(123 + p)
    refs = all_reflections(p)
    for _ in range(25):
        subset = rng.sample(refs, rng.randrange(1, 4))
        group = generate_closure(subset)
        res = generalized_ideal(subset)
        assert res.regular_sequence and len(res.generators) == 2
        j1 = compute_J1(group)
        chain = stable_chain(group)
        _, top = j1.quotient_dims()
        for d in range(top + 2):
            assert contains_all(res.ideal.slice(d), j1.slice(d))
            assert contains_all(chain.stable_ideal.slice(d), res.ideal.slice(d))
        tag = classify(group)
        if group.order % p == 0:
            assert tag.kind in ("L", "U")
        else:
            assert tag.kind == "prime_to_p"
            assert chain.stabilization_index == 1
            assert ideal_equal(res.ideal, j1)
        for _ in range(2):
            d = rng.randrange(1, 5)
            f = Poly2(p, {(d - j, j): rng.randrange(p) for j in range(d + 1)})
            if f.is_zero():
                continue
            member = res.ideal.slice(d).contains(slice_vector(f, d))
            assert brute_force_is_gen_inv(subset, f) == member


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_catalog_slices_and_levels_match_dense_oracles(monkeypatch, p):
    # every shift, sum and preimage that builds a slice of J_1, of the
    # stable chain or of a generalized level of a catalog group, checked
    # against the dense RREF and full-reduction oracles as it is made
    Subspace = fp_linalg.Subspace
    sum_, shift, real_preimage = Subspace.sum, Subspace.shift, fp_linalg.preimage
    seen = {"sum": 0, "shift": 0, "preimage": 0}

    def checked_sum(a, b):
        got = sum_(a, b)
        assert got == dense_sum(a, b)
        seen["sum"] += 1
        return got

    def checked_shift(a):
        got = shift(a)
        assert got == dense_shift(a)
        seen["shift"] += 1
        return got

    def checked_preimage(p, ncols, coords, maps, modulo):
        # maps may be lazy: read it once, for both
        args = (p, ncols, coords, list(maps), modulo)
        got = real_preimage(*args)
        assert got == full_reduce_preimage(*args)
        seen["preimage"] += 1
        return got

    monkeypatch.setattr(Subspace, "sum", checked_sum)
    monkeypatch.setattr(Subspace, "shift", checked_shift)
    monkeypatch.setattr(graded_ideal, "preimage", checked_preimage)
    monkeypatch.setattr(demazure, "preimage", checked_preimage)
    catalog = [("L", r, None) for r in divisors(p - 1)]
    catalog += [("U", r, s) for r in divisors(p - 1) for s in divisors(p - 1)]
    for kind, r, s in catalog:
        chain = stable_chain(catalog_group(kind, p, r, s))
        gen = generalized_ideal(catalog_generators(kind, p, r, s))
        for ideal in chain.ideals + [gen.ideal]:
            ideal.quotient_dims()
    assert all(seen.values()), seen
