"""Acceptance suite: one test per criterion, each printing a pass line.

Every comparison is exact (these are finite objects over F_p); the stated
runtime budgets are asserted where the criterion fixes one.
"""

import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

from modinv import cli, poly2
from modinv.demazure import generalized_ideal, verify_operadorsD
from modinv.fp_arith import binomial_sum_check, divisors, primitive_root
from modinv.fp_linalg import Subspace
from modinv.graded_ideal import (
    FixingSet,
    GradedIdeal,
    basis_check,
    complete_intersection_dims,
    gamma_family,
    ideal_equal,
    invariant_slice,
    omega_family,
)
from modinv.grp2 import (
    Mat2,
    Reflection,
    catalog_generators,
    catalog_group,
    classify,
    generate_closure,
    omega,
    omega_prime,
)
from modinv.poly2 import Poly2, slice_vector, verify_formules
from modinv.stable_chain import compute_J1, stable_chain, verify_basedos
from modinv.verify import run_verification
from oracles import brute_force_is_gen_inv, contains_all


def _announce(number, name, started):
    print(f"ACCEPTANCE {number:>2} ({name}): PASS in {time.perf_counter() - started:.2f}s")


def _ideal(p, *gens):
    return GradedIdeal(p, list(gens))


def test_criterion_01_stable_chain_of_U_groups():
    started = time.perf_counter()
    for p in (2, 3, 5, 7):
        for r in divisors(p - 1):
            for s in divisors(p - 1):
                res = stable_chain(catalog_group("U", p, r, s))
                j1_expected = _ideal(p, poly2.power(p, "x", r), poly2.power(p, "y", s * p))
                assert ideal_equal(res.ideals[0], j1_expected)
                assert res.stabilization_index == (2 if r == 1 else 1)
                if r == 1:
                    stable_expected = _ideal(
                        p, poly2.power(p, "x", 1), poly2.power(p, "y", s)
                    )
                    assert ideal_equal(res.stable_ideal, stable_expected)
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"budget 5s exceeded: {elapsed:.2f}s"
    _announce(1, "stableU", started)


def test_criterion_02_stable_chain_of_L_groups():
    started = time.perf_counter()
    for p in (3, 5, 7):
        for r in divisors(p - 1):
            res = stable_chain(catalog_group("L", p, r))
            if r > 1:
                assert res.stabilization_index == 1
                assert ideal_equal(
                    res.stable_ideal, _ideal(p, poly2.d1(p), poly2.delta(p) ** r)
                )
            else:
                assert res.stabilization_index == 2
                expected = _ideal(
                    p,
                    poly2.d1(p),
                    poly2.delta(p),
                    poly2.gamma(p, 2),
                    Poly2.monomial(p, 1, p - 1, 2 * p - 2),
                )
                assert ideal_equal(res.stable_ideal, expected)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"budget 60s exceeded: {elapsed:.2f}s"
    _announce(2, "stableL", started)


def test_criterion_03_new_invariant_classes():
    started = time.perf_counter()
    for p in (3, 5, 7):
        for r in divisors(p - 1):
            group = catalog_group("L", p, r)
            j1 = compute_J1(group)
            _, top = j1.quotient_dims()
            expected: dict[int, list[Poly2]] = {}
            if r == 1:
                for i in range(2, p):
                    expected.setdefault(i * (p - 1), []).append(poly2.gamma(p, i))
                expected.setdefault(p * p - 1, []).append(
                    Poly2.monomial(p, 1, p - 1, p * p - p)
                )
            for d in range(1, top + 1):
                got = invariant_slice(FixingSet(p, group.generators), d, j1.slice(d))
                rows = [j1.slice(d).reduce(slice_vector(f, d)) for f in expected.get(d, [])]
                assert got == Subspace.span(p, d + 1, rows)
    _announce(3, "calculinvest", started)


def test_criterion_04_second_quotient_presentation():
    started = time.perf_counter()
    for p in (3, 5):
        rep = verify_basedos(p)
        assert rep.status == "pass", rep.failures()
        if p == 3:
            assert any(
                c.name == "item1b_three_generators_suffice_at_p3" and c.status == "pass"
                for c in rep.checks
            )
    _announce(4, "basedos", started)


def test_criterion_05_generalized_invariants_L():
    started = time.perf_counter()
    for p in (2, 3, 5):
        sets = [[Reflection(omega(p)), Reflection(omega_prime(p))]]
        rs = [1]
        for r in divisors(p - 1):
            sets.append(catalog_generators("L", p, r))
            rs.append(r)
        for r, refl in zip(rs, sets):
            res = generalized_ideal(refl)
            assert res.regular_sequence
            assert len(res.generators) == 2
            assert sorted(res.generator_degrees) == sorted([r * (p + 1), p * p - p])
            assert ideal_equal(res.ideal, _ideal(p, poly2.d1(p), poly2.delta(p) ** r))
    _announce(5, "genL", started)


def test_criterion_06_generalized_invariants_U():
    started = time.perf_counter()
    for p in (3, 5):
        z = primitive_root(p)
        for r in divisors(p - 1):
            for s in divisors(p - 1):
                # an order-p reflection present: the catalog set
                res = generalized_ideal(catalog_generators("U", p, r, s))
                expected = _ideal(p, poly2.power(p, "x", r), poly2.power(p, "y", s * p))
                assert ideal_equal(res.ideal, expected)
        for s in divisors(p - 1):
            if s == 1:
                continue
            # diagonalizable generators of U(1, s): no order-p element
            b = pow(z, (p - 1) // s, p)
            res = generalized_ideal([Mat2(p, 1, 1, 0, b), Mat2(p, 1, 0, 0, b)])
            assert ideal_equal(
                res.ideal, _ideal(p, poly2.power(p, "x", 1), poly2.power(p, "y", s))
            )
    _announce(6, "genU", started)


def test_criterion_07_binomial_sums():
    started = time.perf_counter()
    for p in (2, 3, 5, 7, 11, 13):
        for i in range(p):
            for k in range(1, p):
                assert binomial_sum_check(p, i, k) == pow(-1, i, p)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"budget 1s exceeded: {elapsed:.2f}s"
    _announce(7, "lemabinomial", started)


def test_criterion_08_polynomial_identities():
    started = time.perf_counter()
    for p in (3, 5, 7, 11, 13):
        rep = verify_formules(p)
        assert rep.status == "pass", rep.failures()
        assert len(rep.checks) == 6
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"budget 10s exceeded: {elapsed:.2f}s"
    _announce(8, "formules", started)


def test_criterion_09_coinvariant_bases():
    started = time.perf_counter()
    for p in (2, 3, 5, 7):
        for r in divisors(p - 1):
            group = catalog_group("L", p, r)
            j1 = compute_J1(group)
            rep = basis_check(omega_family(p, r), j1)
            assert rep.status == "pass", rep.failures()
            dims, top = j1.quotient_dims()
            assert sum(dims) == group.order
            assert top == (r * p - 1) + (p * p - p + r - 1)
            for s in divisors(p - 1):
                groupu = catalog_group("U", p, r, s)
                j1u = compute_J1(groupu)
                rep = basis_check(gamma_family(p, r, s), j1u)
                assert rep.status == "pass", rep.failures()
                dims, top = j1u.quotient_dims()
                assert sum(dims) == groupu.order
                assert top == (r - 1) + (p * s - 1)
    _announce(9, "baseL/baseU", started)


def test_criterion_10_operator_identities():
    started = time.perf_counter()
    for p in (3, 5, 7):
        rep = verify_operadorsD(p)
        assert rep.status == "pass", rep.failures()
        item7 = next(c for c in rep.checks if c.name == "item7_nonvanishing_chain")
        assert item7.status == "pass"
    rep2 = verify_operadorsD(2)
    assert any(
        c.name == "item3_iterate_x_i_plus_1" and c.status == "skipped" for c in rep2.checks
    )
    _announce(10, "operadorsD", started)


def test_criterion_11_exhaustive_classification():
    started = time.perf_counter()
    for p in (2, 3):
        (rep,) = run_verification([p], ["grups"])
        assert rep.status == "pass", rep.failures()
        exhaustive = next(c for c in rep.checks if c.name == "exhaustive_reflection_subsets")
        assert exhaustive.status == "pass"
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0, f"budget 120s exceeded: {elapsed:.2f}s"
    _announce(11, "grups", started)


def test_criterion_12_oracle_agreement():
    started = time.perf_counter()
    p = 3
    rng = random.Random(2024)
    sets = [
        [Reflection(omega(p)), Reflection(omega_prime(p))],
        [Reflection(omega_prime(p))],
    ]
    for refl in sets:
        res = generalized_ideal(refl)
        for _ in range(100):
            d = rng.randrange(1, 7)
            f = Poly2(p, {(d - j, j): rng.randrange(p) for j in range(d + 1)})
            if f.is_zero():
                continue
            dp_member = res.ideal.slice(d).contains(slice_vector(f, d))
            assert brute_force_is_gen_inv(refl, f) == dp_member
    _announce(12, "oracle agreement", started)


def test_criterion_13_property_suites():
    # compact bundle of the per-module algebraic properties; the full
    # versions live in the module test files and run in the same session
    started = time.perf_counter()
    rng = random.Random(5)

    # twisted Leibniz at p in {2, 3, 5}
    from modinv.demazure import delta as apply_op

    for p in (2, 3, 5):
        ops = list(catalog_generators("L", p, 1))
        for _ in range(50):
            f = Poly2(p, {(rng.randrange(4), rng.randrange(4)): rng.randrange(1, p)})
            g = Poly2(p, {(rng.randrange(4), rng.randrange(4)): rng.randrange(1, p)})
            op = rng.choice(ops)
            assert apply_op(op, f * g) == apply_op(op, f) * g + poly2.act(
                op.matrix, f
            ) * apply_op(op, g)

    # action composition at p in {2, 3, 5, 7}
    for p in (2, 3, 5, 7):
        for _ in range(50):
            while True:
                a, b, c, d = (rng.randrange(p) for _ in range(4))
                if (a * d - b * c) % p:
                    break
            m1 = Mat2(p, a, b, c, d)
            m2 = rng.choice([omega(p), omega_prime(p)])
            f = Poly2(p, {(rng.randrange(4), rng.randrange(4)): rng.randrange(1, p)})
            assert poly2.act(m1, poly2.act(m2, f)) == poly2.act(m1 * m2, f)

    for p in (2, 3, 5):
        for r in divisors(p - 1):
            group = catalog_group("L", p, r)
            refl = catalog_generators("L", p, r)
            j1 = compute_J1(group)
            res = stable_chain(group)
            gi = generalized_ideal(refl)
            dims, top = j1.quotient_dims()
            # sandwich between ordinary and stable invariants
            for d in range(top + 2):
                assert contains_all(gi.ideal.slice(d), j1.slice(d))
                assert contains_all(res.stable_ideal.slice(d), gi.ideal.slice(d))
            # chain monotonicity
            for a, b in zip(res.ideals, res.ideals[1:]):
                for d in range(top + 2):
                    assert contains_all(b.slice(d), a.slice(d))
            # duality palindrome and the product formula for the dimensions
            assert dims == dims[::-1]
            assert dims == complete_intersection_dims(p * p - p, r * (p + 1))
    _announce(13, "property suites", started)


def test_criterion_14_classification_at_p31():
    # a conjugated U(30,1) and <omega, omega'> = L(1); GL_2(F_31) itself is
    # left out, its 887 040 elements make the closure the cost
    started = time.perf_counter()
    p = 31
    rng = random.Random(31)
    while True:
        entries = [rng.randrange(p) for _ in range(4)]
        if (entries[0] * entries[3] - entries[1] * entries[2]) % p:
            break
    u = Mat2(p, *entries)
    moved = [u.inv() * refl.matrix * u for refl in catalog_generators("U", p, 30, 1)]
    cases = (
        (moved, ("U", 30, 1), catalog_group("U", p, 30, 1)),
        ([omega(p), omega_prime(p)], ("L", 1, None), catalog_group("L", p, 1)),
    )
    for gens, want, target in cases:
        group = generate_closure(gens)
        tag = classify(group)
        assert (tag.kind, tag.r, tag.s) == want
        assert group.conjugate(tag.conjugator) == target
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"budget 5s exceeded: {elapsed:.2f}s"
    _announce(14, "classify at p = 31", started)


def test_criterion_15_generalized_invariants_at_p11():
    # genL and genU past p <= 7: L(1) and U(10, 10) at p = 11
    started = time.perf_counter()
    p = 11
    cases = (
        (catalog_generators("L", p, 1), [12, 110], _ideal(p, poly2.d1(p), poly2.delta(p))),
        (
            catalog_generators("U", p, 10, 10),
            [10, 110],
            _ideal(p, poly2.power(p, "x", 10), poly2.power(p, "y", 110)),
        ),
    )
    for refl, degrees, expected in cases:
        res = generalized_ideal(refl)
        assert sorted(res.generator_degrees) == degrees
        assert res.regular_sequence
        assert ideal_equal(res.ideal, expected)
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"budget 10s exceeded: {elapsed:.2f}s"
    _announce(15, "genL/genU at p = 11", started)


_MEMORY_PROBE = """
import resource
from modinv.demazure import generalized_ideal
from modinv.grp2 import catalog_generators

print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
for refl in (catalog_generators("L", 11, 1), catalog_generators("U", 11, 10, 10)):
    generalized_ideal(refl)
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def test_criterion_16_generalized_invariants_at_p11_memory():
    # a fresh interpreter computes criterion 15's ideals; its peak resident
    # size may grow by at most 10 MB past the import (ru_maxrss is in KiB).
    # Linux carries the peak of the process that execs into a program over
    # to it, so a small interpreter starts the probe, not this process.
    started = time.perf_counter()
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    launcher = "import subprocess, sys; subprocess.run([sys.executable, '-c', sys.argv[1]], check=True)"
    out = subprocess.run(
        [sys.executable, "-c", launcher, _MEMORY_PROBE],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    ).stdout.split()
    after_import, at_end = (int(x) for x in out)
    growth_mb = (at_end - after_import) / 1024
    assert growth_mb <= 10.0, f"peak RSS grew by {growth_mb:.1f} MB past the import"
    _announce(16, "genL/genU at p = 11 memory", started)


def test_criterion_17_verify_all_at_p11(capsys):
    # `modinv verify --prime 11 --theorem all --format json` gives the
    # golden output, elapsed_ms zeroed, within a 30 s floor
    started = time.perf_counter()
    argv = ["verify", "--prime", "11", "--theorem", "all", "--format", "json"]
    assert cli.cli_main(argv) == 0
    out = re.sub(r'"elapsed_ms": [0-9.e+-]+', '"elapsed_ms": 0.0', capsys.readouterr().out)
    assert out == (Path(__file__).parent / "golden" / "verify_p11_all.json").read_text()
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"budget 30s exceeded: {elapsed:.2f}s"
    _announce(17, "verify --prime 11", started)
