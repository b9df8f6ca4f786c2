"""Catalog of verification targets with expected answers, and the runner.

Every expected answer is built from the same constructors the engine
exposes (named polynomials, catalog groups), never from hard-coded
coefficient dumps, and ideal comparisons go through ideal_equal so they
are robust to the choice of generating set.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from modinv import demazure, grp2, poly2, stable_chain
from modinv.fp_arith import binomial_sum_check, check_prime, divisors, primitive_root
from modinv.fp_linalg import Subspace
from modinv.graded_ideal import (
    GradedIdeal,
    basis_check,
    complete_intersection_dims,
    gamma_family,
    ideal_equal,
    omega_family,
)
from modinv.grp2 import Mat2, catalog_generators, catalog_group, classify, generate_closure
from modinv.poly2 import Poly2, slice_vector
from modinv.report import Check, VerificationReport, timed_report


class UnknownTargetError(ValueError):
    pass


def _ideal(p: int, *gens: Poly2) -> GradedIdeal:
    return GradedIdeal(p, list(gens))


def _xr_ysp(p: int, r: int, s: int) -> GradedIdeal:
    return _ideal(p, poly2.power(p, "x", r), poly2.power(p, "y", s * p))


def _generalized_matches(gens, expected: GradedIdeal, degrees: Optional[list[int]] = None) -> bool:
    """Whether the generalized invariant ideal of ``gens`` is a regular
    sequence ideal equal to ``expected``, with these generator degrees when
    given. Only the verdict leaves, so one result's levels are freed before
    the next search starts."""
    res = demazure.generalized_ideal(gens)
    return (
        res.regular_sequence
        and ideal_equal(res.ideal, expected)
        and (degrees is None or sorted(res.generator_degrees) == sorted(degrees))
    )


def _random_invertible(rng: random.Random, p: int) -> Mat2:
    """A uniform element of GL_2(F_p): entries drawn one by one, singular
    draws rejected."""
    while True:
        a, b, c, d = (rng.randrange(p) for _ in range(4))
        if (a * d - b * c) % p:
            return Mat2(p, a, b, c, d)


def _run_grups(p: int) -> VerificationReport:
    with timed_report(p, "grups") as rep:
        ok_orders = True
        for r in divisors(p - 1):
            if catalog_group("L", p, r).order != r * p * (p * p - 1):
                ok_orders = False
            for s in divisors(p - 1):
                if catalog_group("U", p, r, s).order != r * s * p:
                    ok_orders = False
        rep.add(Check.boolean("catalog_orders", ok_orders))

        ok_tags = True
        for r in divisors(p - 1):
            c = classify(catalog_group("L", p, r))
            if (c.kind, c.r) != ("L", r):
                ok_tags = False
            for s in divisors(p - 1):
                c = classify(catalog_group("U", p, r, s))
                if (c.kind, c.r, c.s) != ("U", r, s):
                    ok_tags = False
        rep.add(Check.boolean("catalog_groups_classify_as_themselves", ok_tags))

        rng = random.Random(11 + p)
        ok_conj = True
        for r in divisors(p - 1):
            groups = [catalog_group("L", p, r)] + [
                catalog_group("U", p, r, s) for s in divisors(p - 1)
            ]
            for g in groups:
                base = classify(g)
                for _ in range(3):
                    t = _random_invertible(rng, p)
                    moved = classify(g.conjugate(t))
                    if (moved.kind, moved.r, moved.s) != (base.kind, base.r, base.s):
                        ok_conj = False
        rep.add(Check.boolean("classification_is_conjugation_invariant", ok_conj))

        if p <= 3:
            refs = grp2.all_reflections(p)
            cache: dict[grp2.MatrixGroup, bool] = {}
            checked = 0
            ok_exhaustive = True
            for size in (1, 2, 3):
                for subset in itertools.combinations(refs, size):
                    group = generate_closure(list(subset))
                    if group.order % p:
                        continue
                    checked += 1
                    if group not in cache:
                        c = classify(group)
                        good = c.kind in ("L", "U") and c.conjugator is not None
                        if good:
                            target = (
                                catalog_group("L", p, c.r)
                                if c.kind == "L"
                                else catalog_group("U", p, c.r, c.s)
                            )
                            good = group.conjugate(c.conjugator) == target
                        cache[group] = good
                    if not cache[group]:
                        ok_exhaustive = False
            rep.add(
                Check.boolean(
                    "exhaustive_reflection_subsets",
                    ok_exhaustive,
                    got=f"{checked} modular closures over subsets of <= 3 reflections",
                )
            )
        else:
            rep.add(
                Check.skip("exhaustive_reflection_subsets", "exhaustive subset scan runs at p <= 3")
            )
    return rep


def _run_invariantsU(p: int) -> VerificationReport:
    with timed_report(p, "invariantsU") as rep:
        ok_gens = ok_simple = ok_dims = True
        for r in divisors(p - 1):
            for s in divisors(p - 1):
                j1 = stable_chain.compute_J1(catalog_group("U", p, r, s))
                via_rho = _ideal(p, poly2.power(p, "x", r), poly2.rho(p, s))
                # cache via_rho's slices through the degree of the first
                # comparison, which also covers the second
                via_rho.slice(j1.top_degree() + 1)
                if not ideal_equal(j1, via_rho):
                    ok_gens = False
                if not ideal_equal(via_rho, _xr_ysp(p, r, s)):
                    ok_simple = False
                dims, top = j1.quotient_dims()
                expected = complete_intersection_dims(r, s * p)
                if dims != expected or top != len(expected) - 1:
                    ok_dims = False
        rep.add(Check.boolean("invariant_ring_generators", ok_gens))
        rep.add(Check.boolean("second_generator_simplifies", ok_simple))
        rep.add(Check.boolean("hilbert_series_match", ok_dims))
    return rep


def _run_formules(p: int) -> VerificationReport:
    return poly2.verify_formules(p)


def _run_baseL(p: int) -> VerificationReport:
    with timed_report(p, "baseL") as rep:
        for r in divisors(p - 1):
            j1 = stable_chain.compute_J1(catalog_group("L", p, r))
            fam = omega_family(p, r)
            sub = basis_check(fam, j1)
            rep.add(
                Check.boolean(
                    f"omega_basis_r{r}",
                    sub.status == "pass",
                    got="; ".join(f"{c.name}={c.status}" for c in sub.failures()) or "all checks pass",
                )
            )
            dims, top = j1.quotient_dims()
            rep.add(
                Check.equality(
                    f"fundamental_class_degree_r{r}", (r * p - 1) + (p * p - p + r - 1), top
                )
            )
            rep.add(
                Check.boolean(
                    f"hilbert_series_r{r}",
                    dims == complete_intersection_dims(p * p - p, r * (p + 1)),
                )
            )
    return rep


def _run_baseU(p: int) -> VerificationReport:
    with timed_report(p, "baseU") as rep:
        for r in divisors(p - 1):
            for s in divisors(p - 1):
                j1 = stable_chain.compute_J1(catalog_group("U", p, r, s))
                sub = basis_check(gamma_family(p, r, s), j1)
                rep.add(
                    Check.boolean(
                        f"gamma_basis_r{r}_s{s}",
                        sub.status == "pass",
                        got="; ".join(f"{c.name}={c.status}" for c in sub.failures())
                        or "all checks pass",
                    )
                )
                dims, top = j1.quotient_dims()
                rep.add(Check.equality(f"fundamental_class_degree_r{r}_s{s}", (r - 1) + (p * s - 1), top))
                rep.add(
                    Check.boolean(
                        f"hilbert_series_r{r}_s{s}",
                        dims == complete_intersection_dims(r, s * p),
                    )
                )
    return rep


def _run_lemabinomial(p: int) -> VerificationReport:
    with timed_report(p, "lemabinomial") as rep:
        ok = True
        count = 0
        for i in range(p):
            for k in range(1, p):
                count += 1
                if binomial_sum_check(p, i, k) != pow(-1, i, p):
                    ok = False
        rep.add(Check.boolean("alternating_sum_identity", ok, got=f"{count} (i, k) pairs"))
    return rep


def _run_calculinvest(p: int) -> VerificationReport:
    with timed_report(p, "calculinvest") as rep:
        for r in divisors(p - 1):
            group = catalog_group("L", p, r)
            j1 = stable_chain.compute_J1(group)
            classes = stable_chain.next_ideal(j1, group)[1]
            if r > 1:
                rep.add(Check.boolean(f"no_invariant_classes_r{r}", not classes))
                continue
            expected: dict[int, list[Poly2]] = {}
            for i in range(2, p):
                expected.setdefault(i * (p - 1), []).append(poly2.gamma(p, i))
            mu = Poly2.monomial(p, 1, p - 1, p * p - p)
            expected.setdefault(p * p - 1, []).append(mu)
            ok = True
            for d in range(1, j1.top_degree() + 1):
                sl = j1.slice(d)
                got = [slice_vector(f, d) for f in classes if f.degree() == d]
                want = [sl.reduce(slice_vector(f, d)) for f in expected.get(d, [])]
                if Subspace.span(p, d + 1, got) != Subspace.span(p, d + 1, want):
                    ok = False
            rep.add(Check.boolean("invariant_classes_are_mu_and_gammas_r1", ok))
    return rep


def _run_basedos(p: int) -> VerificationReport:
    return stable_chain.verify_basedos(p)


def _run_stableL(p: int) -> VerificationReport:
    with timed_report(p, "stableL") as rep:
        for r in divisors(p - 1):
            res = stable_chain.stable_chain(catalog_group("L", p, r))
            j1_expected = _ideal(p, poly2.d1(p), poly2.delta(p) ** r)
            if r > 1:
                rep.add(Check.equality(f"stabilizes_at_1_r{r}", 1, res.stabilization_index))
                rep.add(
                    Check.boolean(f"stable_ideal_r{r}", ideal_equal(res.stable_ideal, j1_expected))
                )
            else:
                rep.add(Check.equality("stabilizes_at_2_r1", 2, res.stabilization_index))
                rep.add(Check.boolean("first_ideal_r1", ideal_equal(res.ideals[0], j1_expected)))
                j2_expected = _ideal(
                    p,
                    poly2.d1(p),
                    poly2.delta(p),
                    poly2.gamma(p, 2),
                    Poly2.monomial(p, 1, p - 1, 2 * p - 2),
                )
                rep.add(Check.boolean("stable_ideal_r1", ideal_equal(res.stable_ideal, j2_expected)))
    return rep


def _run_stableU(p: int) -> VerificationReport:
    with timed_report(p, "stableU") as rep:
        for r in divisors(p - 1):
            for s in divisors(p - 1):
                res = stable_chain.stable_chain(catalog_group("U", p, r, s))
                rep.add(
                    Check.boolean(
                        f"first_ideal_r{r}_s{s}", ideal_equal(res.ideals[0], _xr_ysp(p, r, s))
                    )
                )
                rep.add(
                    Check.equality(
                        f"stabilization_index_r{r}_s{s}",
                        2 if r == 1 else 1,
                        res.stabilization_index,
                    )
                )
                if r == 1:
                    stable_expected = _ideal(
                        p, poly2.power(p, "x", 1), poly2.power(p, "y", s)
                    )
                    rep.add(
                        Check.boolean(
                            f"stable_ideal_r{r}_s{s}",
                            ideal_equal(res.stable_ideal, stable_expected),
                        )
                    )
    return rep


def _run_genU(p: int) -> VerificationReport:
    with timed_report(p, "genU") as rep:
        z = primitive_root(p)
        ok_with_p = True
        for r in divisors(p - 1):
            for s in divisors(p - 1):
                if not _generalized_matches(catalog_generators("U", p, r, s), _xr_ysp(p, r, s)):
                    ok_with_p = False
        rep.add(Check.boolean("with_order_p_reflection", ok_with_p))

        if p == 2:
            rep.add(
                Check.skip(
                    "diagonalizable_reflection_sets", "needs a nontrivial diagonal part, p > 2"
                )
            )
            return rep

        ok_diag_r1 = True
        for s in divisors(p - 1):
            if s == 1:
                continue
            b = pow(z, (p - 1) // s, p)
            gens = [Mat2(p, 1, 1, 0, b), Mat2(p, 1, 0, 0, b)]
            c = classify(generate_closure(gens))
            if (c.kind, c.r, c.s) != ("U", 1, s):
                ok_diag_r1 = False
                continue
            expected = _ideal(p, poly2.power(p, "x", 1), poly2.power(p, "y", s))
            if not _generalized_matches(gens, expected):
                ok_diag_r1 = False
        rep.add(Check.boolean("diagonalizable_sets_generating_U1s", ok_diag_r1))

        ok_diag_r2 = True
        for r in divisors(p - 1):
            if r == 1:
                continue
            a = pow(z, (p - 1) // r, p)
            for s in divisors(p - 1):
                b = pow(z, (p - 1) // s, p)
                gens = [Mat2(p, a, 1, 0, 1), Mat2(p, a, 0, 0, 1)]
                if s > 1:
                    gens.append(Mat2(p, 1, 0, 0, b))
                c = classify(generate_closure(gens))
                if (c.kind, c.r, c.s) != ("U", r, s):
                    ok_diag_r2 = False
                    continue
                if not _generalized_matches(gens, _xr_ysp(p, r, s)):
                    ok_diag_r2 = False
        rep.add(Check.boolean("diagonalizable_sets_with_r_above_1", ok_diag_r2))
    return rep


def _run_genL(p: int) -> VerificationReport:
    with timed_report(p, "genL") as rep:
        verdicts = {}
        for r in divisors(p - 1):
            # two degrees given, so a match has exactly two generators
            expected = _ideal(p, poly2.d1(p), poly2.delta(p) ** r)
            verdicts[r] = _generalized_matches(
                catalog_generators("L", p, r), expected, [r * (p + 1), p * p - p]
            )
        # the r = 1 set is the two transvections (the identity diagonal is
        # dropped) and expects (d1, delta) in degrees p + 1 and p^2 - p
        rep.add(Check.boolean("two_transvections", verdicts[1]))
        for r, ok in verdicts.items():
            rep.add(Check.boolean(f"catalog_set_r{r}", ok))
    return rep


def _run_operadorsD(p: int) -> VerificationReport:
    return demazure.verify_operadorsD(p)


def _run_weyl_examples(p: int) -> VerificationReport:
    with timed_report(p, "weyl_examples") as rep:
        entries = [
            ("su3", [Mat2(p, -1, 1, 0, 1), Mat2(p, -1, 0, 0, 1)], ("U", 2, 1)),
            ("g2", [Mat2(p, 1, 1, 0, -1), Mat2(p, -1, 0, 0, 1)], ("U", 2, 2)),
            ("psu3", [Mat2(p, 1, 1, 0, -1), Mat2(p, 1, 0, 0, -1)], ("U", 1, 2)),
        ]
        for name, gens, want in entries:
            c = classify(generate_closure(gens))
            rep.add(
                Check.equality(f"{name}_classifies_as", f"U({want[1]},{want[2]})", str(c))
            )
        psu3_gens = entries[2][1]
        j1 = stable_chain.compute_J1(generate_closure(psu3_gens))
        rep.add(
            Check.boolean("psu3_ordinary_invariants", ideal_equal(j1, _xr_ysp(p, 1, 2)))
        )
        res = demazure.generalized_ideal(psu3_gens)
        expected = _ideal(p, poly2.power(p, "x", 1), poly2.power(p, "y", 2))
        rep.add(
            Check.boolean(
                "psu3_generalized_invariants_differ",
                res.regular_sequence and ideal_equal(res.ideal, expected),
            )
        )
    return rep


@dataclass(frozen=True)
class TheoremSpec:
    """A verification target: identifier, applicability, and runner."""

    identifier: str
    description: str
    runner: Callable[[int], VerificationReport]
    applicable: Callable[[int], bool] = lambda p: True
    skip_reason: str = ""


THEOREMS: dict[str, TheoremSpec] = {
    spec.identifier: spec
    for spec in [
        TheoremSpec(
            "grups",
            "every modular reflection subgroup is conjugate to a catalog group",
            _run_grups,
        ),
        TheoremSpec(
            "invariantsU",
            "invariant ring of the triangular groups is polynomial on x^r and rho^s",
            _run_invariantsU,
        ),
        TheoremSpec(
            "formules",
            "the six identities relating d1, d0 and delta",
            _run_formules,
            applicable=lambda p: p > 2,
            skip_reason="the identity set assumes p > 2",
        ),
        TheoremSpec("baseL", "the two-block monomial basis of the L-group coinvariants", _run_baseL),
        TheoremSpec("baseU", "the rectangle monomial basis of the U-group coinvariants", _run_baseU),
        TheoremSpec(
            "lemabinomial", "alternating binomial sums are (-1)^i mod p", _run_lemabinomial
        ),
        TheoremSpec(
            "calculinvest",
            "invariant classes of the rank-one coinvariant algebra",
            _run_calculinvest,
        ),
        TheoremSpec(
            "basedos",
            "presentation and basis of the second quotient at r = 1",
            _run_basedos,
        ),
        TheoremSpec("stableL", "stable invariant chain of the L groups", _run_stableL),
        TheoremSpec("stableU", "stable invariant chain of the U groups", _run_stableU),
        TheoremSpec("genU", "generalized invariants of triangular reflection sets", _run_genU),
        TheoremSpec("genL", "generalized invariants equal ordinary invariants for L", _run_genL),
        TheoremSpec("operadorsD", "the seven transvection operator identities", _run_operadorsD),
        TheoremSpec(
            "weyl_examples",
            "classification of the explicit mod-p Weyl group generator sets",
            _run_weyl_examples,
            applicable=lambda p: p == 3,
            skip_reason="explicit generator matrices are given at p = 3 only",
        ),
    ]
}

ALL_SMALL_PRIMES = (2, 3, 5, 7)


def run_verification(
    primes: Sequence[int], targets: Optional[Sequence[str]] = None
) -> list[VerificationReport]:
    """Run each (prime, target) pair, skipping inapplicable combinations
    with a recorded reason; reports come back sorted by (prime, target)."""
    for p in primes:
        check_prime(p)
    if targets is None:
        names = sorted(THEOREMS)
    else:
        names = []
        for t in targets:
            if t not in THEOREMS:
                raise UnknownTargetError(
                    f"unknown verification target {t!r}; known: {', '.join(sorted(THEOREMS))}"
                )
            names.append(t)
        names = sorted(set(names))
    reports = []
    for p in sorted(set(primes)):
        for name in names:
            spec = THEOREMS[name]
            if not spec.applicable(p):
                rep = VerificationReport(prime=p, target=name)
                rep.add(Check.skip("applicability", spec.skip_reason))
                reports.append(rep)
            else:
                reports.append(spec.runner(p))
    reports.sort(key=lambda r: (r.prime, r.target))
    return reports


def emit_report(reports: Sequence[VerificationReport], fmt: str = "text") -> str:
    """Render reports as a human-readable table or as the JSON schema
    [{prime, target, status, checks[], elapsed_ms}]."""
    if fmt == "json":
        return json.dumps([r.to_dict() for r in reports], indent=2, sort_keys=True) + "\n"
    if fmt != "text":
        raise ValueError(f"unknown format {fmt!r}")
    lines = []
    n_pass = n_fail = n_skip = 0
    for r in reports:
        status = r.status
        if status == "pass":
            n_pass += 1
        elif status == "fail":
            n_fail += 1
        else:
            n_skip += 1
        lines.append(f"[{status.upper():<7}] p={r.prime:<2} {r.target:<14} ({r.elapsed_ms:8.1f} ms)")
        for c in r.checks:
            if c.status == "fail":
                lines.append(f"    FAIL {c.name}: expected {c.expected!r}, got {c.got!r}")
            elif c.status == "skipped":
                lines.append(f"    skip {c.name}: {c.got}")
    lines.append(f"{n_pass} pass, {n_fail} fail, {n_skip} skipped")
    return "\n".join(lines) + "\n"
