"""The increasing chain of invariant ideals of a matrix group.

J_1 is generated by all positive-degree invariant polynomials; each later
ideal adds canonical lifts of the positive-degree invariant classes of the
previous quotient. The chain is computed slice-exactly (no generator
degree bound is ever assumed) and stabilization is declared on the first
step that finds no new invariant class, which is exact: the next quotient
then equals the current one. Every ideal of the chain is G-stable, and
J_1 searches for invariants only in the degrees where P_1 times its slice
below leaves a G-fixed class (``compute_J1``).
"""

from __future__ import annotations

from dataclasses import dataclass

from modinv.fp_arith import check_prime
from modinv.fp_linalg import Subspace
from modinv.graded_ideal import (
    FixingSet,
    GradedIdeal,
    basis_check,
    ideal_equal,
    invariant_slice,
    theta_family,
)
from modinv.grp2 import MatrixGroup, catalog_group
from modinv.poly2 import Poly2, d1, delta, gamma, poly_from_slice


MAX_ITERATIONS = 10  # chain steps before stable_chain refuses


class MaxIterationsError(RuntimeError):
    pass


@dataclass
class StableChainResult:
    """The chain J_1, ..., J_k with k the stabilization index and, per
    step, the canonical lifts of the new invariant classes that were found
    (the last entry is the empty list that witnessed stabilization)."""

    group: MatrixGroup
    ideals: list[GradedIdeal]
    stabilization_index: int
    new_invariants: list[list[Poly2]]

    @property
    def stable_ideal(self) -> GradedIdeal:
        return self.ideals[-1]


def fixing_set(group: MatrixGroup) -> FixingSet:
    """The generators and the diagonal elements of the group, as one
    ``FixingSet``: they fix the same polynomials as the generators alone,
    and the diagonal ones become one table of fixed exponent residues,
    built once per call. The code ((a*p + b)*p + c)*p + d has b = c = 0
    iff it is below p mod p^3, so only the diagonal codes are decoded."""
    p = group.p
    ppp = p * p * p
    diagonals = [(code // ppp, code % p) for code in group.codes if code % ppp < p]
    return FixingSet(p, group.generators, diagonals)


def compute_J1(group: MatrixGroup) -> GradedIdeal:
    """The ideal generated by the positive-degree invariants of the group,
    represented through its exact degree slices.

    The slice source searches for invariants only in the degrees e where
    one can be new. J_1 is generated by invariants, so J_1(e-1) and W =
    P_1 * J_1(e-1), the ``shifted`` argument, are G-stable, and an
    invariant f outside W has a nonzero G-fixed class f + W in P_e/W:
    g f - f = 0 for every g. The source first asks for the fixed classes
    of P_e/W, one ``invariant_slice`` over W's free columns; only if there
    are some does it run the full search of the invariants of P_e. The
    source is called with J_1's own slices only: an extension
    (``with_extra_generators``, as in ``next_ideal``) adds what it added,
    degree by degree, and does not call it."""
    p = group.p
    fixing = fixing_set(group)

    def source(e: int, below: Subspace, shifted: Subspace) -> Subspace:
        if invariant_slice(fixing, e, shifted).is_zero:
            return Subspace.zero(p, e + 1)
        return invariant_slice(fixing, e)

    return GradedIdeal(p, [], slice_source=source)


def next_ideal(ideal: GradedIdeal, group: MatrixGroup) -> tuple[GradedIdeal, list[Poly2]]:
    """Adjoin the invariant classes of P/ideal.

    Returns the enlarged ideal and the canonical lifts of a basis of the
    invariant classes in each degree (empty exactly when the ideal is
    stable). Requires the quotient to be finite-dimensional.
    """
    p = ideal.p
    top = ideal.top_degree()
    fixing = fixing_set(group)
    new: list[Poly2] = []
    for d in range(1, top + 1):
        fixed = invariant_slice(fixing, d, ideal.slice(d))
        for v in fixed.rows:
            new.append(poly_from_slice(p, d, v))
    if not new:
        return ideal, []
    return ideal.with_extra_generators(new), new


def stable_chain(group: MatrixGroup) -> StableChainResult:
    """Iterate the chain until no new invariant classes appear, refusing
    after MAX_ITERATIONS steps."""
    current = compute_J1(group)
    ideals = [current]
    found: list[list[Poly2]] = []
    for index in range(1, MAX_ITERATIONS + 1):
        nxt, new = next_ideal(current, group)
        found.append(new)
        if not new:
            return StableChainResult(
                group=group,
                ideals=ideals,
                stabilization_index=index,
                new_invariants=found,
            )
        ideals.append(nxt)
        current = nxt
    raise MaxIterationsError(f"chain did not stabilize within {MAX_ITERATIONS} iterations")


def verify_basedos(p: int):
    """Check the presentation of the quotient of the rank-one coinvariant
    algebra by its positive-degree invariant classes: the reduced
    generating set, the explicit monomial basis, and the absence of
    invariants. Skipped at p = 2, where the invariant class list is the
    fundamental class alone and the statement degenerates."""
    from modinv.report import Check, timed_report

    check_prime(p)
    with timed_report(p, "basedos") as rep:
        if p == 2:
            rep.add(Check.skip("all_items", "the quotient presentation presupposes p > 2"))
            return rep

        mu = Poly2.monomial(p, 1, p - 1, p * p - p)
        gens_full = [d1(p), delta(p), mu] + [gamma(p, i) for i in range(2, p)]
        ideal_full = GradedIdeal(p, gens_full)
        reduced = [
            d1(p),
            delta(p),
            gamma(p, 2),
            Poly2.monomial(p, 1, p - 1, 2 * p - 2),
        ]
        ideal_reduced = GradedIdeal(p, reduced)
        rep.add(Check.boolean("item1_reduced_generating_set", ideal_equal(ideal_full, ideal_reduced)))

        theta_rep = basis_check(theta_family(p), ideal_reduced)
        rep.add(
            Check.boolean(
                "item2_theta_is_a_basis",
                theta_rep.ok and theta_rep.status == "pass",
                got="; ".join(f"{c.name}={c.status}" for c in theta_rep.checks),
            )
        )

        no_invariants = not next_ideal(ideal_reduced, catalog_group("L", p, 1))[1]
        rep.add(Check.boolean("item3_no_invariant_classes", no_invariants))

        if p == 3:
            three_gen = GradedIdeal(p, [d1(p), delta(p), gamma(p, 2)])
            rep.add(
                Check.boolean(
                    "item1b_three_generators_suffice_at_p3",
                    ideal_equal(ideal_reduced, three_gen),
                )
            )
    return rep
