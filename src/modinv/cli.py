"""Command line interface.

Subcommands: verify (theorem checks), stable (invariant ideal chain),
gen (generalized invariants of a reflection set), classify (conjugacy
class of a matrix group), invariants (per-degree invariant bases).
Exit codes: 0 all checks pass, 1 any check fails, 2 usage error or a
computation stopped at the degree cap (4 p^2, or MODINV_MAX_DEGREE).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from modinv import demazure, stable_chain, verify
from modinv.fp_arith import check_prime
from modinv.graded_ideal import InfiniteQuotientError, invariant_slice, minimal_generators
from modinv.grp2 import (
    CapExceededError,
    catalog_group,
    classify,
    generate_closure,
    parse_matrix_list,
)
from modinv.poly2 import format_poly, poly_from_slice


class UsageError(ValueError):
    pass


def _parse_prime(text: str) -> int:
    if text == "all-small":
        raise UsageError("--prime all-small is accepted by verify only; give one prime")
    try:
        p = int(text)
    except ValueError:
        raise UsageError(f"--prime expects a prime, got {text!r}")
    try:
        check_prime(p)
    except ValueError as exc:
        raise UsageError(str(exc))
    return p


def _group_indices(spec: str, form: str, count: int) -> list[int]:
    # the positive integers after "L:" or "U:"
    try:
        values = [int(t) for t in spec[2:].split(",")]
    except ValueError:
        values = []
    if len(values) != count or min(values) < 1:
        raise UsageError(f"--group expects {form} with positive integers, got {spec!r}")
    return values


def _parse_group(spec: str, p: int):
    if spec.startswith("L:"):
        return catalog_group("L", p, *_group_indices(spec, "L:r", 1))
    if spec.startswith("U:"):
        return catalog_group("U", p, *_group_indices(spec, "U:r,s", 2))
    if spec.startswith("gens:"):
        mats = parse_matrix_list(spec[5:], p)
        if not mats:
            raise UsageError("empty generator list")
        return generate_closure(mats)
    raise UsageError(f"group spec must be L:r, U:r,s or gens:<matrices>, got {spec!r}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modinv",
        description="Exact invariant theory of rank 2 reflection groups over F_p.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("verify", help="run the theorem verification suite")
    pv.add_argument("--prime", required=True, help="a prime, or 'all-small' for 2 3 5 7")
    pv.add_argument("--theorem", default="all", help="target identifier or 'all'")
    pv.add_argument("--format", default="text", choices=["text", "json"])

    ps = sub.add_parser("stable", help="compute the stable invariant ideal chain")
    ps.add_argument("--prime", required=True)
    ps.add_argument("--group", required=True, help="L:r | U:r,s | gens:<matrix list>")

    pg = sub.add_parser("gen", help="generalized invariants of a reflection set")
    pg.add_argument("--prime", required=True)
    pg.add_argument("--reflections", required=True, help="matrices, e.g. '1,1;0,2 1,0;0,2'")

    pc = sub.add_parser("classify", help="classify a matrix group up to conjugacy")
    pc.add_argument("--prime", required=True)
    pc.add_argument("--matrices", required=True, help="generator matrices 'a,b;c,d ...'")

    pi = sub.add_parser("invariants", help="per-degree invariant bases of a group")
    pi.add_argument("--prime", required=True)
    pi.add_argument("--group", required=True, help="L:r | U:r,s | gens:<matrix list>")
    pi.add_argument("--max-degree", type=int, required=True)
    return parser


def _cmd_verify(args) -> int:
    if args.prime == "all-small":
        primes = list(verify.ALL_SMALL_PRIMES)
    else:
        primes = [_parse_prime(args.prime)]
    targets = None if args.theorem == "all" else [args.theorem]
    try:
        reports = verify.run_verification(primes, targets)
    except verify.UnknownTargetError as exc:
        raise UsageError(str(exc))
    sys.stdout.write(verify.emit_report(reports, args.format))
    return 1 if any(r.status == "fail" for r in reports) else 0


def _cmd_stable(args) -> int:
    p = _parse_prime(args.prime)
    group = _parse_group(args.group, p)
    result = stable_chain.stable_chain(group)
    payload = {
        "prime": p,
        "group": args.group,
        "group_order": group.order,
        "stabilization_index": result.stabilization_index,
        "ideals": [
            {
                "index": k + 1,
                "generators": [format_poly(g) for g in minimal_generators(ideal)],
                "quotient_dims": ideal.quotient_dims()[0],
                "top_degree": ideal.quotient_dims()[1],
            }
            for k, ideal in enumerate(result.ideals)
        ],
        "new_invariants_per_step": [
            [format_poly(g) for g in step] for step in result.new_invariants
        ],
    }
    sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return 0


def _cmd_gen(args) -> int:
    p = _parse_prime(args.prime)
    mats = parse_matrix_list(args.reflections, p)
    if not mats:
        raise UsageError("empty reflection list")
    result = demazure.generalized_ideal(mats)
    payload = {
        "prime": p,
        "reflections": [str(m) for m in mats],
        "generators": [
            {"degree": d, "polynomial": format_poly(g)} for d, g in result.generators
        ],
        "regular_sequence": result.regular_sequence,
        "top_degree": result.top_degree,
    }
    sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return 0


def _cmd_classify(args) -> int:
    p = _parse_prime(args.prime)
    mats = parse_matrix_list(args.matrices, p)
    if not mats:
        raise UsageError("empty matrix list")
    tag = classify(generate_closure(mats))
    sys.stdout.write(f"{tag}\n")
    return 0


def _cmd_invariants(args) -> int:
    p = _parse_prime(args.prime)
    group = _parse_group(args.group, p)
    if args.max_degree < 0:
        raise UsageError("--max-degree must be nonnegative")
    fixing = stable_chain.fixing_set(group)
    degrees = []
    for d in range(args.max_degree + 1):
        sub = invariant_slice(fixing, d)
        degrees.append(
            {
                "degree": d,
                "dimension": sub.dim,
                "basis": [format_poly(poly_from_slice(p, d, v)) for v in sub.rows],
            }
        )
    payload = {
        "prime": p,
        "group": args.group,
        "max_degree": args.max_degree,
        "degrees": degrees,
    }
    sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return 0


_COMMANDS = {
    "verify": _cmd_verify,
    "stable": _cmd_stable,
    "gen": _cmd_gen,
    "classify": _cmd_classify,
    "invariants": _cmd_invariants,
}


def cli_main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, InfiniteQuotientError, CapExceededError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
