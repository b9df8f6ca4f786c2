"""One pass of one workload in a fresh interpreter; run.py starts it.

Usage: python3 perfbench/worker.py --workload NAME --seed N
       [--trace 0|1] [--setup-only]

Imports modinv from the ``src/`` directory next to ``perfbench/``, builds
the workload's inputs (that time, from interpreter start, is the set-up
time), runs the jobs as a closed loop with one client and prints one JSON
line: set-up time, per-job times, errors and output digests, peak RSS and,
with --trace 1, the per-layer metrics; the traced pass writes its spans
to perfbench/out/<workload>-seed<N>-spans.json.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"


def import_modinv():
    """Import the checkout's own modinv, never an installed one."""
    if not (SRC / "modinv" / "__init__.py").is_file():
        raise SystemExit(f"no modinv source at {SRC / 'modinv'}")
    sys.path.insert(0, str(SRC))
    import modinv

    if Path(modinv.__file__).resolve().parent != (SRC / "modinv").resolve():
        raise SystemExit(f"imported modinv from {modinv.__file__}, not from {SRC}")
    return modinv


def degree_caps(primes) -> dict:
    from modinv.graded_ideal import default_degree_cap

    return {
        "MODINV_MAX_DEGREE": os.environ.get("MODINV_MAX_DEGREE"),
        "by_prime": {str(p): default_degree_cap(p) for p in primes},
    }


def run_pass(workload: str, jobs, trace: bool) -> tuple:
    """Run the jobs; return what was measured (per-job times, errors and
    output digests, per-target times, peak RSS and, when traced, the
    per-layer metrics) and the tracer, or None when untraced."""
    import workloads

    tracer = None
    if trace:
        from tracer import MissingOp, Tracer

        try:
            tracer = Tracer()
        except MissingOp as exc:
            raise SystemExit(f"error: {exc}") from exc
    records = workloads.run_jobs(jobs, tracer)
    out = {"jobs": [{"name": r.name, "s": r.seconds, "error": r.error, "digest": r.digest()} for r in records]}
    out["by_target"] = dict.fromkeys(workloads.TARGETS, 0.0)
    if workload == "verify-small":
        for r in records:
            out["by_target"][r.name.split("@")[0]] += r.seconds
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        out["layers"] = tracer.metrics()
        out["dropped_spans"] = tracer.dropped_spans
    return out, tracer


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help="stop after building the inputs")
    args = ap.parse_args(argv)

    modinv = import_modinv()
    import workloads

    jobs = workloads.build(args.workload, args.seed)
    setup_s = time.perf_counter() - T_START
    out = {
        "setup_s": setup_s,
        "backend": modinv.backend(),
        "degree_cap": degree_caps(workloads.PRIMES[args.workload]),
    }
    if not args.setup_only:
        measured, tracer = run_pass(args.workload, jobs, bool(args.trace))
        out.update(measured)
        if tracer is not None:
            OUT.mkdir(exist_ok=True)
            with open(OUT / f"{args.workload}-seed{args.seed}-spans.json", "w") as fh:
                json.dump(tracer.span_dump(), fh)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
