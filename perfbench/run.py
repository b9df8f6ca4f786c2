#!/usr/bin/env python3
"""Benchmark of modinv: time to a verified answer, end to end and per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (BENCHMARK.json records why each exists):

    verify-small   the 56 (target, prime) pairs of
                   `modinv verify --prime all-small --theorem all`
    chain-p11      stable chains and generalized invariant ideals at p = 11
    classify-p13   closure and classification of 64 conjugated catalog
                   groups at p = 13; --seed draws the conjugators

Each pass runs the workload's jobs in a fresh interpreter
(perfbench/worker.py) as a closed loop with one client, on whichever kernel
backend the checkout selects. Passes repeat until --seconds of job time is
measured, at least one. Every job's output is checked; a job that raises or
answers wrong counts as failed.

--trace 0 reports the end-to-end metrics: wall_s (job time of a pass,
median over passes), setup_s (import modinv and build the inputs in a fresh
interpreter, median of several), peak_rss_mb and ok_ratio (jobs answered
and checked over jobs attempted). --trace 1 makes one untraced and one
traced pass and reports the per-layer metrics of the traced one,
trace.overhead_ratio (traced over untraced wall_s), trace.coverage, the
per-target times of verify-small and the per-job percentiles job_p50_s and
job_p80_s of the untraced pass.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. The full result, with run metadata and every
job, goes to perfbench/out/<workload>-seed<N>-trace<T>.json; the traced
pass also writes its spans to perfbench/out/<workload>-seed<N>-spans.json.
Exits 2 without a result when the checkout holds no modinv source, and 1
when a pass fails, e.g. when the traced pass finds an op of
perfbench/tracer.py missing from the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("verify-small", "chain-p11", "classify-p13")
SETUP_PROBES = 12  # extra set-up-only interpreters, besides each pass's own
DEADLINE_S = 170.0  # a run must end within 180 s
TAIL_SAMPLES = 10  # a reported percentile keeps at least this many samples above it


class BenchError(RuntimeError):
    pass


def run_worker(args: argparse.Namespace, deadline: float, *extra: str) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed), *extra]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=max(1.0, deadline - time.monotonic())
        )
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the worker
        raise BenchError(f"worker did not finish within the {DEADLINE_S:.0f} s deadline") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def git_rev() -> str | None:
    """HEAD of the checkout read from .git, or None outside a git work tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "modinv").glob("*.py*")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def end_to_end(passes: list[dict], setups: list[float]) -> tuple[dict, dict]:
    jobs = [j for p in passes for j in p["jobs"]]
    ok = sum(1 for j in jobs if j["error"] is None)
    metrics = {
        "wall_s": (statistics.median(sum(j["s"] for j in p["jobs"]) for p in passes), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
        "ok_ratio": (ok / len(jobs), "ratio"),
    }
    notes = {
        "wall_s": f"median of {len(passes)} passes",
        "setup_s": f"median of {len(setups)} fresh interpreters",
        "peak_rss_mb": "ru_maxrss of the workload process",
        "ok_ratio": f"{ok} of {len(jobs)} jobs answered and checked",
    }
    return metrics, notes


def per_layer(untraced: list[dict], traced: dict) -> tuple[dict, dict]:
    import tracer  # the table of ops and units; does not import modinv

    metrics = {spec["name"]: (traced["layers"][spec["name"]], spec["unit"]) for spec in tracer.metric_specs()}
    for target in traced["by_target"]:
        seconds = statistics.median(p["by_target"][target] for p in untraced)
        metrics[f"verify.{target}.s"] = (seconds, "s")
    metrics["trace.coverage"] = (traced["layers"]["trace.coverage"], "ratio")
    untraced_wall = statistics.median(sum(j["s"] for j in p["jobs"]) for p in untraced)
    metrics["trace.overhead_ratio"] = (sum(j["s"] for j in traced["jobs"]) / untraced_wall, "ratio")
    # per-job percentiles of the untraced pass(es); each job's time is its median over them
    times = sorted(statistics.median(js) for js in zip(*([j["s"] for j in p["jobs"]] for p in untraced)))
    n = len(times)
    above_p80 = n - math.ceil(0.8 * n)
    metrics["job_p50_s"] = (percentile(times, 0.50), "s")
    metrics["job_p80_s"] = (percentile(times, 0.80), "s")
    notes = {
        "job_p50_s": f"{n} jobs",
        "job_p80_s": f"{n} jobs, {above_p80} above"
        + ("" if above_p80 >= TAIL_SAMPLES else f"; fewer than {TAIL_SAMPLES}, too few to pool"),
    }
    return metrics, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="minimum job time measured per run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "modinv" / "__init__.py").is_file():
        print(f"error: no modinv source under {ROOT / 'src'}; run from a modinv checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    OUT.mkdir(exist_ok=True)
    try:
        passes = [run_worker(args, deadline)]
        if args.trace:
            # one untraced pass is the reference for the traced one
            traced = run_worker(args, deadline, "--trace", "1")
            runs = passes + [traced]
            metrics, notes = per_layer(passes, traced)
        else:
            while sum(j["s"] for p in passes for j in p["jobs"]) < args.seconds:
                passes.append(run_worker(args, deadline))
            runs = passes
            setups = [p["setup_s"] for p in passes]
            setups += [run_worker(args, deadline, "--setup-only")["setup_s"] for _ in range(SETUP_PROBES)]
            metrics, notes = end_to_end(passes, setups)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    jobs = [j for r in runs for j in r["jobs"]]
    failed = [j for j in jobs if j["error"] is not None]
    # every pass, traced or not, must give the same outputs job for job
    digests = {tuple(j["digest"] for j in r["jobs"]) for r in runs}
    correct = not failed and len(digests) == 1
    first = runs[0]
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_rev": git_rev(),
        "source_sha256": source_digest(),
        "python": sys.version.split()[0],
        "backend": first["backend"],
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "degree_cap": first["degree_cap"],
        "degree_cap_overridden": bool(first["degree_cap"]["MODINV_MAX_DEGREE"]),
        "passes": len(passes),
    }
    result = {"correct": correct, "attempted": len(jobs), "failed": len(failed)}
    result["metrics"] = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({"meta": meta, **result, "notes": notes, "runs": runs}, fh, indent=1)

    cap = meta["degree_cap"]
    print(
        f"modinv benchmark  workload={args.workload} seed={args.seed} backend={meta['backend']} "
        f"python={meta['python']} nproc={meta['nproc']} git={meta['git_rev'] or 'none'}"
    )
    if meta["degree_cap_overridden"]:
        print(f"WARNING: MODINV_MAX_DEGREE={cap['MODINV_MAX_DEGREE']} overrides the 4p^2 degree cap; answers may differ")
    print(f"degree cap by prime: {cap['by_prime']}")
    for j in failed:
        print(f"FAILED {j['name']}: {j['error']}")
    if len(digests) != 1:
        print("FAILED: job outputs differ between passes")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<48} {value:>14.6g} {unit:<6} {notes.get(name, '')}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
