"""Tests of the benchmark itself: tracing leaves modinv as it found it,
tracing does not change answers, counts repeat, and wrong answers are
counted instead of crashing the harness.

Run from the root of a checkout: python3 -m pytest -q perfbench/tests
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

COUNTS = ("kernels.rref.calls", "grp2.Mat2.init.calls", "graded_ideal.GradedIdeal.slice.degrees_built")


def fresh_pass(workload, seed, k, trace):
    """The first k jobs of a workload, run by worker.run_pass in a fresh
    interpreter, so that no cache of an earlier pass is warm."""
    code = (
        "import json, worker; worker.import_modinv(); import workloads; "
        f"jobs = workloads.build({workload!r}, {seed})[:{k}]; "
        f"print(json.dumps(worker.run_pass({workload!r}, jobs, {trace})[0]))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=BENCH, capture_output=True, text=True, timeout=300, check=True
    )
    return json.loads(proc.stdout.splitlines()[-1])


def bindings():
    """Every attribute of every modinv module and of the classes they define."""
    out = {}
    for name, module in sys.modules.items():
        if name == "modinv" or name.startswith("modinv."):
            for attr, value in list(vars(module).items()):
                out[(name, attr)] = value
                if isinstance(value, type) and value.__module__ == name:
                    for cattr, cvalue in vars(value).items():
                        out[(name, attr, cattr)] = cvalue
    return out


def test_tracer_rebinds_imported_names_and_restores_them():
    from modinv import _kernels, grp2, verify

    before = bindings()
    t = tracer.Tracer()
    t.begin_job(0)
    try:
        # the from-imported name in verify is rebound along with grp2's own
        assert verify.classify is grp2.classify
        assert verify.classify.__wrapped__ is before[("modinv.grp2", "classify")]
        assert _kernels.rref.__wrapped__ is before[("modinv._kernels", "rref")]
        verify.run_verification([2], ["grups"])
    finally:
        t.end_job(0.0)
    after = bindings()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []
    assert t.metrics()["grp2.classify.calls"] > 0


@pytest.mark.parametrize("gone", [tracer.Op("grp2", "no_such_function"), tracer.Op("grp2", "Mat2.no_such_method")])
def test_an_op_missing_from_the_checkout_stops_the_traced_run(monkeypatch, gone):
    monkeypatch.setattr(tracer, "OPS", tracer.OPS + (gone,))
    with pytest.raises(tracer.MissingOp, match=gone.name):
        tracer.Tracer()


def test_self_time_leaves_out_the_tracer_work_around_wrapped_calls(monkeypatch):
    now = [0.0]
    monkeypatch.setattr(tracer.time, "perf_counter", lambda: now[0])

    class Group:
        @property
        def elements(self):  # read by the tracer's count only: 10 s of tracer work
            now[0] += 10
            return range(5)

    def closure():  # 1 s of its own work
        now[0] += 1
        return Group()

    def classify():  # 2 s of its own work, then one wrapped call
        now[0] += 2
        return closure_traced()

    t = tracer.Tracer()
    closure_traced = t._wrap(tracer.Op("grp2", "generate_closure", counts=("elements",)), closure)
    classify_traced = t._wrap(tracer.Op("grp2", "classify"), classify)
    t._stack.append([tracer.ROOT, 0.0, -1])
    classify_traced()
    totals = t.op_totals()
    assert totals["grp2.generate_closure"]["self_s"] == 1
    assert totals["grp2.classify"]["self_s"] == 2
    assert totals["grp2.generate_closure"]["counts"] == {"elements": 5}


def test_traced_and_untraced_runs_give_identical_outputs():
    for workload, k in (("verify-small", 28), ("classify-p13", 6)):
        plain = fresh_pass(workload, 3, k, trace=False)
        traced = fresh_pass(workload, 3, k, trace=True)
        assert [j["error"] for j in plain["jobs"]] == [None] * k
        assert [j["digest"] for j in plain["jobs"]] == [j["digest"] for j in traced["jobs"]]


def test_counts_repeat_exactly_across_traced_runs():
    runs = [fresh_pass("verify-small", 5, 28, trace=True) for _ in range(2)]
    first, second = (r["layers"] for r in runs)
    for name in COUNTS:
        assert first[name] > 0
    counts = [s["name"] for s in tracer.metric_specs() if s["unit"] in ("count", "ratio")]
    assert {n: first[n] for n in counts} == {n: second[n] for n in counts}


def test_wrong_expected_answer_is_a_failed_job_not_a_crash():
    good, other = workloads.build("classify-p13", 1)[:2]
    wrong = dataclasses.replace(other, expect={**other.expect, "class": ["U", 5, 7]})

    def broken():
        raise ZeroDivisionError("job raised")

    raising = dataclasses.replace(good, name="raising", run=broken)
    records = workloads.run_jobs([good, wrong, raising])
    assert [r.error is None for r in records] == [True, False, False]
    assert "class: expected ['U', 5, 7]" in records[1].error
    assert "ZeroDivisionError" in records[2].error


def test_chain_expectations_follow_the_paper():
    expect = {job.name: job.expect for job in workloads.build("chain-p11", 0)}
    assert expect["stable_chain L(1)"] == {"stabilization_index": 2, "j1_dims_sum": 1320}
    assert expect["stable_chain U(10,10)"] == {"stabilization_index": 1, "j1_dims_sum": 1100}
    assert expect["generalized_ideal L(1)"]["degrees"] == [12, 110]
    assert expect["generalized_ideal U(10,10)"]["degrees"] == [10, 110]


def test_seed_changes_the_matrices_and_keeps_the_mix():
    a, b = (workloads.build("classify-p13", seed) for seed in (1, 2))
    assert len(a) >= 50
    assert len(a) - run.math.ceil(0.8 * len(a)) >= run.TAIL_SAMPLES  # p80 keeps 10 jobs above it
    assert [j.name for j in a] == [j.name for j in b]
    kinds = [j.expect["class"][0] for j in a]
    assert kinds.count("U") == 3 * kinds.count("L")
    assert [j.run.__defaults__ for j in a] != [j.run.__defaults__ for j in b]


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics, _ = run.end_to_end(
        [{"jobs": [{"s": 1.0, "error": None}], "peak_rss_mb": 1.0}], [1.0]
    )
    assert [m["name"] for m in spec["end_to_end"]] == list(metrics)
    layers = tracer.metric_specs()
    layers += [{"name": f"verify.{t}.s", "unit": "s", "better": "lower"} for t in workloads.TARGETS]
    layers += [
        {"name": "trace.coverage", "unit": "ratio", "better": "higher"},
        {"name": "trace.overhead_ratio", "unit": "ratio", "better": "lower"},
        {"name": "job_p50_s", "unit": "s", "better": "lower"},
        {"name": "job_p80_s", "unit": "s", "better": "lower"},
    ]
    assert spec["per_layer"] == layers
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS) == list(run.WORKLOADS)


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "chain-p11", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
