"""The benchmark's workloads: job lists built from a seed, the expected
answer of every job, and the closed loop that runs and checks them.

Each workload is a list of jobs run one after another by a single client
(the next job starts when the previous one returns). A job's output is a
small JSON-able summary of what the program returned; it is taken after
the job's timer stops and compared against the job's expected answer,
which the benchmark states on its own (paper values and group orders), not
through the program.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
import traceback
from dataclasses import dataclass
from typing import Any, Callable, Optional

from modinv import demazure, grp2, stable_chain, verify

WORKLOADS = ("verify-small", "chain-p11", "classify-p13")

# -- verify-small --------------------------------------------------------------

SMALL_PRIMES = (2, 3, 5, 7)
TARGETS = (
    "baseL", "baseU", "basedos", "calculinvest", "formules", "genL", "genU",
    "grups", "invariantsU", "lemabinomial", "operadorsD", "stableL", "stableU",
    "weyl_examples",
)  # sorted, the order `modinv verify --theorem all` runs them in
# Pairs whose report is skipped: formules needs p > 2 and weyl_examples is
# stated at p = 3 only (their applicability), and basedos skips itself at
# p = 2, where the quotient presentation degenerates.
SKIPPED = {(2, "formules"), (2, "basedos")} | {(p, "weyl_examples") for p in (2, 5, 7)}

# -- chain-p11 -----------------------------------------------------------------

CHAIN_PRIME = 11
CHAIN_STABLE = (("L", 1, None), ("L", 2, None), ("U", 10, 10))
CHAIN_GENERALIZED = (("L", 1, None), ("U", 10, 10))

# -- classify-p13 ----------------------------------------------------------------

CLASSIFY_PRIME = 13
CLASSIFY_JOBS = 64
# The (kind, r, s) mix is drawn once from this constant stream, so every
# --seed runs the same groups (3 in 4 U(r, s), 1 in 4 L(r)) and only the
# conjugating matrices change with the seed.
CLASSIFY_MIX_SEED = 13

PRIMES = {"verify-small": SMALL_PRIMES, "chain-p11": (CHAIN_PRIME,), "classify-p13": (CLASSIFY_PRIME,)}


@dataclass(frozen=True)
class Job:
    """One call into the program, with what its output must be.

    ``run`` is what the timer measures; ``summarize`` turns its return value
    into the job's output; ``expect`` maps output keys to required values.
    """

    name: str
    run: Callable[[], Any]
    summarize: Callable[[Any], dict]
    expect: dict


@dataclass
class JobRecord:
    name: str
    seconds: float
    error: Optional[str]  # None when the job returned and its output checked
    output: Optional[dict]

    def digest(self) -> str:
        text = json.dumps(self.output, sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()


def group_label(kind: str, r: int, s: Optional[int]) -> str:
    return f"L({r})" if kind == "L" else f"U({r},{s})"


def group_order(kind: str, p: int, r: int, s: Optional[int]) -> int:
    return r * p * (p * p - 1) if kind == "L" else r * s * p


def catalog_group(kind: str, p: int, r: int, s: Optional[int]):
    # called the way the program calls it, so the lru_cache keys are shared
    return grp2.catalog_group(kind, p, r) if kind == "L" else grp2.catalog_group(kind, p, r, s)


def _verify_output(reports) -> dict:
    (rep,) = reports
    return {
        "status": rep.status,
        "checks": [[c.name, c.status, c.expected, c.got] for c in rep.checks],
    }


def verify_small_jobs() -> list[Job]:
    jobs = []
    for p in SMALL_PRIMES:
        for t in TARGETS:
            status = "skipped" if (p, t) in SKIPPED else "pass"
            jobs.append(
                Job(
                    f"{t}@{p}",
                    lambda p=p, t=t: verify.run_verification([p], [t]),
                    _verify_output,
                    {"status": status},
                )
            )
    return jobs


def _stable_output(res) -> dict:
    dims, top = res.ideals[0].quotient_dims()
    return {
        "stabilization_index": res.stabilization_index,
        "j1_dims_sum": sum(dims),
        "j1_top_degree": top,
        "new_invariants": [[str(f) for f in step] for step in res.new_invariants],
    }


def _generalized_output(res) -> dict:
    return {
        "degrees": sorted(res.generator_degrees),
        "regular_sequence": res.regular_sequence,
        "generators": [str(f) for _, f in res.generators],
    }


def chain_p11_jobs() -> list[Job]:
    p = CHAIN_PRIME
    jobs = []
    for kind, r, s in CHAIN_STABLE:
        jobs.append(
            Job(
                f"stable_chain {group_label(kind, r, s)}",
                lambda k=kind, r=r, s=s: stable_chain.stable_chain(catalog_group(k, p, r, s)),
                _stable_output,
                {
                    "stabilization_index": 2 if r == 1 else 1,
                    "j1_dims_sum": group_order(kind, p, r, s),
                },
            )
        )
    for kind, r, s in CHAIN_GENERALIZED:
        degrees = [r * (p + 1), p * p - p] if kind == "L" else [r, s * p]
        jobs.append(
            Job(
                f"generalized_ideal {group_label(kind, r, s)}",
                lambda k=kind, r=r, s=s: demazure.generalized_ideal(
                    grp2.catalog_generators(k, p, r, s)
                ),
                _generalized_output,
                {"degrees": sorted(degrees), "regular_sequence": True},
            )
        )
    return jobs


def classify_mix() -> list[tuple[str, int, Optional[int]]]:
    rng = random.Random(CLASSIFY_MIX_SEED)
    divs = [d for d in range(1, CLASSIFY_PRIME) if (CLASSIFY_PRIME - 1) % d == 0]
    mix = []
    for i in range(CLASSIFY_JOBS):
        if i % 4 == 3:
            mix.append(("L", rng.choice(divs), None))
        else:
            mix.append(("U", rng.choice(divs), rng.choice(divs)))
    return mix


def _random_invertible(rng: random.Random, p: int) -> tuple[int, int, int, int]:
    while True:
        a, b, c, d = (rng.randrange(p) for _ in range(4))
        if (a * d - b * c) % p:
            return a, b, c, d


def _classify(gens):
    group = grp2.generate_closure(gens)
    return group, grp2.classify(group)


def _classify_output(result) -> dict:
    group, c = result
    out = {"class": [c.kind, c.r, c.s], "order": group.order, "conjugate_is_catalog": False}
    if c.conjugator is not None:
        out["conjugator"] = list(c.conjugator.entries)
        target = catalog_group(c.kind, group.p, c.r, c.s)
        out["conjugate_is_catalog"] = group.conjugate(c.conjugator).elements == target.elements
    return out


def classify_p13_jobs(seed: int) -> list[Job]:
    """Catalog generators of each group in the fixed mix, conjugated by a
    matrix drawn from ``seed``; the program sees only the generator list."""
    p = CLASSIFY_PRIME
    rng = random.Random(seed)
    jobs = []
    for i, (kind, r, s) in enumerate(classify_mix()):
        u = grp2.Mat2(p, *_random_invertible(rng, p))
        ui = u.inv()
        gens = [ui * refl.matrix * u for refl in grp2.catalog_generators(kind, p, r, s)]
        jobs.append(
            Job(
                f"classify#{i} {group_label(kind, r, s)}",
                lambda gens=gens: _classify(gens),
                _classify_output,
                {"class": [kind, r, s], "conjugate_is_catalog": True},
            )
        )
    return jobs


def build(workload: str, seed: int) -> list[Job]:
    if workload == "verify-small":
        return verify_small_jobs()
    if workload == "chain-p11":
        return chain_p11_jobs()
    if workload == "classify-p13":
        return classify_p13_jobs(seed)
    raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")


def run_jobs(jobs: list[Job], tracer=None) -> list[JobRecord]:
    """Run the jobs in order, one at a time. A job that raises or whose
    output differs from its expected answer is recorded as failed; the
    loop goes on. Only ``job.run`` is timed (and traced)."""
    records = []
    for i, job in enumerate(jobs):
        result = error = output = None
        if tracer is not None:
            tracer.begin_job(i)
        start = time.perf_counter()
        try:
            result = job.run()
        except Exception:  # a failing job is a measured outcome, not a harness error
            error = traceback.format_exc(limit=-3).strip()
        seconds = time.perf_counter() - start
        if tracer is not None:
            tracer.end_job(seconds)
        if error is None:
            try:
                output = job.summarize(result)
            except Exception:
                error = "output unreadable: " + traceback.format_exc(limit=-3).strip()
            else:
                wrong = [
                    f"{key}: expected {want!r}, got {output.get(key)!r}"
                    for key, want in job.expect.items()
                    if output.get(key) != want
                ]
                if wrong:
                    error = "; ".join(wrong)
        records.append(JobRecord(job.name, seconds, error, output))
    return records
