"""Machine-readable pass/fail records for the verification targets."""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

PASS = "pass"
FAIL = "fail"
SKIPPED = "skipped"


@dataclass(frozen=True)
class Check:
    """A single named check inside a report."""

    name: str
    status: str
    expected: str = ""
    got: str = ""

    @classmethod
    def boolean(cls, name: str, ok: bool, expected: str = "true", got: str | None = None) -> "Check":
        return cls(name, PASS if ok else FAIL, expected, got if got is not None else str(bool(ok)).lower())

    @classmethod
    def equality(cls, name: str, expected, got) -> "Check":
        ok = expected == got
        return cls(name, PASS if ok else FAIL, str(expected), str(got))

    @classmethod
    def skip(cls, name: str, reason: str) -> "Check":
        return cls(name, SKIPPED, "", reason)

    def to_dict(self) -> dict:
        return {"name": self.name, "status": self.status, "expected": self.expected, "got": self.got}


@dataclass
class VerificationReport:
    """Outcome of one verification target at one prime.

    Overall status is fail when any check failed, skipped when every check
    was skipped, and pass otherwise.
    """

    prime: int
    target: str
    checks: list[Check] = field(default_factory=list)
    elapsed_ms: float = 0.0

    def add(self, check: Check) -> Check:
        self.checks.append(check)
        return check

    @property
    def status(self) -> str:
        if any(c.status == FAIL for c in self.checks):
            return FAIL
        if self.checks and all(c.status == SKIPPED for c in self.checks):
            return SKIPPED
        return PASS

    @property
    def ok(self) -> bool:
        return self.status != FAIL

    def failures(self) -> list[Check]:
        return [c for c in self.checks if c.status == FAIL]

    def to_dict(self) -> dict:
        return {
            "prime": self.prime,
            "target": self.target,
            "status": self.status,
            "checks": [c.to_dict() for c in self.checks],
            "elapsed_ms": self.elapsed_ms,
        }


@contextmanager
def timed_report(prime: int, target: str):
    """Context manager yielding a report and stamping its elapsed time."""
    report = VerificationReport(prime=prime, target=target)
    start = time.perf_counter()
    try:
        yield report
    finally:
        report.elapsed_ms = (time.perf_counter() - start) * 1000.0
