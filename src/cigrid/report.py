"""Structured verification reports with deterministic serialization.

A report aggregates named checks; the overall status is "fail" if any check
failed, else "inconclusive" if any check hit a budget or counted nothing,
else "pass".  Every counted check (draws, generators) is built by
`CheckResult.tally`, the one place its rule is written: it passes only when
every counted item held, and never on zero evidence.  Text and JSON output
contain no timestamps and use fixed ordering, so identical seeds give
byte-identical artifacts.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Iterable, Sequence

from .linalg import matrix_to_text
from .record import Record

PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"
EXIT_CODES = {PASS: 0, FAIL: 1, INCONCLUSIVE: 3}
# Counterexamples a report keeps; `WitnessReport.log` drops the rest.
MAX_LOGGED_COUNTEREXAMPLES = 5


def overall_status(statuses: Iterable[str]) -> str:
    """"fail" if any status failed, else "inconclusive" if any was, else "pass"."""
    statuses = set(statuses)
    if FAIL in statuses:
        return FAIL
    if INCONCLUSIVE in statuses:
        return INCONCLUSIVE
    return PASS


class CheckResult(Record):
    _fields = ("name", "status", "detail", "counts")
    __setattr__ = object.__setattr__
    __hash__ = None

    def __init__(self, name: str, status: str, detail: str = "", counts: dict[str, int] | None = None):
        self.name, self.status, self.detail = name, status, detail
        self.counts = {} if counts is None else counts

    @staticmethod
    def outcome(name: str, ok: bool, detail: str = "", counts: dict[str, int] | None = None) -> "CheckResult":
        return CheckResult(name, PASS if ok else FAIL, detail, counts or {})

    @staticmethod
    def tally(name: str, key: str, hits: int, total: int, total_key: str = "trials") -> "CheckResult":
        """The check that `hits` of `total` counted items held, with counts
        {key: hits, total_key: total}: "pass" when every item held, "fail"
        when some did not, and "inconclusive" when nothing was counted."""
        status = INCONCLUSIVE if total == 0 else PASS if hits == total else FAIL
        return CheckResult(name, status, counts={key: hits, total_key: total})


class WitnessReport(Record):
    _fields = ("name", "seed", "trials", "budgets", "checks", "counterexamples")
    __setattr__ = object.__setattr__
    __hash__ = None

    def __init__(
        self,
        name: str,
        seed: int,
        trials: int,
        budgets: dict[str, int] | None = None,
        checks: list[CheckResult] | None = None,
        counterexamples: list[str] | None = None,
    ):
        self.name, self.seed, self.trials = name, seed, trials
        self.budgets = {} if budgets is None else budgets
        self.checks = [] if checks is None else checks
        self.counterexamples = [] if counterexamples is None else counterexamples

    def add(self, check: CheckResult) -> None:
        self.checks.append(check)

    def log(self, title: str, m: Sequence[Sequence[Fraction]]) -> None:
        """Keep the counterexample matrix m under its title, unless
        MAX_LOGGED_COUNTEREXAMPLES are kept; only a kept one is rendered."""
        if len(self.counterexamples) < MAX_LOGGED_COUNTEREXAMPLES:
            self.counterexamples.append(f"{title}:\n{matrix_to_text(m)}")

    @property
    def status(self) -> str:
        return overall_status(c.status for c in self.checks)

    @property
    def passed(self) -> bool:
        return self.status == PASS

    @property
    def exit_code(self) -> int:
        return EXIT_CODES[self.status]

    def to_text(self) -> str:
        lines = [f"verification: {self.name}"]
        lines.append(f"seed: {self.seed}")
        lines.append(f"trials: {self.trials}")
        for key in sorted(self.budgets):
            lines.append(f"budget {key}: {self.budgets[key]}")
        lines.append(f"status: {self.status}")
        for c in self.checks:
            lines.append(f"[{c.status}] {c.name}")
            if c.counts:
                counts = " ".join(f"{k}={c.counts[k]}" for k in sorted(c.counts))
                lines.append(f"    counts: {counts}")
            if c.detail:
                lines.append(f"    {c.detail}")
        if self.counterexamples:
            lines.append("counterexamples:")
            for ce in self.counterexamples:
                lines.extend("    " + ln for ln in ce.strip("\n").splitlines())
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        return {
            "verification": self.name,
            "seed": self.seed,
            "trials": self.trials,
            "budgets": {k: self.budgets[k] for k in sorted(self.budgets)},
            "status": self.status,
            "checks": [
                {
                    "name": c.name,
                    "status": c.status,
                    "detail": c.detail,
                    "counts": {k: c.counts[k] for k in sorted(c.counts)},
                }
                for c in self.checks
            ],
            "counterexamples": list(self.counterexamples),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n"
