"""Structured results for axiom checks."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class SquareRecord:
    """Verdict for a single square (or named sub-check) within a report."""

    desc: str
    passed: bool
    witness: str | None = None


@dataclass
class CheckReport:
    """Result of an axiom check: per-square verdicts plus a truncation caveat.

    The overall verdict is the conjunction of the square verdicts.  Reports
    are always relative to a truncation level and grade bound; ``caveat``
    spells that out rather than claiming an unconditional statement.
    """

    check: str
    space: str
    level: int
    grade_bound: int
    squares: list[SquareRecord] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.squares)

    @property
    def caveat(self) -> str:
        return f"verified at truncation level {self.level}, grade bound {self.grade_bound}"

    def record(self, desc: str, passed: bool, witness: str | None = None) -> None:
        self.squares.append(SquareRecord(desc, passed, witness))

    def first_failure(self) -> SquareRecord | None:
        for r in self.squares:
            if not r.passed:
                return r
        return None

    def to_json_dict(self) -> dict:
        return {
            "space": self.space,
            "level": self.level,
            "grade_bound": self.grade_bound,
            "check": self.check,
            "squares": [
                {"desc": r.desc, "pass": r.passed, "witness": r.witness}
                for r in self.squares
            ],
            "pass": self.passed,
        }

    def summary(self) -> str:
        state = "PASS" if self.passed else "FAIL"
        return f"{self.check}[{self.space}]: {state} ({len(self.squares)} squares; {self.caveat})"
