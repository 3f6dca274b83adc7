"""Shared pass/fail reporting for the identity checks."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class CheckOutcome:
    passed: bool
    residual: float
    details: dict = field(default_factory=dict)


@dataclass
class VerificationReport:
    """Named checks with residuals; passes iff every check passes."""

    checks: dict[str, CheckOutcome] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks.values())

    def add(self, name: str, passed: bool, residual: float, **details) -> None:
        self.checks[name] = CheckOutcome(bool(passed), float(residual), details)

    def merge(self, other: "VerificationReport") -> None:
        self.checks.update(other.checks)

    def max_residual(self) -> float:
        return max((c.residual for c in self.checks.values()), default=0.0)

    def to_jsonable(self) -> dict:
        return {
            name: {
                "pass": c.passed,
                "residual": c.residual,
                "details": c.details,
            }
            for name, c in self.checks.items()
        }
