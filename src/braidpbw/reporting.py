"""Violation records shared by the axiom checkers and validators."""
from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Violation:
    axiom: str
    witness: tuple
    lhs: str
    rhs: str

    def __str__(self) -> str:
        w = ",".join(str(x) for x in self.witness)
        return f"{self.axiom} at ({w}): {self.lhs} != {self.rhs}"


@dataclass
class ValidationReport:
    subject: str
    violations: list[Violation] = field(default_factory=list)
    checked: int = 0
    skipped: int = 0
    note: str = ""

    @property
    def ok(self) -> bool:
        return not self.violations

    def record(self, axiom: str, witness: tuple, lhs: str, rhs: str) -> None:
        self.violations.append(Violation(axiom, witness, lhs, rhs))

    def summary(self) -> str:
        status = "ok" if self.ok else f"{len(self.violations)} violation(s)"
        extra = f", skipped {self.skipped} above degree cap" if self.skipped else ""
        head = f"{self.subject}: {status} ({self.checked} checks{extra})"
        lines = [head] + [f"  {v}" for v in self.violations[:20]]
        if len(self.violations) > 20:
            lines.append(f"  ... {len(self.violations) - 20} more")
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "subject": self.subject,
            "ok": self.ok,
            "checked": self.checked,
            "skipped": self.skipped,
            "violations": [
                {"axiom": v.axiom, "witness": [str(x) for x in v.witness], "lhs": v.lhs, "rhs": v.rhs}
                for v in self.violations
            ],
        }
