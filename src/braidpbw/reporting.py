"""The package's error classes, and the violation records shared by the
axiom checkers and validators.  Every deliberate failure raises a
:class:`BraidpbwError`, whose ``exit_code`` the command line returns; any
other exception is an engine bug.  The degree limits that raise them live
here too: the degree cap, read from ``BRAIDPBW_DEGREE_CAP``, and the check
of a requested top degree."""
from __future__ import annotations

import os
from dataclasses import dataclass, field

DEFAULT_DEGREE_CAP = 8


class BraidpbwError(Exception):
    """A check or a pipeline stage found the claim false."""
    exit_code = 1


class InputError(BraidpbwError, ValueError):
    """Malformed input document or argument, or a value over a resource limit."""
    exit_code = 2


class DegreeCapExceeded(InputError):
    """A product of words longer than the degree cap."""


class SpanError(BraidpbwError):
    """A vector lies outside the span of a coordinate basis."""


class FiltrationError(BraidpbwError):
    """A subspace ladder or filtration fails its defining property."""


class CoinvariantsError(BraidpbwError):
    """The coinvariants or their induced structure cannot be formed."""


class PipelineError(BraidpbwError):
    """A pipeline stage failed; the message names the stage."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage


def degree_cap_default() -> int:
    """BRAIDPBW_DEGREE_CAP as a non-negative integer, DEFAULT_DEGREE_CAP when unset."""
    value = os.environ.get("BRAIDPBW_DEGREE_CAP")
    if not value:
        return DEFAULT_DEGREE_CAP
    try:
        cap = int(value)
    except ValueError:
        cap = None
    if cap is None or cap < 0:
        raise InputError(f"BRAIDPBW_DEGREE_CAP must be an integer >= 0, got {value!r}")
    return cap


def require_degree(n: int) -> None:
    """A requested top degree is a count of degrees: negative is malformed."""
    if n < 0:
        raise InputError(f"degree must be >= 0, got {n}")


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
