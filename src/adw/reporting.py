"""Check reports: verdicts with traceable equation violations."""

from __future__ import annotations

from dataclasses import dataclass, field, replace


@dataclass(frozen=True)
class Violation:
    equation: str
    witness: tuple
    lhs: tuple
    rhs: tuple
    detail: str = ""

    def render(self, scalar_str=str) -> dict:
        def fmt(x):
            if isinstance(x, tuple):
                return [fmt(y) for y in x]
            return scalar_str(x)

        return {
            "equation": self.equation,
            "witness": list(self.witness),
            "lhs": fmt(self.lhs),
            "rhs": fmt(self.rhs),
            "detail": self.detail,
        }


@dataclass
class Report:
    """Outcome of an equation-system check.

    ``violations`` holds the first failure only, unless the check ran in
    exhaustive mode; ``violation_count`` always counts all failures found.
    """

    name: str
    exhaustive: bool = False
    checked: int = 0
    violation_count: int = 0
    violations: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.violation_count == 0

    def tick(self, n: int = 1) -> None:
        self.checked += n

    def record(self, equation, witness, lhs, rhs, detail="") -> None:
        self.violation_count += 1
        if self.exhaustive or not self.violations:
            self.violations.append(Violation(equation, tuple(witness), lhs, rhs, detail))

    def require_equal(self, equation, witness, lhs, rhs, detail="") -> bool:
        self.tick()
        if lhs != rhs:
            self.record(equation, witness, lhs, rhs, detail)
            return False
        return True

    def require_chain(self, equation, witness, terms, values) -> bool:
        """Require values[0] = values[1] = ... ; report the first broken link."""
        self.tick()
        for a in range(len(values) - 1):
            if values[a] != values[a + 1]:
                self.record(equation, witness, values[a], values[a + 1],
                            "%s != %s" % (terms[a], terms[a + 1]))
                return False
        return True

    def map_values(self, fn) -> "Report":
        """Pass the lhs and rhs of every recorded violation through ``fn``."""
        self.violations = [replace(v, lhs=fn(v.lhs), rhs=fn(v.rhs)) for v in self.violations]
        return self

    def absorb(self, other: "Report") -> "Report":
        self.checked += other.checked
        self.violation_count += other.violation_count
        for v in other.violations:
            if self.exhaustive or not self.violations:
                self.violations.append(v)
        return self

    def summary(self) -> str:
        if self.passed:
            return "%s: pass (%d identities checked)" % (self.name, self.checked)
        head = self.violations[0] if self.violations else None
        loc = " first at %s witness %s" % (head.equation, head.witness) if head else ""
        return "%s: FAIL (%d violations/%d checks)%s" % (
            self.name, self.violation_count, self.checked, loc)


class PreconditionFailure(Exception):
    """An operation refused to run because a required check did not pass."""

    def __init__(self, message: str, report: Report | None = None):
        super().__init__(message)
        self.report = report
