"""Check reports: verdicts with traceable equation violations.

A report compares in its field: ``require_equal``, ``require_chain`` and
``require_cells`` compare ``field.residues`` of their values and record
``field.lift`` of a kept violation's values (both the identity over Q).  A
check that computes on lowered inputs (``fields``) fills a ``part`` that
compares in the lowering's field, such as ``ScaledRationals(d**k)``, and
``absorb``s it, so the report it returns keeps the field of its data.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

from .fields import RATIONALS


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
    ``field``, the field of the compared values, takes no part in ``==``.
    """

    name: str
    exhaustive: bool = False
    checked: int = 0
    violation_count: int = 0
    violations: list = dataclass_field(default_factory=list)
    field: object = dataclass_field(default=RATIONALS, compare=False)

    @property
    def passed(self) -> bool:
        return self.violation_count == 0

    def tick(self, n: int = 1) -> None:
        self.checked += n

    def tick_each(self, n: int) -> None:
        """Count ``n`` checks that are not evaluated, one ``tick()`` each, so
        that a counter of unit ticks (perfbench's tracer) sees every check."""
        tick = self.tick
        for _ in range(n):
            tick()

    def record(self, equation, witness, lhs, rhs, detail="") -> None:
        self.violation_count += 1
        if self.exhaustive or not self.violations:
            self.violations.append(Violation(equation, tuple(witness), lhs, rhs, detail))

    def require_equal(self, equation, witness, lhs, rhs, detail="") -> bool:
        """Require lhs = rhs in the field."""
        self.tick()
        lhs, rhs = self.field.residues(lhs), self.field.residues(rhs)
        return lhs == rhs or self._fail(equation, witness, lhs, rhs, detail)

    def require_chain(self, equation, witness, terms, values) -> bool:
        """Require values[0] = values[1] = ... in the field; report the first
        broken link.  ``values`` is a tuple."""
        self.tick()
        return self._chain(equation, witness, terms, self.field.residues(values))

    def require_cells(self, equation, witness, values, dense, detail="") -> bool:
        """Require values[0] = values[1] = ... for flat accumulators, or
        values[0] = 0 for one flat accumulator or cell map (by its values),
        in the field.  Only a failure the report keeps builds dense sides
        (``dense`` of each value) and fails as ``require_equal``, or as
        ``require_chain`` if ``detail`` is the tuple of the chain's terms."""
        self.tick()
        residues = self.field.residues
        if len(values) == 1:
            v = values[0]
            if not any(residues(tuple(v if type(v) is list else v.values()))):
                return True
            values += ({},)
        else:
            flat = [residues(tuple(v)) for v in values]
            if flat.count(flat[0]) == len(flat):
                return True
        if not (self.exhaustive or not self.violations):
            self.violation_count += 1
            return False
        sides = tuple(residues(dense(v)) for v in values)
        if type(detail) is tuple:
            return self._chain(equation, witness, detail, sides)
        return self._fail(equation, witness, *sides, detail)

    def _chain(self, equation, witness, terms, values) -> bool:
        for a in range(len(values) - 1):
            if values[a] != values[a + 1]:
                return self._fail(equation, witness, values[a], values[a + 1],
                                  "%s != %s" % (terms[a], terms[a + 1]))
        return True

    def _fail(self, equation, witness, lhs, rhs, detail) -> bool:
        """Record a failed comparison of residues; a kept violation is lifted."""
        if self.exhaustive or not self.violations:
            lhs, rhs = self.field.lift(lhs), self.field.lift(rhs)
        self.record(equation, witness, lhs, rhs, detail)
        return False

    def part(self, field) -> "Report":
        """An empty report of this name and mode that compares in ``field``."""
        return Report(self.name, self.exhaustive, field=field)

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
