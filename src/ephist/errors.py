"""Error hierarchy shared by every module.

Each error carries a stable machine-readable ``code`` and the CLI exit
status it maps to. Exit statuses: 2 parse error, 3 invariant violation,
4 not decoherent, 5 cap exceeded.
"""
from __future__ import annotations

import math

__all__ = ["CapExceeded", "DimensionMismatch", "EngineError",
           "InvariantViolation", "NotDecoherent", "ParseError"]


class EngineError(Exception):
    code = "engine-error"
    exit_status = 3

    def payload(self) -> dict:
        """Fields serialized into the CLI's error JSON."""
        return {"code": self.code, "message": str(self)}


class DimensionMismatch(EngineError):
    code = "dimension-mismatch"
    exit_status = 3


class InvariantViolation(EngineError):
    """A constructed value failed a structural invariant.

    Carries the invariant's name and the violation magnitude so callers
    can report exactly what failed, not just that something did.
    """

    code = "invariant-violation"
    exit_status = 3

    def __init__(self, name: str, magnitude: float, detail: str = ""):
        self.name = name
        try:
            self.magnitude = float(magnitude)
        except OverflowError:   # an int beyond float range, such as a huge index
            self.magnitude = math.inf if magnitude > 0 else -math.inf
        msg = f"invariant {name!r} violated by {self.magnitude:.3e}"
        super().__init__(msg + (f": {detail}" if detail else ""))

    def payload(self) -> dict:
        # JSON has no NaN or infinity: send "nan", "inf" or "-inf" instead
        magnitude = self.magnitude if math.isfinite(self.magnitude) else repr(self.magnitude)
        return {**super().payload(), "invariant": self.name, "magnitude": magnitude}


class NotDecoherent(EngineError):
    """Record construction demanded medium decoherence and did not get it.

    ``offenders`` is offdiagonal_offenders' record array (alpha, beta,
    magnitude), largest first; error.json holds one JSON object per record.
    """

    code = "not-decoherent"
    exit_status = 4

    def __init__(self, offenders, tol: float):
        self.offenders = offenders
        self.tol = tol
        a, b, worst = offenders[0]
        super().__init__(
            f"history set is not medium decoherent at tol {tol:.3e}: "
            f"max |D({a},{b})| = {worst:.3e} among {len(offenders)} offending pair(s)"
        )

    def payload(self) -> dict:
        return {**super().payload(), "tolerance": self.tol, "offenders": self.offenders}


class CapExceeded(EngineError):
    code = "cap-exceeded"
    exit_status = 5

    def __init__(self, what: str, value: int, cap: int):
        self.what, self.value, self.cap = what, value, cap
        super().__init__(f"{what} = {value} exceeds cap {cap}")

    def payload(self) -> dict:
        return {**super().payload(), "what": self.what, "value": self.value, "cap": self.cap}


class ParseError(EngineError):
    """Model-file diagnostic with position and what was expected there."""

    code = "parse-error"
    exit_status = 2

    def __init__(self, line: int, col: int, expected: str, found: str = ""):
        self.line, self.col, self.expected, self.found = line, col, expected, found
        msg = f"line {line}, col {col}: expected {expected}"
        super().__init__(msg + (f", found {found!r}" if found else ""))

    def payload(self) -> dict:
        return {
            **super().payload(),
            "line": self.line,
            "col": self.col,
            "expected": self.expected,
            "found": self.found,
        }
