"""Uniform result record for verification checks.

Each check emits one VerificationReport: the two sides of the identity or
inequality it tested, their ratio, the tolerance it was gated at, and a
details dictionary for anything check-specific (grid shape, truncation
budget lines, flags).  Reports serialize to JSON, one object per line.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any

__all__ = ["VerificationReport"]


def _js(value: Any) -> Any:
    if isinstance(value, complex):
        return {"re": value.real, "im": value.imag}
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)
    if isinstance(value, dict):
        return {k: _js(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_js(v) for v in value]
    if hasattr(value, "item"):  # numpy scalar
        return _js(value.item())
    return value


def _ratio(lhs: float, rhs: float) -> float:
    """lhs / rhs, with x / 0 infinite and 0 / 0 zero."""
    if rhs != 0.0:
        return lhs / rhs
    return 0.0 if lhs == 0.0 else math.inf


@dataclass
class VerificationReport:
    name: str
    lhs: float
    rhs: float
    ratio: float
    tolerance: float
    passed: bool
    details: dict = field(default_factory=dict)

    def to_json(self) -> str:
        record = {
            "name": self.name,
            "lhs": _js(self.lhs),
            "rhs": _js(self.rhs),
            "ratio": _js(self.ratio),
            "tolerance": self.tolerance,
            "pass": bool(self.passed),
        }
        record.update({k: _js(v) for k, v in self.details.items() if k not in record})
        return json.dumps(record)

    def __bool__(self) -> bool:
        return self.passed
