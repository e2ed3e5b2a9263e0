"""Verification report shared by every verify_* operation.

The registry in ``cli`` names a check: ``cli.run_check`` stamps the check
id, the registry anchor, the params and ``ms``, the wall time of the whole
check.  :meth:`VerificationReport.from_failures` decides it: a check is its
list of failures, and it passes exactly when that list is empty.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# length of a FAIL residual; the details keep every failure in full
RESIDUAL_CAP = 400


@dataclass
class VerificationReport:
    check_id: str
    verdict: bool
    residual: str = ""
    params: dict = field(default_factory=dict)
    anchor: str = ""
    ms: float = 0.0
    details: list = field(default_factory=list)

    @classmethod
    def from_failures(cls, failures, params=None, details=None):
        """PASS exactly when ``failures`` is empty; the residual is the
        failures joined by "; " and cut at RESIDUAL_CAP characters.  The
        details are the failures unless the caller passes its own lines."""
        failures = list(failures)
        return cls(
            check_id="",
            verdict=not failures,
            residual="; ".join(failures)[:RESIDUAL_CAP],
            params=params or {},
            details=failures if details is None else details,
        )

    @property
    def verdict_str(self):
        return "PASS" if self.verdict else "FAIL"

    def to_dict(self):
        return {
            "id": self.check_id,
            "verdict": self.verdict_str,
            "residual": self.residual,
            "params": {k: str(v) for k, v in self.params.items()},
            "anchor": self.anchor,
            "ms": round(self.ms, 3),
            "details": list(self.details),
        }

    def details_hold_residual(self):
        """True when the residual is some of the detail lines, in order,
        joined by "; " (the last one possibly cut at RESIDUAL_CAP), so the
        details already show all of it."""
        rest = self.residual
        for d in self.details:
            if d.startswith(rest):
                return True
            if rest.startswith(d + "; "):
                rest = rest[len(d) + 2 :]
        return not rest

    def text_line(self):
        line = f"{self.verdict_str} {self.check_id} ({self.anchor}) {self.ms:.0f}ms"
        if not self.verdict and self.residual and not self.details_hold_residual():
            line += f"\n  residual: {self.residual}"
        if not self.verdict and self.details:
            line += "".join(f"\n  {d}" for d in self.details)
        return line
