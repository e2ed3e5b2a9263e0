"""Verification report shared by every verify_* operation.

A verify_* function fills in the verdict, residual, params and details;
``cli.run_check`` stamps the check id, the registry anchor and ``ms``, the
wall time of the whole check.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class VerificationReport:
    check_id: str
    verdict: bool
    residual: str = ""
    params: dict = field(default_factory=dict)
    anchor: str = ""
    ms: float = 0.0
    details: list = field(default_factory=list)

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

    def text_line(self):
        line = f"{self.verdict_str} {self.check_id} ({self.anchor}) {self.ms:.0f}ms"
        if not self.verdict and self.residual:
            line += f"\n  residual: {self.residual}"
        if not self.verdict and self.details:
            line += "".join(f"\n  {d}" for d in self.details)
        return line

