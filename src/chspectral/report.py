"""Verification report carrier shared by the identity checks and the CLI."""

from __future__ import annotations

import json
from dataclasses import dataclass, field


@dataclass
class VerificationReport:
    """Outcome of one numerical identity check.

    residuals is a list of rows (one row per case, one entry per quantity);
    passed means every residual met the stated tolerance.  tables maps an
    artifact name to (CSV header, columns) computed by the check itself;
    like labels and notes it stays out of the JSON report.
    """

    identity: str
    n: int
    residuals: list = field(default_factory=list)
    tolerance: float = 0.0
    passed: bool = True
    labels: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    tables: dict = field(default_factory=dict)

    def add_case(self, row, ok, label=None):
        self.residuals.append([float(r) for r in row])
        self.labels.append("" if label is None else str(label))
        if not ok:
            self.passed = False

    def to_dict(self):
        return {"identity": self.identity, "n": self.n,
                "residuals": [[float(r) for r in row] for row in self.residuals],
                "tolerance": self.tolerance, "pass": self.passed}

    def to_json(self, indent=2):
        return json.dumps(self.to_dict(), indent=indent)
