"""Indirect misspecification diagnostics from the coefficient table.

When the working model is correct to first and second order, the
sandwich and conventional covariances estimate the same thing, so a
per-coefficient SE ratio far from 1 - or a significance verdict that
flips between the two columns - is indirect evidence of
misspecification.  It is a heuristic indicator, not a test with a
stated error rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import check_level
from .covariance import CoefficientTable

__all__ = ["MisspecIndicator", "misspec_indicator", "RATIO_THRESHOLD"]

# The ratio comes with no natural cutoff; this heuristic one is
# deliberately conservative.  A ratio outside [1/RATIO_THRESHOLD,
# RATIO_THRESHOLD] is flagged.
RATIO_THRESHOLD = 1.5


@dataclass(frozen=True)
class MisspecIndicator:
    """Per-coefficient sandwich/conventional SE ratios and flags."""

    labels: tuple[str, ...]
    ratios: tuple[float, ...]
    flagged: tuple[str, ...]
    decision_reversals: tuple[str, ...]
    level: float

    def to_json_dict(self) -> dict:
        return {
            # JSON has no NaN or infinity: a ratio without a finite value is null.
            "se_ratios": {l: r if math.isfinite(r) else None for l, r in zip(self.labels, self.ratios)},
            "flagged": list(self.flagged),
            "decision_reversals": list(self.decision_reversals),
            "level": self.level,
            "ratio_threshold": RATIO_THRESHOLD,
        }

    def to_text(self) -> str:
        lines = [
            "Misspecification indicator (indirect evidence, not a test):",
            f"  sandwich/conventional SE ratios "
            f"(flag outside [{1 / RATIO_THRESHOLD:.3g}, {RATIO_THRESHOLD:.3g}]):",
        ]
        for label, ratio in zip(self.labels, self.ratios):
            mark = "  *" if label in self.flagged else ""
            lines.append(f"    {label}: {ratio:.4f}{mark}")
        if self.decision_reversals:
            lines.append(
                f"  decision reversals at level {self.level:g}: "
                + ", ".join(self.decision_reversals)
            )
        else:
            lines.append(f"  no decision reversals at level {self.level:g}")
        return "\n".join(lines) + "\n"


def misspec_indicator(table: CoefficientTable, level: float = 0.05) -> MisspecIndicator:
    """Compare SE columns and flag ratios and significance reversals.

    A reversal is ``p_conv < level <= p_sand`` or
    ``p_sand < level <= p_conv``.
    """
    check_level(level, "level")
    se_conv, se_sand, p_conv, p_sand = table.se_conv, table.se_sand, table.p_conv, table.p_sand
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(
            (se_conv <= 0.0) | (se_sand <= 0.0),
            np.where(se_sand == se_conv, np.nan, np.inf),
            se_sand / se_conv,
        )
    flagged = (ratios > RATIO_THRESHOLD) | (ratios < 1.0 / RATIO_THRESHOLD)
    reversed_ = ((p_conv < level) & (level <= p_sand)) | ((p_sand < level) & (level <= p_conv))
    labels = np.array(table.labels, dtype=object)
    return MisspecIndicator(
        labels=tuple(table.labels),
        ratios=tuple(ratios.tolist()),
        flagged=tuple(labels[flagged]),
        decision_reversals=tuple(labels[reversed_]),
        level=level,
    )
