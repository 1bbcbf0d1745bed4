"""Indirect misspecification diagnostics from the coefficient table.

When the working model is correct to first and second order, the
sandwich and conventional covariances estimate the same thing, so a
per-coefficient SE ratio far from 1 - or a significance verdict that
flips between the two columns - is indirect evidence of
misspecification.  It is a heuristic indicator, not a test with a
stated error rate.
"""

from __future__ import annotations

from dataclasses import dataclass

from .covariance import CoefficientTable
from .exceptions import ColumnError, DomainError

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
            "se_ratios": {l: r for l, r in zip(self.labels, self.ratios)},
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
    if not 0.0 < level < 1.0:
        raise DomainError(f"level must be in (0, 1), got {level}")
    labels, ratios, flagged, reversals = [], [], [], []
    for row in table.rows:
        if row.se_sand is None or row.se_conv is None:
            raise ColumnError(f"row {row.label!r} is missing an SE column")
        if row.se_conv <= 0.0 or row.se_sand <= 0.0:
            ratio = float("nan") if row.se_sand == row.se_conv else float("inf")
        else:
            ratio = row.se_sand / row.se_conv
        labels.append(row.label)
        ratios.append(ratio)
        if ratio == ratio and (ratio > RATIO_THRESHOLD or ratio < 1.0 / RATIO_THRESHOLD):
            flagged.append(row.label)
        if (row.p_conv < level <= row.p_sand) or (row.p_sand < level <= row.p_conv):
            reversals.append(row.label)
    return MisspecIndicator(
        labels=tuple(labels),
        ratios=tuple(ratios),
        flagged=tuple(flagged),
        decision_reversals=tuple(reversals),
        level=level,
    )
