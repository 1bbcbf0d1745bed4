"""SE-ratio misspecification indicator and decision reversals."""

import pytest

from leanreg.covariance import table_from_published
from leanreg.exceptions import ColumnError, DomainError
from leanreg.report import misspec_indicator

# Published seven-column report from a misspecified count regression,
# used as a rendering/diagnostics fixture (its provenance numbers are
# not reproduced anywhere else in this package).
PUBLISHED_ROWS = [
    {"label": "(Intercept)", "coef": 1.8802, "se_conv": 0.0205, "p_conv": 0.0000,
     "se_boot": 0.0522, "se_sand": 0.0526, "p_sand": 0.0000},
    {"label": "Age", "coef": -0.0147, "se_conv": 0.0006, "p_conv": 0.0000,
     "se_boot": 0.0016, "se_sand": 0.0016, "p_sand": 0.0000},
    {"label": "Male", "coef": 0.0823, "se_conv": 0.0127, "p_conv": 0.0000,
     "se_boot": 0.0284, "se_sand": 0.0299, "p_sand": 0.0058},
    {"label": "Number of Priors", "coef": 0.0031, "se_conv": 0.0002, "p_conv": 0.0000,
     "se_boot": 0.0005, "se_sand": 0.0005, "p_sand": 0.0000},
    {"label": "Number of Prior Sentences", "coef": 0.0002, "se_conv": 0.0016,
     "p_conv": 0.8868, "se_boot": 0.0040, "se_sand": 0.0039, "p_sand": 0.9519},
    {"label": "Number of Drug Priors", "coef": -0.0138, "se_conv": 0.0008,
     "p_conv": 0.0000, "se_boot": 0.0021, "se_sand": 0.0020, "p_sand": 0.0000},
    {"label": "Age At First Charge", "coef": 0.0028, "se_conv": 0.0009,
     "p_conv": 0.0012, "se_boot": 0.0022, "se_sand": 0.0021, "p_sand": 0.1935},
]


def published_table():
    return table_from_published(PUBLISHED_ROWS)


class TestMisspecIndicator:
    def test_age_ratio_flagged(self):
        ind = misspec_indicator(published_table(), level=0.05)
        ratios = dict(zip(ind.labels, ind.ratios))
        assert ratios["Age"] == pytest.approx(0.0016 / 0.0006, rel=1e-12)
        assert ratios["Age"] > 2.6
        assert "Age" in ind.flagged

    def test_reversal_detected(self):
        ind = misspec_indicator(published_table(), level=0.05)
        assert ind.decision_reversals == ("Age At First Charge",)

    def test_identical_columns_no_flags(self):
        rows = [
            {"label": "a", "coef": 1.0, "se_conv": 0.1, "p_conv": 0.01,
             "se_sand": 0.1, "p_sand": 0.01},
            {"label": "b", "coef": 0.0, "se_conv": 0.2, "p_conv": 1.0,
             "se_sand": 0.2, "p_sand": 1.0},
        ]
        ind = misspec_indicator(table_from_published(rows))
        assert ind.flagged == ()
        assert ind.decision_reversals == ()
        assert all(r == 1.0 for r in ind.ratios)

    def test_scale_invariance(self):
        # Rescaling a regressor multiplies both SEs by the same factor.
        base = [
            {"label": "x", "coef": 2.0, "se_conv": 0.5, "p_conv": 0.02,
             "se_sand": 1.0, "p_sand": 0.2},
        ]
        scaled = [
            {"label": "x", "coef": 2.0 / 10, "se_conv": 0.05, "p_conv": 0.02,
             "se_sand": 0.1, "p_sand": 0.2},
        ]
        i1 = misspec_indicator(table_from_published(base))
        i2 = misspec_indicator(table_from_published(scaled))
        assert i1.ratios == pytest.approx(i2.ratios)
        assert i1.flagged == i2.flagged
        assert i1.decision_reversals == i2.decision_reversals

    def test_reversal_in_other_direction(self):
        rows = [
            {"label": "x", "coef": 1.0, "se_conv": 0.9, "p_conv": 0.30,
             "se_sand": 0.3, "p_sand": 0.01},
        ]
        ind = misspec_indicator(table_from_published(rows))
        assert ind.decision_reversals == ("x",)
        assert "x" in ind.flagged  # ratio 1/3 below the lower bound

    def test_missing_sandwich_column(self):
        with pytest.raises(ColumnError):
            table_from_published([{"label": "x", "coef": 1.0,
                                   "se_conv": 0.1, "p_conv": 0.5}])

    def test_level_domain(self):
        with pytest.raises(DomainError):
            misspec_indicator(published_table(), level=1.0)

    def test_text_rendering_mentions_reversal(self):
        text = misspec_indicator(published_table()).to_text()
        assert "Age At First Charge" in text
        assert "indirect evidence" in text
