"""Assumption-lean regression.

Working models (OLS, logistic, Poisson) are treated as best
approximations of an unknown response surface under i.i.d. sampling
alone.  The package provides plug-in estimation, sandwich and x-y
bootstrap standard errors, calibrated prediction intervals, and exact
finite-population oracles for verifying the underlying identities.
"""

from .bootstrap import (
    BootstrapDraws,
    NormalityReport,
    bootstrap_se,
    normality_diagnostic,
    residual_bootstrap,
    xy_bootstrap,
)
from .core import Dataset, load_csv, write_csv
from .covariance import (
    CoefficientTable,
    coefficient_table,
    conventional_cov,
    sandwich_cov,
    se_and_pvalues,
)
from .exceptions import LeanRegError
from .fitting import (
    BERNOULLI,
    GAUSSIAN,
    POISSON,
    Family,
    FitResult,
    exp_coef,
    family_by_name,
    fit_glm,
    predict_mean,
)
from .population import (
    CoverageResult,
    DiscretePopulation,
    PopulationDecomposition,
    check_orthogonality,
    coverage_experiment,
    decompose,
    load_population_file,
    make_population,
    normal_quadrature_law,
    population_beta,
    regressor_shift_experiment,
    sample,
    uniform_grid_law,
)
from .prediction import (
    PredictionBand,
    calibrate_K,
    cv_calibrate_K,
    future_coverage,
    interval,
    make_band,
)
from .report import MisspecIndicator, misspec_indicator
from .slopes import (
    PairwiseSlopeSummary,
    adjust_regressor,
    pairwise_slope_multiple,
    pairwise_slope_simple,
)

__version__ = "0.1.0"
