"""Cross-library agreement checks (skipped when statsmodels is absent).

An entirely independent implementation of the same estimators is a
stronger oracle than any hand example; these pin the whole stack
(coefficients, conventional and robust covariances, both GLM families)
against it on fixed data.
"""

import numpy as np
import pytest

import leanreg as lr

sm = pytest.importorskip("statsmodels.api")


def regressors(seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((400, 2))
    return rng, x, np.column_stack([np.ones(400), x])


def test_ols_and_covariances_match():
    rng, x, design = regressors(3)
    y = 1 + x @ [0.5, -1.0] + (1 + 0.5 * np.abs(x[:, 0])) * rng.standard_normal(400)
    ds = lr.Dataset(y, x, names=("a", "b"))
    fit = lr.fit_glm(ds, lr.GAUSSIAN)
    ref_robust = sm.OLS(y, design).fit(cov_type="HC0")
    ref_plain = sm.OLS(y, design).fit()
    assert np.allclose(fit.beta_hat, ref_robust.params, atol=1e-12)
    assert np.allclose(lr.sandwich_cov(fit), ref_robust.cov_HC0, atol=1e-14)
    assert np.allclose(
        lr.conventional_cov(fit), ref_plain.cov_params(), atol=1e-14
    )


def test_logit_coefficients_and_information():
    rng, x, design = regressors(4)
    p = 1.0 / (1.0 + np.exp(-(0.3 + x[:, 0])))
    y = (rng.random(400) < p).astype(float)
    fit = lr.fit_glm(lr.Dataset(y, x, names=("a", "b")), lr.BERNOULLI)
    ref = sm.GLM(y, design, family=sm.families.Binomial()).fit()
    assert np.allclose(fit.beta_hat, ref.params, atol=1e-8)
    assert np.allclose(
        lr.conventional_cov(fit), ref.cov_params(), atol=1e-8
    )


def test_poisson_coefficients_and_sandwich():
    rng, x, design = regressors(5)
    y = rng.poisson(np.exp(0.2 + 0.3 * x[:, 0])).astype(float)
    fit = lr.fit_glm(lr.Dataset(y, x, names=("a", "b")), lr.POISSON)
    ref = sm.GLM(y, design, family=sm.families.Poisson()).fit(cov_type="HC0")
    assert np.allclose(fit.beta_hat, ref.params, atol=1e-10)
    assert np.allclose(lr.sandwich_cov(fit), ref.cov_params(), atol=1e-14)
