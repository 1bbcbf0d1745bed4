"""The seeded recipe behind the bundled ``charges_synthetic.csv``.

The charges-like dataset mimics the schema of an offender-charges
count regression (age, sex, prior-record measures, age at first
charge -> count response).  It is generated by the seeded recipe below;
its numbers are deliberately synthetic and stand in for no real data.
The response is drawn with a gamma-mixed (overdispersed) count law, so
a Poisson working model is misspecified and the sandwich/conventional
SE contrast is visible in the demo output.

``leanreg.core.dataset_to_csv_text(synthetic_charges())`` is the
bundled file's text, byte for byte; ``test_properties.py`` checks it.
"""

from __future__ import annotations

import numpy as np

from leanreg.core import Dataset, check_integer
from leanreg.rng import substream

CHARGES_COLUMNS = (
    "age",
    "male",
    "priors",
    "prior_sentences",
    "drug_priors",
    "age_first_charge",
)

DEFAULT_N = 2000
DEFAULT_SEED = 20150701


def synthetic_charges(n: int = DEFAULT_N, seed: int = DEFAULT_SEED) -> Dataset:
    """Seeded recipe for the bundled charges-like dataset.

    Covariates:
      age               18..65, right-skewed
      male              Bernoulli(0.8)
      priors            overdispersed count (negative binomial)
      prior_sentences   Binomial(priors, 0.3)
      drug_priors       Binomial(priors, 0.35)
      age_first_charge  uniform between 10 and age

    Response: charges = 1 + Poisson(lambda * G) with log-linear lambda
    in the covariates and a Gamma(0.4, 2.5) multiplier G (mean 1,
    variance 2.5) that induces strong overdispersion, hence visible
    misspecification of the Poisson working model.
    """
    check_integer(n, "n", 1)
    rng = substream(seed)
    age = np.floor(18 + 48 * rng.beta(1.6, 2.4, size=n))
    male = (rng.random(n) < 0.8).astype(float)
    priors = rng.negative_binomial(1.2, 0.12, size=n).astype(float)
    prior_sentences = rng.binomial(priors.astype(int), 0.30).astype(float)
    drug_priors = rng.binomial(priors.astype(int), 0.35).astype(float)
    age_first_charge = np.floor(10 + (age - 10) * rng.random(n))

    log_lam = (
        1.4
        - 0.015 * age
        + 0.10 * male
        + 0.012 * priors
        - 0.002 * prior_sentences
        - 0.020 * drug_priors
        + 0.004 * age_first_charge
    )
    g = rng.gamma(0.4, 2.5, size=n)
    charges = 1.0 + rng.poisson(np.exp(log_lam) * g)

    regressors = np.column_stack(
        [age, male, priors, prior_sentences, drug_priors, age_first_charge]
    )
    return Dataset(
        response=charges.astype(float),
        regressors=regressors,
        names=CHARGES_COLUMNS,
        response_name="charges",
    )
