"""Exact asymptotic OLS covariances of a finite population: oracles for the tests.

Every moment is a finite sum over the support points, and the bread is
inverted with :func:`numpy.linalg.inv`, independently of the library's
Cholesky solve; nothing is simulated.
"""

import numpy as np

from leanreg.population import DiscretePopulation, decompose


def second_moment(pop: DiscretePopulation) -> np.ndarray:
    """E[x x'] as an exact finite sum."""
    return (pop.support.T * pop.probs) @ pop.support


def population_sandwich_av(pop: DiscretePopulation) -> np.ndarray:
    """Exact asymptotic sandwich covariance B^-1 M B^-1 (per observation)."""
    dec = decompose(pop)
    b_inv = np.linalg.inv(second_moment(pop))
    return b_inv @ dec.moments["E_delta2_XX"] @ b_inv


def population_conventional_av(pop: DiscretePopulation) -> np.ndarray:
    """Homoskedasticity-pooled asymptotic covariance sigma_delta^2 B^-1."""
    dec = decompose(pop)
    b_inv = np.linalg.inv(second_moment(pop))
    return dec.moments["sigma_delta2"] * b_inv
