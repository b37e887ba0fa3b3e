"""Empirical moments of a Monte-Carlo sample, for the fixed-seed sampler tests."""

import numpy as np


def sample_moments(vals, top: int) -> tuple[dict[int, float], dict[int, float]]:
    """The mean and the standard deviation of vals**n for n = 1..top.

    Each power is one product with the last, kept in one array: a float
    array raised to an integer n >= 3 goes through pow, several times slower."""
    means, stds = {}, {}
    power = np.ones_like(vals)
    for n in range(1, top + 1):
        power *= vals
        means[n], stds[n] = float(power.mean()), float(power.std())
    return means, stds
