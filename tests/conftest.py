import random
import warnings

import numpy as np
import pytest
from hypothesis import settings
from scipy import integrate

from ladderspec import eval_at

# Same examples on every run (derandomize), and no per-example time limit,
# so a slow machine cannot turn a passing property into a failure.
settings.register_profile("ladderspec", derandomize=True, deadline=None)
settings.load_profile("ladderspec")


def quadrature_oracle(f, tol=1e-12):
    """Adaptive 2D quadrature of f * sinh(xi) on the quadrant.

    Independent of the log-Gamma route: compactifies xi = atanh(u) and lets
    QAGS handle the integrable endpoint singularities.
    """
    def integrand(u, th):
        xi = np.arctanh(u)
        return eval_at(f, th, xi) * np.sinh(xi) / (1.0 - u * u)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        val, _ = integrate.dblquad(integrand, 0.0, np.pi / 2, 0.0, 1.0,
                                   epsabs=tol, epsrel=tol)
    return val


@pytest.fixture
def rng():
    return random.Random(20240817)
