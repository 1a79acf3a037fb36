"""The built-in costs written out one agent at a time: an oracle independent of the package.

The package evaluates every cost, per-point objectives included, through
the batched formulas of its agent families. These are the plain 2-D
formulas for one agent, with scipy's expit as the sigmoid, so the
families can be checked against code that does not share theirs.
"""

import numpy as np
from scipy.special import expit

from giantnet.objectives import LogisticFamily, QuadraticFamily


def quadratic(a, b, c, x):
    """(value, gradient, Hessian) of 0.5 * x'Ax + b'x + c."""
    return 0.5 * x @ a @ x + b @ x + c, a @ x + b, a


def logistic(features, labels, ridge, x):
    """(value, gradient, Hessian) of the ridge-logistic loss over m samples."""
    m, d = features.shape
    margins = labels * (features @ x)
    value = np.logaddexp(0.0, -margins).mean() + 0.5 * ridge * x @ x
    gradient = features.T @ (-labels * expit(-margins)) / m + ridge * x
    s = expit(margins)
    hessian = (features.T * (s * (1.0 - s))) @ features / m + ridge * np.eye(d)
    return value, gradient, hessian


def agents(family):
    """One ``x -> (value, gradient, Hessian)`` function per agent of a stacked family."""
    if isinstance(family, QuadraticFamily):
        return [lambda x, a=a, b=b, c=c: quadratic(a, b, c, x) for a, b, c in zip(family.a, family.b, family.c)]
    assert isinstance(family, LogisticFamily)
    return [lambda x, f=f, y=y: logistic(f, y, family.ridge, x) for f, y in zip(family.features, family.labels)]


def stacked(family, x):
    """Values (n,), gradients (n, d) and Hessians (n, d, d), agent i at row i of ``x``."""
    rows = [agent(x[i]) for i, agent in enumerate(agents(family))]
    return tuple(np.array([row[k] for row in rows]) for k in range(3))


def averaged(family, x):
    """Value, gradient and Hessian of (1/n) * sum_i f_i at the single point ``x``."""
    rows = [agent(x) for agent in agents(family)]
    return tuple(np.mean([row[k] for row in rows], axis=0) for k in range(3))
