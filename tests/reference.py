"""The built-in costs and the three methods written out one agent at a time: an oracle independent of the package.

The package evaluates every cost, per-point objectives included, through
the batched formulas of its agent families. These are the plain 2-D
formulas for one agent, with scipy's expit as the sigmoid, so the
families can be checked against code that does not share theirs; the
central differences check any cost's derivatives against its values.
``trajectory`` runs giant, gt and dgd the same way: dense ``p @ x`` per
consensus round, one ``np.linalg.solve`` per agent, and the six metrics
of every iteration from the per-agent formulas. ``csr_product`` is a
CSR product in plain Python floats, one row sum at a time. ``Loop`` is a user
family over such per-agent functions, evaluated one agent at a time, so
the package's own paths can run on agents written outside it.
"""

from functools import cached_property

import numpy as np
from scipy.special import expit

from giantnet.objectives import AgentFamily, LogisticFamily, QuadraticFamily


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


class Loop(AgentFamily):
    """A family over per-agent functions ``x -> (value, gradient, Hessian)`` of one dimension d.

    The agents may be of mixed kinds, logistic agents of unequal sample
    counts. Row i of a stack goes to agent i; a family of one agent takes
    every row, as the averaged cost must.
    """

    def __init__(self, funcs, d):
        self.funcs, self.d = tuple(funcs), d

    @classmethod
    def of(cls, family):
        """The agents of a stacked family, as the plain formulas above."""
        return cls(agents(family), family.shape[1])

    @property
    def shape(self):
        return len(self.funcs), self.d

    @property
    def floats(self):
        return self.d * (self.d + 1) + 1  # one agent's value, gradient and Hessian at a time

    def _rows(self, x, k):
        funcs = self.funcs * len(x) if len(self.funcs) == 1 else self.funcs
        return np.array([f(xi)[k] for f, xi in zip(funcs, x, strict=True)])

    def values_and_gradients(self, x):
        return self._rows(x, 0), self._rows(x, 1)

    def gradients(self, x):
        return self._rows(x, 1)

    def hessians(self, x):
        return self._rows(x, 2)

    @cached_property
    def average(self):
        def mean(x):
            rows = [f(x) for f in self.funcs]
            return tuple(np.mean([row[k] for row in rows], axis=0) for k in range(3))

        return Loop([mean], self.d)


def csr_product(csr, x):
    """``csr @ x`` for an (n,) vector or an (n, d) stack: each row added from 0.0, left to right in column order."""
    stack = np.asarray(x).reshape(len(x), -1)
    d, rows = stack.shape[1], stack.tolist()
    vals, cols = csr.vals.tolist(), csr.cols.tolist()
    ends = [*csr.starts[1:].tolist(), len(cols)]
    out = []
    for start, end in zip(csr.starts.tolist(), ends):
        for k in range(d):
            acc = 0.0
            for i in range(start, end):
                acc = acc + vals[i] * rows[cols[i]][k]
            out.append(acc)
    return np.array(out, dtype=float).reshape(np.shape(x))


def stacked(family, x):
    """Values (n,), gradients (n, d) and Hessians (n, d, d), agent i at row i of ``x``."""
    rows = [agent(x[i]) for i, agent in enumerate(agents(family))]
    return tuple(np.array([row[k] for row in rows]) for k in range(3))


def averaged(family, x):
    """Value, gradient and Hessian of (1/n) * sum_i f_i at the single point ``x``."""
    rows = [agent(x) for agent in agents(family)]
    return tuple(np.mean([row[k] for row in rows], axis=0) for k in range(3))


def metrics(family, x, w, g, f_star):
    """opt_gap, consensus_err, grad_norm, tracking_drift and lyapunov of one state; dgd has w = g = None."""
    x_bar = x.mean(axis=0)
    value, gradient, _ = averaged(family, x_bar)
    gap = value - f_star
    drift = 0.0 if w is None else np.linalg.norm(w.sum(axis=0) - g.sum(axis=0))
    return [gap, np.linalg.norm(x - x_bar), np.linalg.norm(gradient), drift, gap]


def trajectory(algorithm, family, p, epsilon, k, x0, x_star, iterations):
    """The (iterations + 1, 6) metric rows of giant, gt or dgd from ``x0``, and the final iterate.

    giant mixes k rounds per iteration, gt and dgd one.
    """
    funcs = agents(family)
    f_star = averaged(family, x_star)[0]

    def grads(x):
        return np.array([f(xi)[1] for f, xi in zip(funcs, x)])

    def mix(v, rounds):
        for _ in range(rounds):
            v = p @ v
        return v

    x = np.array(x0, dtype=float)
    w = g = None if algorithm == "dgd" else grads(x)
    rows = [[0, *metrics(family, x, w, g, f_star)]]
    for t in range(1, iterations + 1):
        if algorithm == "giant":
            fresh = grads(x)
            w = mix(w + fresh - g, k)
            directions = np.array([np.linalg.solve(f(xi)[2], wi) for f, xi, wi in zip(funcs, x, w)])
            x, g = mix(x - epsilon * directions, k), fresh
        elif algorithm == "gt":
            x = p @ x - epsilon * w
            fresh = grads(x)
            w, g = p @ w + fresh - g, fresh
        else:
            x = p @ x - epsilon * grads(x)
        rows.append([t, *metrics(family, x, w, g, f_star)])
    return np.array(rows), x


def finite_difference_gradient(func, x: np.ndarray) -> np.ndarray:
    """Central-difference gradient of a scalar function, step 1e-6 * (1 + ||x||_inf)."""
    x = np.asarray(x, dtype=float)
    h = 1e-6 * (1.0 + np.abs(x).max(initial=0.0))
    grad = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        grad[i] = (func(x + e) - func(x - e)) / (2.0 * h)
    return grad


def finite_difference_hessian(grad_func, x: np.ndarray) -> np.ndarray:
    """Central-difference Jacobian of a gradient function; columns are perturbed coordinates."""
    x = np.asarray(x, dtype=float)
    h = 1e-6 * (1.0 + np.abs(x).max(initial=0.0))
    cols = []
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        cols.append((grad_func(x + e) - grad_func(x - e)) / (2.0 * h))
    return np.stack(cols, axis=1)
