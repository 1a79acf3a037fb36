"""Local cost functions held by the agents, and synthetic problem generation.

Each objective family exposes value, gradient and Hessian, and declares
global curvature bounds mu and L such that mu*I <= hessian(x) <= L*I
everywhere. Objectives are immutable after construction and evaluation is
pure, so instances are safe to share across threads.

An instance evaluates all of its agents at once through an agent family:
the quadratic family holds ``A (n,d,d)``, ``b (n,d)`` and ``c (n,)``, the
logistic family ``F (n,m,d)``, ``Y (n,m)`` and ``ridge``, and each
quantity is one batched numpy expression over those stacks. An instance
holds its family only; per-agent objectives are built on demand, as views
into the stacks. An instance built from a tuple of objectives (mixed
families, user subclasses, logistic agents with unequal sample counts)
wraps them in ``ObjectiveLoop``, which loops over the objects.

The averaged cost (1/n) * sum_i f_i of a stacked family is itself one
objective of that family: the quadratic with the mean A, b and c, and the
logistic loss over all n*m samples pooled (every agent has m of them). So
the cost, gradient and Hessian at a single point take one evaluation, not n.

The logistic sigmoid is scipy.special.expit's formula, 1 / (1 + exp(-t)),
evaluated with numpy's exp, so the package needs numpy alone at run time.
"""

from __future__ import annotations

import sys
from abc import ABC, abstractmethod
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np
from numpy.random import Generator, Philox

from .errors import DimensionMismatch, InvalidSpec
from .numerics import is_finite_real, is_integer, is_real, spd_factorize, spd_factorize_stack, spd_solve
from .topology import MAX_NODES

# Quadratic heterogeneity h maps to per-agent eigenvalues drawn
# log-uniformly from [1, 1 + h * HETEROGENEITY_SPREAD], so h = 1 yields a
# condition spread of 11 across the instance.
HETEROGENEITY_SPREAD = 10.0
# Above it the top eigenvalue 1 + h * HETEROGENEITY_SPREAD is not a finite float.
MAX_HETEROGENEITY = sys.float_info.max / HETEROGENEITY_SPREAD


def _sigmoid(t: np.ndarray) -> np.ndarray:
    """scipy.special.expit's formula, 1 / (1 + exp(-t)), over numpy's exp.

    For t below about -709.8, exp(-t) overflows to inf and the quotient is
    exactly 0; that overflow is the intended result, so it is not warned.
    """
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-t))


class LocalObjective(ABC):
    """A twice-differentiable strongly convex cost over R^d."""

    @property
    @abstractmethod
    def dimension(self) -> int: ...

    @abstractmethod
    def value(self, x: np.ndarray) -> float: ...

    @abstractmethod
    def gradient(self, x: np.ndarray) -> np.ndarray: ...

    @abstractmethod
    def hessian(self, x: np.ndarray) -> np.ndarray: ...

    def _check_point(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dimension,):
            raise DimensionMismatch(
                f"point has shape {x.shape}, objective dimension is {self.dimension}"
            )
        return x


class QuadraticObjective(LocalObjective):
    """f(x) = 0.5 * x'Ax + b'x + c with symmetric positive definite A."""

    def __init__(self, a: np.ndarray, b: np.ndarray, c: float = 0.0):
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or b.shape != (a.shape[0],):
            raise DimensionMismatch(
                f"incompatible quadratic data: A {a.shape}, b {b.shape}"
            )
        self.a = a
        self.b = b
        self.c = float(c)

    @property
    def dimension(self) -> int:
        return self.a.shape[0]

    def value(self, x: np.ndarray) -> float:
        x = self._check_point(x)
        return float(0.5 * x @ self.a @ x + self.b @ x + self.c)

    def gradient(self, x: np.ndarray) -> np.ndarray:
        x = self._check_point(x)
        return self.a @ x + self.b

    def hessian(self, x: np.ndarray) -> np.ndarray:
        self._check_point(x)
        return self.a.copy()


def _check_ridge(ridge) -> None:
    # NaN fails the comparison; a bool or a string is not a ridge weight.
    if not (is_real(ridge) and ridge > 0):
        raise InvalidSpec(f"ridge weight must be a positive real number, got {ridge!r}")


class LogisticObjective(LocalObjective):
    """Ridge-regularized logistic loss over labelled samples.

    f(x) = (1/m) * sum_j log(1 + exp(-y_j * a_j'x)) + (ridge/2) * ||x||^2

    with features a_j stacked as rows, labels y_j in {-1, +1} and
    ridge > 0, which guarantees mu >= ridge.
    """

    def __init__(self, features: np.ndarray, labels: np.ndarray, ridge: float):
        features = np.asarray(features, dtype=float)
        labels = np.asarray(labels, dtype=float)
        if features.ndim != 2 or labels.shape != (features.shape[0],):
            raise DimensionMismatch(
                f"incompatible sample data: features {features.shape}, labels {labels.shape}"
            )
        if not np.all(np.isin(labels, (-1.0, 1.0))):
            raise InvalidSpec("labels must be -1 or +1")
        _check_ridge(ridge)
        self.features = features
        self.labels = labels
        self.ridge = float(ridge)

    @property
    def dimension(self) -> int:
        return self.features.shape[1]

    def _margins(self, x: np.ndarray) -> np.ndarray:
        return self.labels * (self.features @ x)

    def value(self, x: np.ndarray) -> float:
        x = self._check_point(x)
        losses = np.logaddexp(0.0, -self._margins(x))
        return float(losses.mean() + 0.5 * self.ridge * x @ x)

    def gradient(self, x: np.ndarray) -> np.ndarray:
        x = self._check_point(x)
        # d/dt log(1 + exp(-t)) = -sigmoid(-t)
        coeffs = -self.labels * _sigmoid(-self._margins(x))
        m = self.features.shape[0]
        return self.features.T @ coeffs / m + self.ridge * x

    def hessian(self, x: np.ndarray) -> np.ndarray:
        x = self._check_point(x)
        s = _sigmoid(self._margins(x))
        weights = s * (1.0 - s)
        m = self.features.shape[0]
        h = (self.features.T * weights) @ self.features / m
        h += self.ridge * np.eye(self.dimension)
        return h


class AgentFamily(ABC):
    """The n agents: ``shape`` (n, d), ``objectives``, and gradients and Hessians, row i at row i of X."""

    @abstractmethod
    def gradients(self, x: np.ndarray) -> np.ndarray: ...

    @abstractmethod
    def hessians(self, x: np.ndarray) -> np.ndarray: ...

    def hessian_factors(self, x: np.ndarray) -> np.ndarray:
        """Stacked lower Cholesky factors of the local Hessians."""
        return spd_factorize_stack(self.hessians(x))

    @property
    @abstractmethod
    def average(self) -> LocalObjective:
        """The averaged cost (1/n) * sum_i f_i as one objective over R^d."""


@dataclass(frozen=True, eq=False)
class QuadraticFamily(AgentFamily):
    """f_i(x) = 0.5 * x'A_i x + b_i'x + c_i over stacks a (n,d,d), b (n,d), c (n,)."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        # Float arrays are kept as given, so generated stacks are not copied.
        for name in ("a", "b", "c"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        a, b, c = self.a, self.b, self.c
        if a.ndim != 3 or a.shape[1] != a.shape[2] or b.shape != a.shape[:2] or c.shape != a.shape[:1]:
            raise DimensionMismatch(f"incompatible quadratic stacks: A {a.shape}, b {b.shape}, c {c.shape}")

    @property
    def shape(self):
        return self.a.shape[:2]

    @property
    def objectives(self) -> tuple[QuadraticObjective, ...]:
        return tuple(QuadraticObjective(*args) for args in zip(self.a, self.b, self.c))

    def gradients(self, x):
        return np.einsum("nij,nj->ni", self.a, x) + self.b

    def hessians(self, x):
        out = self.a.view()
        out.flags.writeable = False
        return out

    def hessian_factors(self, x):
        return self._factors

    @cached_property
    def _factors(self) -> np.ndarray:
        # Constant Hessians: factored once per instance, on first use.
        return spd_factorize_stack(self.a)

    @cached_property
    def average(self) -> QuadraticObjective:
        return QuadraticObjective(self.a.mean(axis=0), self.b.mean(axis=0), self.c.mean())


@dataclass(frozen=True, eq=False)
class LogisticFamily(AgentFamily):
    """Ridge-logistic losses over stacks features (n,m,d) and labels (n,m)."""

    features: np.ndarray
    labels: np.ndarray
    ridge: float

    def __post_init__(self):
        for name in ("features", "labels"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        f, y = self.features, self.labels
        if f.ndim != 3 or y.shape != f.shape[:2]:
            raise DimensionMismatch(f"incompatible sample stacks: features {f.shape}, labels {y.shape}")
        if not np.all(np.isin(y, (-1.0, 1.0))):
            raise InvalidSpec("labels must be -1 or +1")
        _check_ridge(self.ridge)
        object.__setattr__(self, "ridge", float(self.ridge))

    @property
    def shape(self):
        return self.features.shape[0], self.features.shape[2]

    @property
    def objectives(self) -> tuple[LogisticObjective, ...]:
        return tuple(LogisticObjective(f, y, self.ridge) for f, y in zip(self.features, self.labels))

    def _margins(self, x):
        return self.labels * np.einsum("nmd,nd->nm", self.features, x)

    def gradients(self, x):
        coeffs = -self.labels * _sigmoid(-self._margins(x))
        m = self.features.shape[1]
        return np.einsum("nmd,nm->nd", self.features, coeffs) / m + self.ridge * x

    def hessians(self, x):
        s = _sigmoid(self._margins(x))
        weights = s * (1.0 - s)
        m, d = self.features.shape[1:]
        # The weighted transpose is the one (n, d, m) temporary per call.
        h = np.matmul(self.features.transpose(0, 2, 1) * weights[:, None, :], self.features)
        h /= m
        h += self.ridge * np.eye(d)
        return h

    @cached_property
    def average(self) -> LogisticObjective:
        # Views when the stacks are C-contiguous, as generated ones are.
        d = self.features.shape[2]
        return LogisticObjective(self.features.reshape(-1, d), self.labels.reshape(-1), self.ridge)


class _AgentMean(LocalObjective):
    """The mean of a tuple of objectives, each evaluated at the same point."""

    def __init__(self, objectives: tuple[LocalObjective, ...]):
        self.objectives = objectives

    @property
    def dimension(self) -> int:
        return self.objectives[0].dimension

    def value(self, x):
        x = self._check_point(x)
        return float(np.mean([obj.value(x) for obj in self.objectives]))

    def gradient(self, x):
        x = self._check_point(x)
        return np.mean([obj.gradient(x) for obj in self.objectives], axis=0)

    def hessian(self, x):
        x = self._check_point(x)
        return np.mean([obj.hessian(x) for obj in self.objectives], axis=0)


@dataclass(frozen=True)
class ObjectiveLoop(AgentFamily):
    """Any tuple of objectives, evaluated one agent at a time."""

    objectives: tuple[LocalObjective, ...]

    def __post_init__(self):
        if not self.objectives:
            raise InvalidSpec("instance needs at least one objective")
        dims = {obj.dimension for obj in self.objectives}
        if len(dims) != 1:
            raise DimensionMismatch(f"objectives disagree on dimension: {sorted(dims)}")

    @property
    def shape(self):
        return len(self.objectives), self.objectives[0].dimension

    def gradients(self, x):
        return np.stack([obj.gradient(x[i]) for i, obj in enumerate(self.objectives)])

    def hessians(self, x):
        return np.stack([obj.hessian(x[i]) for i, obj in enumerate(self.objectives)])

    @cached_property
    def average(self) -> _AgentMean:
        return _AgentMean(self.objectives)


@dataclass(frozen=True, eq=False)
class ProblemInstance:
    """n local objectives over a shared decision variable, with global bounds.

    ``family`` is the agents' one description, from which ``objectives``,
    ``n_agents`` and ``dimension`` derive; a tuple of objectives passed in its
    place is wrapped in ``ObjectiveLoop``. ``mu`` and ``lipschitz``, finite
    real numbers (never bools) with 0 < mu <= L, bound every local Hessian from
    below and above. ``reference_solution`` is the minimizer of the averaged
    cost when known; the harness fills it in for families without a closed
    form. Instances compare by identity.
    """

    family: AgentFamily = field(repr=False)
    mu: float
    lipschitz: float
    reference_solution: np.ndarray | None = None

    def __post_init__(self):
        if not isinstance(self.family, AgentFamily):
            object.__setattr__(self, "family", ObjectiveLoop(tuple(self.family)))
        if not self.n_agents >= 1:
            raise InvalidSpec("instance needs at least one agent")
        if not (is_finite_real(self.mu) and is_finite_real(self.lipschitz) and 0 < self.mu <= self.lipschitz):
            raise InvalidSpec(f"bounds must be finite with 0 < mu <= L, got ({self.mu!r}, {self.lipschitz!r})")

    @property
    def objectives(self) -> tuple[LocalObjective, ...]:
        return self.family.objectives

    @property
    def n_agents(self) -> int:
        return self.family.shape[0]

    @property
    def dimension(self) -> int:
        return self.family.shape[1]

    def consensus_stack(self, x: np.ndarray) -> np.ndarray:
        """The (n, d) stack with every agent at the single point ``x``; a read-only view."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dimension,):
            raise DimensionMismatch(
                f"point has shape {x.shape}, objective dimension is {self.dimension}"
            )
        return np.broadcast_to(x, self.family.shape)

    def check_stack(self, x: np.ndarray) -> np.ndarray:
        """``x`` as a float array, not copied if it is one, after checking its (n, d) shape."""
        x = np.asarray(x, dtype=float)
        if x.shape != self.family.shape:
            raise DimensionMismatch(f"stacked iterate has shape {x.shape}, expected {self.family.shape}")
        return x

    def average_value(self, x: np.ndarray) -> float:
        """(1/n) * sum_i f_i(x), the global cost at a single point of shape (d,).

        The three averages evaluate ``family.average`` once; it raises
        DimensionMismatch unless ``x`` has shape (d,).
        """
        return self.family.average.value(x)

    def average_gradient(self, x: np.ndarray) -> np.ndarray:
        return self.family.average.gradient(x)

    def average_hessian(self, x: np.ndarray) -> np.ndarray:
        return self.family.average.hessian(x)

    def stacked_gradient(self, x: np.ndarray) -> np.ndarray:
        """Row i of the result is grad f_i evaluated at row i of ``x``."""
        return self.family.gradients(self.check_stack(x))

    def stacked_hessian(self, x: np.ndarray) -> np.ndarray:
        """Entry i of the (n, d, d) result is hess f_i at row i of ``x``; treat it as read-only."""
        return self.family.hessians(self.check_stack(x))

    def hessian_factors(self, x: np.ndarray) -> np.ndarray:
        """Stacked lower Cholesky factors of the local Hessians at the rows of ``x``.

        Raises NotPositiveDefinite if any local Hessian is not positive definite.
        """
        return self.family.hessian_factors(self.check_stack(x))

    def with_reference(self, x_star: np.ndarray) -> "ProblemInstance":
        return replace(self, reference_solution=np.asarray(x_star, dtype=float))


@dataclass(frozen=True)
class ProblemSpec:
    """Recipe for a synthetic instance; the ``problem`` block of a config file."""

    kind: str
    n: int
    d: int
    samples_per_agent: int = 20
    ridge: float = 0.1
    heterogeneity: float = 0.0

    def __post_init__(self):
        # Messages lead with the config key (lambda for ridge); NaN fails every comparison.
        if self.kind not in ("quadratic", "logistic"):
            raise InvalidSpec(f"kind must be quadratic or logistic, got {self.kind!r}")
        if not (is_integer(self.n) and 1 <= self.n <= MAX_NODES):  # the agents are the graph's nodes
            raise InvalidSpec(f"n must be an integer in [1, {MAX_NODES}], got {self.n!r}")
        if not (is_integer(self.d) and self.d >= 1):
            raise InvalidSpec(f"d must be an integer >= 1, got {self.d!r}")
        if not is_integer(self.samples_per_agent):
            raise InvalidSpec(f"samples_per_agent must be an integer, got {self.samples_per_agent!r}")
        if not (is_real(self.heterogeneity) and 0 <= self.heterogeneity <= MAX_HETEROGENEITY):
            raise InvalidSpec(
                f"heterogeneity must be a number in [0, {MAX_HETEROGENEITY:.4g}], got {self.heterogeneity!r}"
            )
        if not is_finite_real(self.ridge):
            raise InvalidSpec(f"lambda (ridge) must be a finite number, got {self.ridge!r}")
        if self.kind == "logistic":
            if not self.ridge > 0:
                raise InvalidSpec(f"lambda (ridge) must be > 0 for logistic problems, got {self.ridge}")
            if not self.samples_per_agent >= 1:
                raise InvalidSpec("samples_per_agent must be >= 1 for logistic problems")


def generate_problem(seed: int, spec: ProblemSpec) -> ProblemInstance:
    """Build a deterministic synthetic instance from a seed and a spec.

    Uses the Philox counter-based generator, so identical (seed, spec)
    pairs draw the same numbers on any platform. The draws come agent by
    agent, in a fixed order: a quadratic agent draws its d
    log-eigenvalues, then its raw d x d normals; a logistic agent its
    shift, its m x d features, then its m label uniforms. The linear
    algebra (QR, products, eigenvalues) runs once on the (n, d, d)
    stacks after the draws, and gives the bits a per-agent loop gives;
    its last bits can differ between BLAS and LAPACK builds.

    Quadratic instances carry an exact reference solution obtained from
    the averaged normal equations. Logistic instances leave it unset; the
    harness computes one with the centralized Newton oracle.
    """
    rng = Generator(Philox(seed))
    if spec.kind == "quadratic":
        return _generate_quadratic(rng, spec)
    return _generate_logistic(rng, spec)


def _generate_quadratic(rng: Generator, spec: ProblemSpec) -> ProblemInstance:
    n, d, h = spec.n, spec.d, spec.heterogeneity
    top = 1.0 + h * HETEROGENEITY_SPREAD
    if h == 0.0:
        mats = np.tile(np.eye(d), (n, 1, 1))
    else:
        log_eigs = np.empty((n, d))
        raw = np.empty((n, d, d))
        for i in range(n):
            log_eigs[i] = rng.uniform(0.0, np.log(top), size=d)
            raw[i] = rng.standard_normal((d, d))
        # No Haar sign fix from diag(R): Q diag(e) Q^T is bitwise the same whatever Q's column signs.
        q = np.linalg.qr(raw)[0]
        a = (q * np.exp(log_eigs)[:, None, :]) @ np.swapaxes(q, 1, 2)
        mats = 0.5 * (a + np.swapaxes(a, 1, 2))
    b0 = rng.standard_normal(d)
    offsets = b0 + h * rng.standard_normal((n, d))

    # Exact minimizer of the averaged cost: (sum A_i) x = -sum b_i.
    a_sum = np.sum(mats, axis=0)
    x_star = spd_solve(spd_factorize(a_sum), -offsets.sum(axis=0))
    family = QuadraticFamily(mats, offsets, np.zeros(n))
    return ProblemInstance(family, mu=1.0, lipschitz=top, reference_solution=x_star)


def _generate_logistic(rng: Generator, spec: ProblemSpec) -> ProblemInstance:
    n, d, m, h = spec.n, spec.d, spec.samples_per_agent, spec.heterogeneity
    x_true = rng.standard_normal(d)
    features = np.empty((n, m, d))
    uniforms = np.empty((n, m))
    for i in range(n):
        shift = rng.standard_normal(d)
        features[i] = rng.standard_normal((m, d)) + h * shift
        uniforms[i] = rng.random(m)
    labels = np.where(uniforms < _sigmoid(features @ x_true), 1.0, -1.0)
    # ridge + g / (4m) rounds monotonically in g, so the largest Gram eigenvalue gives L.
    gram_top = np.linalg.eigvalsh(np.swapaxes(features, 1, 2) @ features)[:, -1].max()
    family = LogisticFamily(features, labels, spec.ridge)
    return ProblemInstance(family, mu=spec.ridge, lipschitz=float(spec.ridge + gram_top / (4.0 * m)))


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
