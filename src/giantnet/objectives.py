"""Local cost functions held by the agents, and synthetic problem generation.

Each objective family exposes value, gradient and Hessian, and declares
global curvature bounds mu and L such that mu*I <= hessian(x) <= L*I
everywhere. Objectives are immutable after construction and evaluation is
pure, so instances are safe to share across threads.

An instance evaluates all of its agents at once through an agent family:
the quadratic family holds ``A (n,d,d)``, ``b (n,d)`` and ``c (n,)``, the
logistic family ``F (n,m,d)``, ``Y (n,m)`` and ``ridge``, and each
quantity is one batched numpy expression over those stacks: the only place
each cost's formulas are written. ``QuadraticObjective`` and
``LogisticObjective`` hold a family of one agent and evaluate it at single
points. An instance holds its family only; per-agent objectives are built
on demand, as views into the stacks. An instance built from a tuple of
objectives (mixed families, user subclasses, logistic agents with unequal
sample counts) wraps them in ``ObjectiveLoop``, which loops over the objects.

The averaged cost (1/n) * sum_i f_i is ``family.average``, a family of one
agent of the same class: the quadratic with the mean A, b and c, the
logistic loss over all n*m samples pooled (every agent has m of them), or
for ``ObjectiveLoop`` the mean of its objects. So the cost, gradient and
Hessian at a single point take one evaluation of one agent, not n, and
``values_and_gradients`` shares the quadratic A x or the logistic margins.
``newton_directions`` applies the inverse local Hessians by Cholesky
solves; the quadratic family's are constant, so it solves against the
identity once and then applies them as one batched matrix product.

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
from .numerics import is_finite_real, is_integer, is_real, spd_factorize, spd_factorize_stack, spd_solve, spd_solve_stack
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


def _as_point(x: np.ndarray, dimension: int) -> np.ndarray:
    """``x`` as a float array, after checking that it is one point of R^dimension."""
    x = np.asarray(x, dtype=float)
    if x.shape != (dimension,):
        raise DimensionMismatch(f"point has shape {x.shape}, objective dimension is {dimension}")
    return x


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
        return _as_point(x, self.dimension)


class AgentFamily(ABC):
    """The n agents: ``shape`` (n, d), ``objectives``, and values, gradients and Hessians, row i at row i of X."""

    @abstractmethod
    def values(self, x: np.ndarray) -> np.ndarray: ...

    @abstractmethod
    def gradients(self, x: np.ndarray) -> np.ndarray: ...

    @abstractmethod
    def hessians(self, x: np.ndarray) -> np.ndarray: ...

    def values_and_gradients(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(values(x), gradients(x))``, with the work they share done once where a family can."""
        return self.values(x), self.gradients(x)

    def newton_directions(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Row i is hess f_i(x_i)^{-1} v_i, by Cholesky solves against the stacked factors.

        Raises NotPositiveDefinite if any local Hessian is not positive definite.
        """
        return spd_solve_stack(spd_factorize_stack(self.hessians(x)), v)

    @property
    @abstractmethod
    def average(self) -> AgentFamily:
        """The averaged cost (1/n) * sum_i f_i as a family of one agent, of the same class."""

    @property
    def floats(self) -> int | None:
        """Floats in the family's arrays; None if its 1-agent form takes one point per call.

        A 1-agent quadratic or logistic family evaluates a (B, d) stack of
        points at once, with temporaries the size of its arrays per point.
        """
        return None


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
    def floats(self):
        return self.a.size + self.b.size + self.c.size

    @property
    def objectives(self) -> tuple[QuadraticObjective, ...]:
        return tuple(QuadraticObjective(*args) for args in zip(self.a, self.b, self.c))

    # Batched matmul, not einsum: less dispatch on the 1-agent average, which
    # the metrics evaluate every iteration.
    def values(self, x):
        return self.values_and_gradients(x)[0]

    def gradients(self, x):
        return (self.a @ x[..., None])[..., 0] + self.b

    def values_and_gradients(self, x):
        ax = (self.a @ x[..., None])[..., 0]
        return ((0.5 * ax + self.b) * x).sum(axis=1) + self.c, ax + self.b

    def hessians(self, x):
        out = self.a.view()
        out.flags.writeable = False
        return out

    def newton_directions(self, x, v):
        return (self._inverse @ v[..., None])[..., 0]

    @cached_property
    def _inverse(self) -> np.ndarray:
        # Constant Hessians: inverted once per instance, on first use, by the factor
        # solve of AgentFamily.newton_directions against the identity, so a round is one matmul.
        eye = np.broadcast_to(np.eye(self.a.shape[1]), self.a.shape)
        return spd_solve_stack(spd_factorize_stack(self.a), eye)

    @cached_property
    def average(self) -> QuadraticFamily:
        return QuadraticFamily(self.a.mean(axis=0)[None], self.b.mean(axis=0)[None], self.c.mean()[None])


@dataclass(frozen=True, eq=False)
class LogisticFamily(AgentFamily):
    """Ridge-logistic losses over stacks features (n,m,d) and labels (n,m) in {-1, +1}, ridge > 0.

    f_i(x) = (1/m) * sum_j log(1 + exp(-y_ij * a_ij'x)) + (ridge/2) * ||x||^2,
    so mu >= ridge.
    """

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
        # NaN fails the comparison; a bool or a string is not a ridge weight.
        if not (is_real(self.ridge) and self.ridge > 0):
            raise InvalidSpec(f"ridge weight must be a positive real number, got {self.ridge!r}")
        object.__setattr__(self, "ridge", float(self.ridge))

    @property
    def shape(self):
        return self.features.shape[0], self.features.shape[2]

    @property
    def floats(self):
        return self.features.size + self.labels.size

    @property
    def objectives(self) -> tuple[LogisticObjective, ...]:
        return tuple(LogisticObjective(f, y, self.ridge) for f, y in zip(self.features, self.labels))

    def _margins(self, x):
        # Batched matmul: about half of einsum's time, on the stacks and the pooled average alike.
        return self.labels * (self.features @ x[..., None])[..., 0]

    def values(self, x):
        return self._values(x, self._margins(x))

    def gradients(self, x):
        return self._gradients(x, self._margins(x))

    def values_and_gradients(self, x):
        margins = self._margins(x)
        return self._values(x, margins), self._gradients(x, margins)

    def _values(self, x, margins):
        losses = np.logaddexp(0.0, -margins)
        return losses.mean(axis=1) + 0.5 * self.ridge * (x * x).sum(axis=1)

    def _gradients(self, x, margins):
        # d/dt log(1 + exp(-t)) = -sigmoid(-t)
        coeffs = -self.labels * _sigmoid(-margins)
        m = self.features.shape[1]
        return (coeffs[:, None, :] @ self.features)[:, 0] / m + self.ridge * x

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
    def average(self) -> LogisticFamily:
        # Every agent has m samples, so the mean of the agents' losses is the
        # loss over all n*m samples pooled. Views when the stacks are
        # C-contiguous, as generated ones are.
        d = self.features.shape[2]
        return LogisticFamily(self.features.reshape(1, -1, d), self.labels.reshape(1, -1), self.ridge)


class _OneAgent(LocalObjective):
    """A family of one agent, evaluated at single points of R^d.

    ``hessian`` returns the family's Hessian row; treat it as read-only.
    """

    def __init__(self, family: AgentFamily):
        self.family = family

    @property
    def dimension(self) -> int:
        return self.family.shape[1]

    def value(self, x):
        return float(self.family.values(self._check_point(x)[None])[0])

    def gradient(self, x):
        return self.family.gradients(self._check_point(x)[None])[0]

    def hessian(self, x):
        return self.family.hessians(self._check_point(x)[None])[0]


class QuadraticObjective(_OneAgent):
    """f(x) = 0.5 * x'Ax + b'x + c with symmetric positive definite A; ``QuadraticFamily`` of one agent."""

    def __init__(self, a: np.ndarray, b: np.ndarray, c: float = 0.0):
        super().__init__(QuadraticFamily(*(np.asarray(v, dtype=float)[None] for v in (a, b, c))))

    a = property(lambda self: self.family.a[0])
    b = property(lambda self: self.family.b[0])
    c = property(lambda self: float(self.family.c[0]))
    # Defined on the class itself: perfbench/spans.py times this method
    # through the class's own namespace.
    hessian = _OneAgent.hessian


class LogisticObjective(_OneAgent):
    """Ridge-logistic loss over features (m, d) and labels (m,); ``LogisticFamily`` of one agent.

    f(x) = (1/m) * sum_j log(1 + exp(-y_j * a_j'x)) + (ridge/2) * ||x||^2
    """

    def __init__(self, features: np.ndarray, labels: np.ndarray, ridge: float):
        super().__init__(LogisticFamily(*(np.asarray(v, dtype=float)[None] for v in (features, labels)), ridge))

    features = property(lambda self: self.family.features[0])
    labels = property(lambda self: self.family.labels[0])
    ridge = property(lambda self: self.family.ridge)
    # Defined on the class itself: perfbench/spans.py times this method
    # through the class's own namespace.
    hessian = _OneAgent.hessian


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

    def _pairs(self, x):
        # One point per objective: a stack of any other length would be cut short or overrun.
        if len(x) != len(self.objectives):
            raise DimensionMismatch(f"{len(x)} points for {len(self.objectives)} objectives")
        return zip(self.objectives, x)

    def values(self, x):
        return np.array([obj.value(xi) for obj, xi in self._pairs(x)])

    def gradients(self, x):
        return np.stack([obj.gradient(xi) for obj, xi in self._pairs(x)])

    def hessians(self, x):
        return np.stack([obj.hessian(xi) for obj, xi in self._pairs(x)])

    @cached_property
    def average(self) -> ObjectiveLoop:
        return ObjectiveLoop((_AgentMean(self.objectives),))


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
        return np.broadcast_to(_as_point(x, self.dimension), self.family.shape)

    def check_stack(self, x: np.ndarray) -> np.ndarray:
        """``x`` as a float array, not copied if it is one, after checking its (n, d) shape."""
        x = np.asarray(x, dtype=float)
        if x.shape != self.family.shape:
            raise DimensionMismatch(f"stacked iterate has shape {x.shape}, expected {self.family.shape}")
        return x

    @cached_property
    def _average(self) -> _OneAgent:
        return _OneAgent(self.family.average)

    def average_value(self, x: np.ndarray) -> float:
        """(1/n) * sum_i f_i(x), the global cost at a single point of shape (d,).

        It and ``average_gradient`` evaluate the 1-agent family
        ``family.average`` at ``x``; both raise DimensionMismatch unless
        ``x`` has shape (d,).
        """
        return self._average.value(x)

    def average_gradient(self, x: np.ndarray) -> np.ndarray:
        return self._average.gradient(x)

    def stacked_gradient(self, x: np.ndarray) -> np.ndarray:
        """Row i of the result is grad f_i evaluated at row i of ``x``."""
        return self.family.gradients(self.check_stack(x))

    def stacked_hessian(self, x: np.ndarray) -> np.ndarray:
        """Entry i of the (n, d, d) result is hess f_i at row i of ``x``; treat it as read-only."""
        return self.family.hessians(self.check_stack(x))

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
    harness computes one with the centralized Newton oracle. Raises
    InvalidSpec unless ``seed`` is a nonnegative integer (never a bool).
    """
    if not (is_integer(seed) and seed >= 0):
        raise InvalidSpec(f"seed must be a nonnegative integer, got {seed!r}")
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
