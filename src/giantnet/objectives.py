"""Local cost functions held by the agents, and synthetic problem generation.

Each objective family exposes value, gradient and Hessian, and declares
global curvature bounds mu and L such that mu*I <= hessian(x) <= L*I
everywhere. Objectives are immutable after construction and evaluation is
pure, so instances are safe to share across threads.

An instance evaluates all of its agents at once through an agent family:
the quadratic family holds ``A (n,d,d)``, ``b (n,d)`` and ``c (n,)``, the
logistic family ``F (n,m,d)``, ``Y (n,m)`` and ``ridge``, and each
quantity is one batched numpy expression over those stacks: the only place
each cost's formulas are written. An instance holds its family only.
Any other cost is a subclass of ``AgentFamily``; one family holds one
kind of agent, and every logistic agent has the same number of samples.

The averaged cost (1/n) * sum_i f_i is ``family.average``, a family of one
agent of the same class: the quadratic with the mean A, b and c, or the
logistic loss over all n*m samples pooled. So the cost, gradient and
Hessian at a single point take one evaluation of one agent, not n, and
``values_and_gradients`` shares the quadratic A x or the logistic margins.
``newton_directions`` applies the inverse local Hessians by Cholesky
solves; the quadratic family's are constant, so it solves against the
identity once and then applies them as one batched matrix product.

Every family, a user's included, is seen at single points of R^d the same
way: agent i of ``family.objectives`` at x is row i of the family's
results at the (n, d) stack holding x in every row. So
``instance.objectives[i]`` is f_i and ``instance.objective``, the one agent
of ``family.average``, is the averaged cost.

The logistic sigmoid is scipy.special.expit's formula, 1 / (1 + exp(-t)),
evaluated with numpy's exp, so the package needs numpy alone at run time.
The logistic loss log(1 + exp(-t)) is the softplus max(-t, 0) +
log1p(exp(-|t|)), the two branches of np.logaddexp(0, -t) as array
passes; exp's argument is never positive, so it cannot overflow.
"""

from __future__ import annotations

import sys
from abc import ABC, abstractmethod
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np
from numpy.random import Generator, Philox

from .errors import DimensionMismatch, InvalidSpec
from .numerics import is_finite_real, is_integer, is_real, spd_factorize_stack, spd_solve_stack
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


def _require_finite(**stacks: np.ndarray) -> None:
    """Raise InvalidSpec naming the first stack that holds a NaN or an infinity."""
    for name, stack in stacks.items():
        if not np.isfinite(stack).all():
            raise InvalidSpec(f"{name} must be finite, got a NaN or infinite entry")


def _check_rows(n: int, stack: np.ndarray) -> None:
    """Raise DimensionMismatch unless the stack has n rows; a family of one agent takes any number."""
    if len(stack) != n and n > 1:
        raise DimensionMismatch(f"stack has shape {stack.shape} for {n} agents")


def _as_point(x: np.ndarray, dimension: int) -> np.ndarray:
    """``x`` as a float array, after checking that it is one point of R^dimension."""
    x = np.asarray(x, dtype=float)
    if x.shape != (dimension,):
        raise DimensionMismatch(f"point has shape {x.shape}, objective dimension is {dimension}")
    return x


class AgentFamily(ABC):
    """The n agents' costs, evaluated at once: row i of each result is f_i at row i of an (n, d) stack.

    A user cost subclasses it and defines the abstract members; ``values``,
    ``newton_directions`` and the point views ``objectives`` have defaults.
    ``average`` is evaluated at a (B, d) stack of points at once, so a
    family of one agent must take any number of rows. The built-in families of n > 1 agents raise
    DimensionMismatch for a stack whose row count is not n. A
    family must evaluate purely: the same stack gives the same bits,
    whatever was evaluated before. ``run`` relies on it to end a run that
    repeats a state by writing the rest of its log from that cycle.
    """

    @property
    @abstractmethod
    def shape(self) -> tuple[int, int]:
        """(n, d): the number of agents and the dimension."""

    @abstractmethod
    def values_and_gradients(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(values, gradients)`` at the stack ``x``, with the work they share done once where a family can."""

    def values(self, x: np.ndarray) -> np.ndarray:
        return self.values_and_gradients(x)[0]

    @abstractmethod
    def gradients(self, x: np.ndarray) -> np.ndarray: ...

    @abstractmethod
    def hessians(self, x: np.ndarray) -> np.ndarray: ...

    def newton_directions(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Row i is hess f_i(x_i)^{-1} v_i, v (n, d) or (n, d, k), by Cholesky solves against the stacked factors.

        Raises NotPositiveDefinite if any local Hessian is not positive definite.
        """
        return spd_solve_stack(spd_factorize_stack(self.hessians(x)), v)

    @property
    def objectives(self) -> tuple[_OneAgent, ...]:
        """The n agents at single points; each call evaluates the whole family at the point's stack."""
        return tuple(_OneAgent(self, i) for i in range(self.shape[0]))

    @property
    @abstractmethod
    def average(self) -> AgentFamily:
        """The averaged cost (1/n) * sum_i f_i as a family of one agent; the built-in families give their own class."""

    @property
    @abstractmethod
    def floats(self) -> int:
        """Floats of the temporaries ``values_and_gradients`` makes per point; ``run`` sizes blocks by the average's.

        A 1-agent quadratic or logistic family makes about four temporaries
        per point the size of its b (quadratic) or its labels (logistic).
        Its other arrays are shared by all the points, so they are not counted.
        """


@dataclass(frozen=True, eq=False)
class QuadraticFamily(AgentFamily):
    """f_i(x) = 0.5 * x'A_i x + b_i'x + c_i over finite stacks a (n,d,d), b (n,d), c (n,).

    A NaN or infinite entry raises InvalidSpec naming its stack.
    """

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
        _require_finite(a=a, b=b, c=c)

    @property
    def shape(self):
        return self.a.shape[:2]

    @property
    def floats(self):
        return 4 * self.b.size

    # Batched matmul, not einsum: less dispatch on the 1-agent average, which
    # the metrics evaluate every iteration.
    def gradients(self, x):
        _check_rows(len(self.a), x)
        return (self.a @ x[..., None])[..., 0] + self.b

    def values_and_gradients(self, x):
        _check_rows(len(self.a), x)
        ax = (self.a @ x[..., None])[..., 0]
        return ((0.5 * ax + self.b) * x).sum(axis=1) + self.c, ax + self.b

    def hessians(self, x):
        _check_rows(len(self.a), x)
        out = self.a.view()
        out.flags.writeable = False
        return out

    def newton_directions(self, x, v):
        _check_rows(len(self.a), x)
        _check_rows(len(self.a), v)
        return (self._inverse @ v.reshape(*self.shape, -1)).reshape(v.shape)

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
    """Ridge-logistic losses over finite features (n,m,d) and labels (n,m) in {-1, +1}, finite ridge > 0.

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
        _require_finite(features=f)
        if not np.all(np.isin(y, (-1.0, 1.0))):
            raise InvalidSpec("labels must be -1 or +1")
        # a bool or a string is not a ridge weight; an infinite one makes every value NaN
        if not (is_finite_real(self.ridge) and self.ridge > 0):
            raise InvalidSpec(f"ridge weight must be a finite positive real number, got {self.ridge!r}")
        object.__setattr__(self, "ridge", float(self.ridge))

    @property
    def shape(self):
        return self.features.shape[0], self.features.shape[2]

    @property
    def floats(self):
        return 4 * self.labels.size

    def _margins(self, x):
        # Batched matmul: about half of einsum's time, on the stacks and the pooled average alike.
        _check_rows(len(self.labels), x)
        return self.labels * (self.features @ x[..., None])[..., 0]

    def gradients(self, x):
        return self._gradients(x, self._margins(x))

    def values_and_gradients(self, x):
        margins = self._margins(x)
        losses = np.maximum(-margins, 0.0) + np.log1p(np.exp(-np.abs(margins)))
        return losses.mean(axis=1) + 0.5 * self.ridge * (x * x).sum(axis=1), self._gradients(x, margins)

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
        h.reshape(len(h), -1)[:, :: d + 1] += self.ridge  # the diagonals, as one strided view
        return h

    @cached_property
    def average(self) -> LogisticFamily:
        # Every agent has m samples, so the mean of the agents' losses is the
        # loss over all n*m samples pooled. Views when the stacks are
        # C-contiguous, as generated ones are.
        d = self.features.shape[2]
        return LogisticFamily(self.features.reshape(1, -1, d), self.labels.reshape(1, -1), self.ridge)


class _OneAgent:
    """Agent ``index`` of ``family`` at single points x of R^d.

    Each quantity is row ``index`` of the family's own at the (n, d) stack
    holding x in every row; x of any other shape raises DimensionMismatch.
    ``hessian`` returns the family's Hessian row; treat it as read-only.
    """

    def __init__(self, family: AgentFamily, index: int):
        self.family, self.index = family, index

    def _stack(self, x):
        return np.broadcast_to(_as_point(x, self.family.shape[1]), self.family.shape)

    def value(self, x):
        return float(self.family.values(self._stack(x))[self.index])

    def gradient(self, x):
        return self.family.gradients(self._stack(x))[self.index]

    def hessian(self, x):
        return self.family.hessians(self._stack(x))[self.index]


@dataclass(frozen=True, eq=False)
class ProblemInstance:
    """n local objectives over a shared decision variable, with global bounds.

    ``family`` is the agents' one description, an ``AgentFamily`` (anything
    else raises InvalidSpec), from which ``n_agents``, ``dimension``, the
    per-agent ``objectives`` and the averaged ``objective`` derive. ``mu`` and
    ``lipschitz``, finite real numbers (never bools) with 0 < mu <= L, bound
    every local Hessian from below and above. ``reference_solution`` is the minimizer of the averaged
    cost when known; the harness fills it in for families without a closed
    form. Instances compare by identity.
    """

    family: AgentFamily = field(repr=False)
    mu: float
    lipschitz: float
    reference_solution: np.ndarray | None = None

    def __post_init__(self):
        if not isinstance(self.family, AgentFamily):
            raise InvalidSpec(f"family must be an AgentFamily, got {type(self.family).__name__}")
        if not self.n_agents >= 1:
            raise InvalidSpec("instance needs at least one agent")
        if not (is_finite_real(self.mu) and is_finite_real(self.lipschitz) and 0 < self.mu <= self.lipschitz):
            raise InvalidSpec(f"bounds must be finite with 0 < mu <= L, got ({self.mu!r}, {self.lipschitz!r})")

    @property
    def objectives(self) -> tuple[_OneAgent, ...]:
        return self.family.objectives

    @cached_property
    def objective(self) -> _OneAgent:
        """(1/n) * sum_i f_i at single points of shape (d,): the one agent of ``family.average``."""
        return self.family.average.objectives[0]

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
    x_star = spd_solve_stack(spd_factorize_stack(a_sum[None]), -offsets.sum(axis=0)[None])[0]
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

