"""Runtime verification of the analytical structure behind the method.

The convergence argument rests on a handful of numerically checkable
facts: the stacked iterate splits into a mean and a zero-sum
disagreement; the tracker's agent sum equals the sum of the latest local
gradients; the averaged dynamics descend a Lyapunov value controlled by
the mean of the inverse Hessians; and the optimality gap decays
geometrically. This module measures each of them.

``check_block`` is the run loop's check of every iteration: from B
consecutive states stacked as (B, n, d) arrays it makes their metrics rows
(cost gap and gradient norm at the mean iterate, consensus error, tracking
drift) and applies the divergence rule, in one batched pass. A run's
``MetricsLog`` is those rows, one table whose readers read its columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .errors import InsufficientData, InvalidParams, MissingReference
from .numerics import is_finite_real, row_norms
from .objectives import ProblemInstance

if TYPE_CHECKING:  # pragma: no cover
    from .algorithms import NetworkState

# Abort threshold on any state entry; divergence is recorded, not raised.
DIVERGENCE_LIMIT = 1e12

# Additive slack for the descent inequalities.
DESCENT_TOL = 1e-10

# Optimality gaps at or below this are floating-point floor, not signal.
GAP_FLOOR = 1e-14

# Fraction of early iterations excluded from rate fits as transient.
TRANSIENT_FRACTION = 0.1


class MetricsRecord(NamedTuple):
    """One iteration's worth of convergence metrics; an immutable tuple in CSV column order."""

    iteration: int
    opt_gap: float
    consensus_err: float
    grad_norm: float
    tracking_drift: float
    lyapunov: float


@dataclass(eq=False)
class MetricsLog:
    """A run's metrics: ``table`` is a C-ordered (N, 6) float64 array, one row per iteration.

    Its columns are ``MetricsRecord._fields``, the CSV's, so ``table[:, 1]``
    is the optimality gap. ``records`` and ``final`` give rows as records of
    Python numbers, the iteration an int.
    """

    table: np.ndarray = field(default_factory=lambda: np.empty((0, len(MetricsRecord._fields))))
    diverged: bool = False

    def __len__(self) -> int:
        return len(self.table)

    @property
    def records(self) -> list[MetricsRecord]:
        return [MetricsRecord(int(k), *rest) for k, *rest in self.table.tolist()]

    @property
    def final(self) -> MetricsRecord:
        k, *rest = self.table[-1].tolist()
        return MetricsRecord(int(k), *rest)

    def first_iteration_below(self, target: float) -> int | None:
        """Earliest iteration whose optimality gap is at or below ``target``."""
        hits = np.flatnonzero(self.table[:, 1] <= target)
        return int(self.table[hits[0], 0]) if hits.size else None


def decompose(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split a stacked iterate into its mean and disagreement parts.

    The mean part repeats the column-wise average in every row; the
    disagreement part has zero column sums. They add back to ``x``
    exactly up to floating-point associativity.
    """
    x = np.asarray(x, dtype=float)
    mean = np.broadcast_to(x.mean(axis=0), x.shape).copy()
    return mean, x - mean


def harmonic_hessian_mean(instance: ProblemInstance, x: np.ndarray) -> np.ndarray:
    """M = (1/n) * sum_i hess f_i(x)^{-1}, the effective curvature at consensus.

    M is the arithmetic mean of the inverse Hessians, i.e. the inverse of
    the scaled harmonic mean of the Hessians; its eigenvalues lie in
    [1/L, 1/mu]. The inverses are the family's ``newton_directions``
    applied to the identity, the path every Newton step takes.
    """
    n, d = instance.family.shape
    eye = np.broadcast_to(np.eye(d), (n, d, d))
    m = instance.family.newton_directions(instance.consensus_stack(x), eye).mean(axis=0)
    return 0.5 * (m + m.T)


@dataclass(frozen=True)
class DescentCheck:
    name: str
    passed: bool
    lhs: float
    rhs: float


@dataclass(frozen=True)
class DescentReport:
    """Outcome of the Lyapunov-structure inequalities at one point."""

    checks: tuple[DescentCheck, ...]
    tolerance: float

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def descent_check(instance: ProblemInstance, x: np.ndarray) -> DescentReport:
    """Verify the Lyapunov inequalities of the averaged dynamics at a point.

    With g the averaged gradient, M the mean inverse Hessian, r the
    distance to the reference solution and V(x) the optimality gap, the
    following must hold (each with additive slack):

        g'Mg >= ||g||^2 / L
        g'Mg >= (mu^2 / L) * r^2
        (mu / 2) * r^2 <= V(x) <= (L / 2) * r^2
        ||grad V|| <= L * r

    The distance-based inequalities are stated in coordinates translated
    so the minimizer sits at the origin; the translation by the stored
    reference solution is applied here explicitly.
    """
    if instance.reference_solution is None:
        raise MissingReference("descent check needs a reference solution")
    x = np.asarray(x, dtype=float)
    x_star = instance.reference_solution
    mu, lip = instance.mu, instance.lipschitz

    g = instance.objective.gradient(x)
    m = harmonic_hessian_mean(instance, x)
    quad = float(g @ m @ g)
    gnorm2 = float(g @ g)
    r2 = float(np.sum((x - x_star) ** 2))
    v = instance.objective.value(x) - instance.objective.value(x_star)

    def geq(name, lhs, rhs):
        return DescentCheck(name, bool(lhs >= rhs - DESCENT_TOL), float(lhs), float(rhs))

    checks = (
        geq("curvature_lower", quad, gnorm2 / lip),
        geq("distance_lower", quad, (mu**2 / lip) * r2),
        geq("value_lower", v, 0.5 * mu * r2),
        geq("value_upper", 0.5 * lip * r2, v),
        geq("gradient_bound", lip * np.sqrt(r2), np.sqrt(gnorm2)),
    )
    return DescentReport(checks=checks, tolerance=DESCENT_TOL)


def tracking_drift(state: "NetworkState", instance: ProblemInstance, prev_x: np.ndarray) -> float:
    """Residual of the tracking identity: ||sum_i w_i - sum_i grad f_i(prev_x_i)||.

    ``prev_x`` is the iterate whose gradients the state's memory ``g``
    holds: for giant the previous round's iterate, for gt the current
    ``state.x``. The tracker recursion preserves the agent sum of those
    gradients under a doubly stochastic mixing matrix, so a correct
    implementation keeps this at roundoff level (<= 1e-9) in runs that do
    not diverge. In a diverging run it grows with the iterates: the
    diverging giant and gt runs of the shipped quadratic compare reach
    up to 6.3e-4 before the divergence rule ends them.
    Immediately after initialization, pass the initial stack itself.
    """
    grads = instance.family.gradients(instance.check_stack(prev_x))
    resid = state.w.sum(axis=0) - grads.sum(axis=0)
    return float(np.linalg.norm(resid))


@dataclass(frozen=True)
class RateEstimate:
    """Fitted per-iteration contraction of the optimality gap.

    ``rate`` is 10 raised to the slope of the log10(gap) vs iteration
    fit; 1.0 means stagnation and values above 1.0 indicate growth.
    ``r_squared`` is 0 by convention when the gaps are constant.
    """

    rate: float
    r_squared: float
    window: tuple[int, int]


def estimate_rate(log: MetricsLog, tail_fraction: float = 0.5) -> RateEstimate:
    """Least-squares fit of log10(opt_gap) against iteration over the tail.

    Records with gaps at the floating-point floor and the initial
    transient are excluded; of the remaining usable records the final
    ``tail_fraction``, a real number in (0, 1], enter the fit. Raises
    InsufficientData with fewer than 10 usable records in that window.
    """
    if not (is_finite_real(tail_fraction) and 0 < tail_fraction <= 1):
        raise InvalidParams(f"tail_fraction must be a real number in (0, 1], got {tail_fraction!r}")
    iterations, gaps = log.table[:, 0], log.table[:, 1]
    k_cut = TRANSIENT_FRACTION * iterations[-1] if len(log) else 0.0
    usable = np.flatnonzero((gaps > GAP_FLOOR) & (iterations >= k_cut))
    take = int(np.ceil(tail_fraction * len(usable)))
    window = usable[len(usable) - take:]
    if len(window) < 10:
        raise InsufficientData(
            f"rate fit needs >= 10 usable records in the tail, found {len(window)}"
        )
    ks = iterations[window]
    ys = np.log10(gaps[window])
    slope, intercept = np.polyfit(ks, ys, 1)
    fit = slope * ks + intercept
    ss_res = float(np.sum((ys - fit) ** 2))
    ss_tot = float(np.sum((ys - ys.mean()) ** 2))
    r_squared = 0.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return RateEstimate(
        rate=float(10.0**slope),
        r_squared=float(r_squared),
        window=(int(ks[0]), int(ks[-1])),
    )


def check_block(
    instance: ProblemInstance,
    x: np.ndarray,
    w: np.ndarray | None,
    g: np.ndarray | None,
    first_iteration: int,
    f_star: float,
) -> tuple[np.ndarray, np.ndarray]:
    """``(table, diverged)`` of B consecutive states from ``first_iteration``.

    ``table`` holds their (B, 6) rows of a :class:`MetricsLog` table and
    ``diverged`` is a (B,) mask. Row b of the (B, n, d) stacks ``x``, ``w``
    and ``g`` is one state's iterate, tracker and gradient memory; dgd has
    no tracker, passes ``w = g = None`` and logs drift 0. ``f_star`` is the
    optimal averaged cost. All metrics are taken at the mean iterates x_bar,
    a (B, d) stack, and evaluate the averaged cost f = (1/n) * sum_i f_i
    once for the whole stack, as the 1-agent family ``instance.family.average``
    broadcast over its rows. ``consensus_err`` is ||x - x_bar||_F. The drift is
    ||sum_i w_i - sum_i g_i||: giant's ``g`` holds the gradients at the
    previous iterate and gt's those at the current one, bitwise as a fresh
    evaluation would return them, so it equals :func:`tracking_drift`
    without evaluating them again. x_bar, the agent sums and the norms run
    the ufuncs of ``x.mean(axis=0)``, ``sum(axis=0)`` and ``np.linalg.norm``
    directly, row by row, so every row has the bits of those functions
    taken one state at a time.

    State b diverged if an entry of its x, w or g is NaN or beyond
    ``DIVERGENCE_LIMIT`` in magnitude.
    """
    x_bar = np.add.reduce(x, 1) / x.shape[1]
    values, grads = instance.family.average.values_and_gradients(x_bar)
    gaps = values - f_star
    if w is None:
        blocks, drifts = (x,), np.zeros(len(x))
    else:
        blocks, drifts = (x, w, g), row_norms(np.add.reduce(w, 1) - np.add.reduce(g, 1))
    iterations = np.arange(first_iteration, first_iteration + len(x))
    table = np.column_stack((iterations, gaps, row_norms(x - x_bar[:, None]), row_norms(grads), drifts, gaps))
    # A NaN maximum propagates and fails the comparison, as does inf.
    largest = 0.0
    for a in blocks:
        largest = np.maximum(largest, np.maximum.reduce(np.abs(a), axis=(1, 2), initial=0.0))
    return table, ~(largest <= DIVERGENCE_LIMIT)

