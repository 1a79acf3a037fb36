"""Runtime verification of the analytical structure behind the method.

The convergence argument rests on a handful of numerically checkable
facts: the stacked iterate splits into a mean and a zero-sum
disagreement; the tracker's agent sum equals the sum of the latest local
gradients; the averaged dynamics descend a Lyapunov value controlled by
the mean of the inverse Hessians; and the optimality gap decays
geometrically. This module measures each of them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .errors import InsufficientData, MissingReference
from .numerics import spd_solve_stack
from .objectives import ProblemInstance

if TYPE_CHECKING:  # pragma: no cover
    from .algorithms import NetworkState

# Additive slack for the descent inequalities with declared bounds, and
# the relaxed slack when mu/L were merely estimated from samples.
DESCENT_TOL = 1e-10
DESCENT_TOL_ESTIMATED = 1e-6

# Optimality gaps at or below this are floating-point floor, not signal.
GAP_FLOOR = 1e-14

# Fraction of early iterations excluded from rate fits as transient.
TRANSIENT_FRACTION = 0.1


@dataclass(frozen=True)
class MetricsRecord:
    """One iteration's worth of convergence metrics."""

    iteration: int
    opt_gap: float
    consensus_err: float
    grad_norm: float
    tracking_drift: float
    lyapunov: float


@dataclass
class MetricsLog:
    """Ordered per-iteration records of a single run."""

    records: list[MetricsRecord] = field(default_factory=list)
    diverged: bool = False

    def append(self, record: MetricsRecord) -> None:
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    @property
    def final(self) -> MetricsRecord:
        return self.records[-1]

    def gaps(self) -> np.ndarray:
        return np.array([r.opt_gap for r in self.records])

    def first_iteration_below(self, target: float) -> int | None:
        """Earliest iteration whose optimality gap is at or below ``target``."""
        for r in self.records:
            if r.opt_gap <= target:
                return r.iteration
        return None


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
    [1/L, 1/mu]. Inverses are applied through batched Cholesky solves
    against the identity, never formed from explicit inversion routines.
    """
    lower = instance.hessian_factors(instance.consensus_stack(x))
    eye = np.broadcast_to(np.eye(instance.dimension), lower.shape)
    m = spd_solve_stack(lower, eye).mean(axis=0)
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
    estimated_bounds: bool

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def __str__(self) -> str:
        note = " (estimated bounds, relaxed tolerance)" if self.estimated_bounds else ""
        lines = [f"descent checks at tolerance {self.tolerance:g}{note}"]
        for c in self.checks:
            status = "pass" if c.passed else "FAIL"
            lines.append(f"  {c.name:<16} {status}  lhs={c.lhs:.6e} rhs={c.rhs:.6e}")
        return "\n".join(lines)


def descent_check(instance: ProblemInstance, x: np.ndarray) -> DescentReport:
    """Verify the Lyapunov inequalities of the averaged dynamics at a point.

    With g the averaged gradient, M the mean inverse Hessian, r the
    distance to the reference solution and V(x) the optimality gap, the
    following must hold (each with additive slack):

        g'Mg >= ||g||^2 / L
        g'Mg >= (mu^2 / L) * r^2
        (mu^2 / 2) * r^2 <= V(x) <= (L^2 / 2) * r^2
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
    tol = DESCENT_TOL_ESTIMATED if instance.bounds_estimated else DESCENT_TOL

    g = instance.average_gradient(x)
    m = harmonic_hessian_mean(instance, x)
    quad = float(g @ m @ g)
    gnorm2 = float(g @ g)
    r2 = float(np.sum((x - x_star) ** 2))
    v = instance.average_value(x) - instance.average_value(x_star)

    def geq(name, lhs, rhs):
        return DescentCheck(name, lhs >= rhs - tol, float(lhs), float(rhs))

    checks = (
        geq("curvature_lower", quad, gnorm2 / lip),
        geq("distance_lower", quad, (mu**2 / lip) * r2),
        geq("value_lower", v, 0.5 * mu**2 * r2),
        geq("value_upper", 0.5 * lip**2 * r2, v),
        geq("gradient_bound", lip * np.sqrt(r2), np.sqrt(gnorm2)),
    )
    return DescentReport(checks=checks, tolerance=tol, estimated_bounds=instance.bounds_estimated)


def tracking_drift(state: "NetworkState", instance: ProblemInstance, prev_x: np.ndarray) -> float:
    """Residual of the tracking identity: ||sum_i w_i - sum_i grad f_i(prev_x_i)||.

    The tracker recursion preserves the agent sum of the previous round's
    gradients under a doubly stochastic mixing matrix, so a correct
    implementation keeps this at roundoff level (<= 1e-9) forever.
    Immediately after initialization, pass the initial stack itself.
    """
    grads = instance.stacked_gradient(np.asarray(prev_x, dtype=float))
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
    ``tail_fraction`` enter the fit. Raises InsufficientData with fewer
    than 10 usable records in that window.
    """
    records = log.records
    if records:
        k_cut = TRANSIENT_FRACTION * records[-1].iteration
        usable = [r for r in records if r.opt_gap > GAP_FLOOR and r.iteration >= k_cut]
    else:
        usable = []
    take = int(np.ceil(tail_fraction * len(usable)))
    window = usable[len(usable) - take:]
    if len(window) < 10:
        raise InsufficientData(
            f"rate fit needs >= 10 usable records in the tail, found {len(window)}"
        )
    ks = np.array([r.iteration for r in window], dtype=float)
    ys = np.log10([r.opt_gap for r in window])
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


def metrics_record(
    instance: ProblemInstance,
    x: np.ndarray,
    iteration: int,
    drift: float,
    f_star: float,
) -> MetricsRecord:
    """Assemble the standard per-iteration record; ``f_star`` is the optimal averaged cost."""
    mean, disagreement = decompose(x)
    x_bar = mean[0]
    gap = instance.average_value(x_bar) - f_star
    return MetricsRecord(
        iteration=iteration,
        opt_gap=gap,
        consensus_err=float(np.linalg.norm(disagreement)),
        grad_norm=float(np.linalg.norm(instance.average_gradient(x_bar))),
        tracking_drift=float(drift),
        lyapunov=gap,
    )
