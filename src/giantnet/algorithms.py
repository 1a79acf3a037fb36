"""Distributed optimization iterations over a synchronous agent network.

Every algorithm is expressed as a pure state-transition step acting on
stacked n x d arrays, with row i holding agent i's variables. Steps never
mutate their inputs, so trajectories can be replayed and states shared
freely. Per-agent work inside a step depends only on the incoming state
and runs for all agents at once: one batched gradient evaluation, one
batched Cholesky factorization of the local Hessians (reused across
rounds when they are constant) and one batched solve.

The main method combines gradient tracking with local inverse-Hessian
steps and consensus averaging:

    grads   = stack of grad f_i(x_i)
    w_next  = P^K (w + grads - g)          gradient tracker
    g_next  = grads                        gradient memory
    d_i     = hess f_i(x_i)^{-1} w_next_i  local Newton direction
    x_next  = P^K (x - eps * d)            damped step plus consensus

The tracker's agent sum telescopes to the sum of the latest local
gradients because P is doubly stochastic, so each w_i estimates the
global average gradient, and the local curvature correction applies the
inverse Hessian to that estimate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diagnostics import MetricsLog, metrics_record
from .errors import DimensionMismatch, InvalidParams, MaxItersExceeded, MissingReference
from .numerics import spd_factorize, spd_solve, spd_solve_stack
from .objectives import ProblemInstance
from .topology import MixingMatrix

ALGORITHMS = ("giant", "dgd", "gt")

# Abort threshold on any state entry; divergence is recorded, not raised.
DIVERGENCE_LIMIT = 1e12

NEWTON_MAX_ITERS = 200


@dataclass(frozen=True)
class AlgorithmConfig:
    """Step size, consensus rounds per iteration and stopping limits.

    ``K`` applies to ``giant`` only: ``gt_step`` and ``dgd_step`` mix once
    per iteration with ``P.p``, so ``compare`` at ``K > 1`` gives giant K
    rounds per iteration and the baselines one. ``epsilon = 0`` is
    accepted so pure-consensus dynamics can be studied; optimization
    configs should keep it positive.
    """

    epsilon: float = 1.0
    K: int = 1
    max_iters: int = 5000
    grad_tol: float = 1e-10

    def __post_init__(self):
        # Messages lead with the field name; NaN fails every comparison.
        if not self.epsilon >= 0:
            raise InvalidParams(f"epsilon must be nonnegative, got {self.epsilon}")
        if not self.K >= 1:
            raise InvalidParams(f"K must be a positive integer, got {self.K}")
        if not self.max_iters >= 0:
            raise InvalidParams(f"max_iters must be nonnegative, got {self.max_iters}")
        if not self.grad_tol >= 0:
            raise InvalidParams(f"grad_tol must be nonnegative, got {self.grad_tol}")


@dataclass(frozen=True)
class NetworkState:
    """Stacked per-agent triples (x_i, g_i, w_i) at one iteration."""

    x: np.ndarray
    g: np.ndarray
    w: np.ndarray
    iteration: int

    def __post_init__(self):
        if not (self.x.shape == self.g.shape == self.w.shape) or self.x.ndim != 2:
            raise DimensionMismatch(
                f"state blocks disagree: x {self.x.shape}, g {self.g.shape}, w {self.w.shape}"
            )


@dataclass(frozen=True)
class GtState:
    """State of the first-order gradient-tracking baseline."""

    x: np.ndarray
    y: np.ndarray
    prev_grad: np.ndarray

    def __post_init__(self):
        if not (self.x.shape == self.y.shape == self.prev_grad.shape):
            raise DimensionMismatch("gradient-tracking blocks disagree on shape")


def giant_init(instance: ProblemInstance, x0: np.ndarray) -> NetworkState:
    """Start state with g_i = w_i = grad f_i(x_i^0).

    This initialization makes the tracking identity
    sum_i w_i = sum_i grad f_i(x_i) hold from the first iteration.
    """
    x0 = instance.check_stack(x0).copy()
    grads = instance.stacked_gradient(x0)
    return NetworkState(x=x0, g=grads, w=grads.copy(), iteration=0)


def giant_step(
    state: NetworkState,
    instance: ProblemInstance,
    P: MixingMatrix,
    cfg: AlgorithmConfig,
    p_eff: np.ndarray | None = None,
) -> NetworkState:
    """One synchronous round of the tracked Newton-type iteration.

    Update order: refresh the tracker with the new local gradients, store
    those gradients, apply each agent's inverse Hessian to its fresh
    tracker value, then take the damped step and mix. K consensus rounds
    are realized as a single multiplication by the precomputed power P^K
    applied to both the tracker and the iterate update, which keeps a
    K-round step bitwise identical to a one-round step under P^K.
    ``p_eff`` is that power when the caller already holds it (``run``
    computes it once per run); otherwise it is computed here.

    Raises NotPositiveDefinite if a local Hessian stops being positive
    definite at the current iterate, which signals that the iterate left
    the region where the curvature assumptions hold numerically.
    """
    x = instance.check_stack(state.x)
    if P.n != instance.n_agents:
        raise DimensionMismatch(f"mixing matrix is {P.n}x{P.n} for {instance.n_agents} agents")
    if p_eff is None:
        p_eff = P.power(cfg.K)

    grads = instance.stacked_gradient(x)
    w_next = p_eff @ (state.w + grads - state.g)
    directions = spd_solve_stack(instance.hessian_factors(x), w_next)
    x_next = p_eff @ (x - cfg.epsilon * directions)
    return NetworkState(x=x_next, g=grads, w=w_next, iteration=state.iteration + 1)


def dgd_step(
    x: np.ndarray, instance: ProblemInstance, P: MixingMatrix, epsilon: float
) -> np.ndarray:
    """Decentralized gradient descent: x_next = P x - eps * grad f(x)."""
    x = instance.check_stack(x)
    return P.p @ x - epsilon * instance.stacked_gradient(x)


def gt_init(instance: ProblemInstance, x0: np.ndarray) -> GtState:
    """Gradient-tracking start state with y^0 = grad f(x^0)."""
    x0 = instance.check_stack(x0).copy()
    grads = instance.stacked_gradient(x0)
    return GtState(x=x0, y=grads, prev_grad=grads.copy())


def gt_step(
    state: GtState, instance: ProblemInstance, P: MixingMatrix, epsilon: float
) -> GtState:
    """First-order gradient tracking:

    x_next = P x - eps * y
    y_next = P y + grad f(x_next) - grad f(x)

    The agent sum of y telescopes to the sum of current local gradients.
    """
    x = instance.check_stack(state.x)
    x_next = P.p @ x - epsilon * state.y
    grads_next = instance.stacked_gradient(x_next)
    y_next = P.p @ state.y + grads_next - state.prev_grad
    return GtState(x=x_next, y=y_next, prev_grad=grads_next)


def centralized_newton(
    instance: ProblemInstance,
    x0: np.ndarray,
    tol: float = 1e-12,
    max_iters: int = NEWTON_MAX_ITERS,
) -> np.ndarray:
    """Full-Newton reference oracle on the averaged cost.

    Iterates x <- x - hess_avg(x)^{-1} grad_avg(x) until the averaged
    gradient norm drops to ``tol``. Exact in one step on quadratics.
    """
    x = np.array(x0, dtype=float)
    for _ in range(max_iters):
        g = instance.average_gradient(x)
        if np.linalg.norm(g) <= tol:
            return x
        h = instance.average_hessian(x)
        x = x - spd_solve(spd_factorize(h), g)
    if np.linalg.norm(instance.average_gradient(x)) <= tol:
        return x
    raise MaxItersExceeded(f"Newton oracle did not reach tol={tol} in {max_iters} steps")


def _diverged(arrays) -> bool:
    for a in arrays:
        if not np.all(np.isfinite(a)) or np.abs(a).max(initial=0.0) > DIVERGENCE_LIMIT:
            return True
    return False


def run(
    algorithm: str,
    instance: ProblemInstance,
    P: MixingMatrix,
    cfg: AlgorithmConfig,
    x0: np.ndarray,
) -> tuple[NetworkState | GtState | np.ndarray, MetricsLog]:
    """Drive an algorithm to its stopping rule, logging one record per iteration.

    Stops when the gradient norm of the averaged cost at the mean iterate
    drops to ``cfg.grad_tol``, when ``cfg.max_iters`` iterations have run,
    or when any state entry leaves [-1e12, 1e12] or turns non-finite, in
    which case the log is marked diverged instead of raising.

    Returns (final_state, MetricsLog). The log always contains the
    iteration-0 record, so ``max_iters = 0`` yields exactly one record.
    Requires ``instance.reference_solution`` and one row of P per agent.
    """
    if instance.reference_solution is None:
        raise MissingReference("instance has no reference solution; compute one first")
    f_star = instance.average_value(instance.reference_solution)
    if P.n != instance.n_agents:
        raise DimensionMismatch(f"mixing matrix is {P.n}x{P.n} for {instance.n_agents} agents")

    # view(state) is (x, tracker, gradient memory). The steps are looked up
    # by module-global name at call time, so a rebinding of one reaches run.
    if algorithm == "giant":
        state = giant_init(instance, x0)
        p_eff = P.power(cfg.K)
        step = lambda s: giant_step(s, instance, P, cfg, p_eff)
        view = lambda s: (s.x, s.w, s.g)
    elif algorithm == "gt":
        state = gt_init(instance, x0)
        step = lambda s: gt_step(s, instance, P, cfg.epsilon)
        view = lambda s: (s.x, s.y, s.prev_grad)
    elif algorithm == "dgd":
        state = instance.check_stack(x0).copy()
        step = lambda s: dgd_step(s, instance, P, cfg.epsilon)
        view = lambda s: (s, None, None)
    else:
        raise InvalidParams(f"unknown algorithm {algorithm!r}; choose from {ALGORITHMS}")

    log = MetricsLog()
    with np.errstate(all="ignore"):
        x, tracker, memory = view(state)
        log.append(metrics_record(instance, x, 0, _drift(tracker, memory), f_star))
        k = 0
        while k < cfg.max_iters and log.records[-1].grad_norm > cfg.grad_tol:
            state = step(state)
            k += 1
            x, tracker, memory = view(state)
            log.append(metrics_record(instance, x, k, _drift(tracker, memory), f_star))
            if _diverged(b for b in (x, tracker, memory) if b is not None):
                log.diverged = True
                break
    return state, log


def _drift(tracker: np.ndarray | None, memory: np.ndarray | None) -> float:
    """Residual of the tracking identity against the gradients the state stores.

    giant's ``g`` holds the gradients at the previous iterate and gt's
    ``prev_grad`` those at the current one, bitwise as a fresh evaluation
    would return them, so this equals ``diagnostics.tracking_drift``
    without evaluating them again. dgd has no tracker and logs 0.
    """
    if tracker is None:
        return 0.0
    return float(np.linalg.norm(tracker.sum(axis=0) - memory.sum(axis=0)))
