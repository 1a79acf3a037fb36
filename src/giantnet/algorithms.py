"""Distributed optimization iterations over a synchronous agent network.

Every algorithm is expressed as a pure state-transition step acting on
stacked n x d arrays, with row i holding agent i's variables. Steps never
mutate their inputs, so trajectories can be replayed and states shared
freely. Per-agent work inside a step depends only on the incoming state
and runs for all agents at once: one batched gradient evaluation and one
batched application of the local inverse Hessians, by Cholesky solves, or
as one matrix product with the inverses of constant (quadratic) Hessians,
solved once against the identity.

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

The baseline ``gt`` is the same tracker with the identity in place of the
Hessian and carries the same NetworkState from ``giant_init``. Every step
is ``step(state, instance, P, cfg)``; dgd's state is the bare n x d stack.

``run`` checks its stopping rule once per block of up to 64 steps: it
stacks the block's states into (B, n, d) arrays and hands them to
``diagnostics.check_block``, which owns the metrics rows, the tracking
drift and the divergence rule. The run's log is those rows, one table in
CSV column order; its rows, stop and final state are those of a check
after every step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# DIVERGENCE_LIMIT is the divergence rule's, kept importable from here.
from .diagnostics import DIVERGENCE_LIMIT, MetricsLog, MetricsRecord, check_block
from .errors import DimensionMismatch, InvalidParams, MaxItersExceeded, MissingReference
from .numerics import is_finite_real, is_integer
from .objectives import ProblemInstance
from .topology import MixingMatrix

ALGORITHMS = ("giant", "dgd", "gt")

NEWTON_MAX_ITERS = 200


@dataclass(frozen=True)
class AlgorithmConfig:
    """Step size, consensus rounds per iteration and stopping limits.

    ``K`` applies to ``giant`` only: ``gt_step`` and ``dgd_step`` mix once
    per iteration with ``P.mix``, so ``compare`` at ``K > 1`` gives giant K
    rounds per iteration and the baselines one. ``K`` and ``max_iters`` are
    Python or NumPy integers, ``epsilon`` and ``grad_tol`` finite Python or
    NumPy real numbers (no NaN, infinity or integer beyond the float
    range), never bools. ``epsilon = 0`` is accepted so pure-consensus
    dynamics can be studied; optimization configs should keep it positive.
    """

    epsilon: float = 1.0
    K: int = 1
    max_iters: int = 5000
    grad_tol: float = 1e-10

    def __post_init__(self):
        # Messages lead with the field name.
        if not (is_finite_real(self.epsilon) and self.epsilon >= 0):
            raise InvalidParams(f"epsilon must be a nonnegative real number, got {self.epsilon!r}")
        if not (is_integer(self.K) and self.K >= 1):
            raise InvalidParams(f"K must be a positive integer, got {self.K}")
        if not (is_integer(self.max_iters) and self.max_iters >= 0):
            raise InvalidParams(f"max_iters must be a nonnegative integer, got {self.max_iters}")
        if not (is_finite_real(self.grad_tol) and self.grad_tol >= 0):
            raise InvalidParams(f"grad_tol must be a nonnegative real number, got {self.grad_tol!r}")


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


def giant_init(instance: ProblemInstance, x0: np.ndarray) -> NetworkState:
    """Start state of both tracking methods, giant and gt: g_i = w_i = grad f_i(x_i^0).

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
) -> NetworkState:
    """One synchronous round of the tracked Newton-type iteration.

    Update order: refresh the tracker with the new local gradients, store
    those gradients, apply each agent's inverse Hessian to its fresh
    tracker value, then take the damped step and mix. K consensus rounds
    are ``P.mix(v, K)``: one multiplication by P^K, which the matrix
    computes once and keeps, applied to both the tracker and the iterate
    update. This keeps a K-round step bitwise identical to a one-round
    step under P^K.

    Raises NotPositiveDefinite if a local Hessian stops being positive
    definite at the current iterate, which signals that the iterate left
    the region where the curvature assumptions hold numerically.
    """
    x = instance.check_stack(state.x)
    grads = instance.stacked_gradient(x)
    w_next = P.mix(state.w + grads - state.g, cfg.K)
    directions = instance.family.newton_directions(x, w_next)
    x_next = P.mix(x - cfg.epsilon * directions, cfg.K)
    return NetworkState(x=x_next, g=grads, w=w_next, iteration=state.iteration + 1)


def dgd_step(
    x: np.ndarray, instance: ProblemInstance, P: MixingMatrix, cfg: AlgorithmConfig
) -> np.ndarray:
    """Decentralized gradient descent: x_next = P x - eps * grad f(x).

    The state stays the bare (n, d) stack: a tracker triple would add two
    divergence reductions and a drift norm to every iteration.
    """
    x = instance.check_stack(x)
    return P.mix(x) - cfg.epsilon * instance.stacked_gradient(x)


def gt_step(
    state: NetworkState, instance: ProblemInstance, P: MixingMatrix, cfg: AlgorithmConfig
) -> NetworkState:
    """First-order gradient tracking, with tracker w and gradient memory g:

    x_next = P x - eps * w
    w_next = P w + grad f(x_next) - g
    g_next = grad f(x_next)

    The agent sum of w telescopes to the sum of current local gradients.
    """
    x = instance.check_stack(state.x)
    x_next = P.mix(x) - cfg.epsilon * state.w
    grads_next = instance.stacked_gradient(x_next)
    w_next = P.mix(state.w) + grads_next - state.g
    return NetworkState(x=x_next, g=grads_next, w=w_next, iteration=state.iteration + 1)


def centralized_newton(
    instance: ProblemInstance,
    x0: np.ndarray,
    tol: float = 1e-12,
    max_iters: int = NEWTON_MAX_ITERS,
) -> np.ndarray:
    """Full-Newton reference oracle on the averaged cost.

    Steps x <- x - hess_avg(x)^{-1} grad_avg(x) by the averaged cost's
    ``newton_directions`` until the averaged gradient norm drops to ``tol``.
    Exact in one step on quadratics.
    ``tol`` is a finite nonnegative real number and ``max_iters`` a nonnegative integer.
    """
    if not (is_finite_real(tol) and tol >= 0):
        raise InvalidParams(f"tol must be a finite nonnegative real number, got {tol!r}")
    if not (is_integer(max_iters) and max_iters >= 0):
        raise InvalidParams(f"max_iters must be a nonnegative integer, got {max_iters!r}")
    x = np.array(x0, dtype=float)
    for _ in range(max_iters):
        g = instance.average_gradient(x)
        if np.linalg.norm(g) <= tol:
            return x
        x = x - instance.family.average.newton_directions(x[None], g[None])[0]
    if np.linalg.norm(instance.average_gradient(x)) <= tol:
        return x
    raise MaxItersExceeded(f"Newton oracle did not reach tol={tol} in {max_iters} steps")


# The column of the run log that the stopping rule reads.
_GRAD_NORM = MetricsRecord._fields.index("grad_norm")

# run checks at most MAX_BLOCK iterations per pass, and no more than its
# states and averaged-cost temporaries fit in BLOCK_FLOATS floats (512 KiB).
BLOCK_FLOATS = 1 << 16
MAX_BLOCK = 64


def _block_cap(instance: ProblemInstance) -> int:
    """Most iterations ``run`` checks in one pass: 64 at n = 10, d = 5; 1 for an ``ObjectiveLoop``.

    Each iteration of a block keeps its state, 3nd floats, and the averaged
    cost makes temporaries the size of its arrays per iteration, so blocks
    stay small where one iteration's arrays are large.
    """
    floats = instance.family.average.floats
    if floats is None:
        return 1
    n, d = instance.family.shape
    return max(1, min(MAX_BLOCK, BLOCK_FLOATS // (3 * n * d + floats)))


def run(
    algorithm: str,
    instance: ProblemInstance,
    P: MixingMatrix,
    cfg: AlgorithmConfig,
    x0: np.ndarray,
) -> tuple[NetworkState | np.ndarray, MetricsLog]:
    """Drive an algorithm to its stopping rule, logging one metrics row per iteration.

    Stops when the gradient norm of the averaged cost at the mean iterate
    drops to ``cfg.grad_tol``, when ``cfg.max_iters`` iterations have run,
    or when any state entry leaves [-1e12, 1e12] or turns non-finite, in
    which case the log is marked diverged instead of raising. Iteration 0
    is logged but not checked for divergence.

    The rule is checked once per block of iterations: the steps of a block
    run first, then ``diagnostics.check_block`` gives the metrics rows and
    the divergence mask of all its states in one batched pass. Block
    lengths double 1, 2, 4, ... up to ``_block_cap(instance)`` (at most 64)
    and never pass ``cfg.max_iters``. The run stops at the first row of a
    block that meets the rule and returns that row's state, so the log,
    the final state and the stop are those of a check after every step;
    the up to cap - 1 steps computed after the stop are discarded. If a
    step raises, the states before it are checked first: the run returns
    normally if one of them stops it, and the error propagates otherwise.
    The kept rows of all blocks become the log's table in one concatenate.

    Returns (final_state, MetricsLog): a NetworkState for giant and gt,
    the bare iterate stack for dgd. The log always contains the
    iteration-0 row, so ``max_iters = 0`` yields exactly one row.
    Requires ``instance.reference_solution`` and one row of P per agent.
    """
    if instance.reference_solution is None:
        raise MissingReference("instance has no reference solution; compute one first")
    f_star = instance.average_value(instance.reference_solution)
    if P.n != instance.n_agents:
        raise DimensionMismatch(f"mixing matrix is {P.n}x{P.n} for {instance.n_agents} agents")
    if algorithm not in ALGORITHMS:
        raise InvalidParams(f"unknown algorithm {algorithm!r}; choose from {ALGORITHMS}")

    # Built per call from the module globals, so a rebinding of a step reaches run.
    step = {"giant": giant_step, "gt": gt_step, "dgd": dgd_step}[algorithm]
    state = giant_init(instance, x0) if algorithm != "dgd" else instance.check_stack(x0).copy()
    cap = _block_cap(instance)

    with np.errstate(all="ignore"):
        tables = [_check(instance, [state], 0, f_star)[0]]
        k, size, diverged = 0, 1, False
        while not diverged and k < cfg.max_iters and tables[-1][-1, _GRAD_NORM] > cfg.grad_tol:
            states, error = [], None
            try:
                for _ in range(min(size, cap, cfg.max_iters - k)):
                    state = step(state, instance, P, cfg)
                    states.append(state)
            except Exception as exc:  # raised again below unless a state before it stops the run
                if not states:
                    raise
                error = exc
            table, block_diverged = _check(instance, states, k + 1, f_star)
            stops = np.flatnonzero(block_diverged | ~(table[:, _GRAD_NORM] > cfg.grad_tol))
            if error is not None and not stops.size:
                raise error
            end = stops[0] + 1 if stops.size else len(table)
            tables.append(table[:end])
            state, k, diverged = states[end - 1], k + end, bool(block_diverged[end - 1])
            size *= 2
    return state, MetricsLog(np.concatenate(tables), diverged)


def _check(instance, states, first_iteration, f_star):
    """``check_block`` of consecutive ``states``, stacked into (B, n, d) blocks."""
    # np.array copies a list of equal-shape arrays in one call; np.stack pays per array.
    if isinstance(states[0], NetworkState):
        x, w, g = (np.array([getattr(s, name) for s in states]) for name in "xwg")
    else:
        x, w, g = np.array(states), None, None
    return check_block(instance, x, w, g, first_iteration, f_star)
