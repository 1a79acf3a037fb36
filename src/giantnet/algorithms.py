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

``run`` checks its stopping rule once per block of up to 64 steps with
``diagnostics.check_block``, which owns the metrics rows, the tracking
drift and the divergence rule; its rows, stop and final state are those of
a check after every step. Steps are pure functions of the state's arrays
(x, w, g), and so must be the agent families they evaluate: so ``run``
writes the rows of a cycle of states instead of stepping through it, and
a run that stopped early resumes from its last row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diagnostics import MetricsLog, MetricsRecord, check_block
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
    """Stacked per-agent triples (x_i, g_i, w_i); the run log numbers the iterations."""

    x: np.ndarray
    g: np.ndarray
    w: np.ndarray

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
    grads = instance.family.gradients(x0)
    return NetworkState(x=x0, g=grads, w=grads.copy())


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
    are ``P.mix(v, K)``, applied to both the tracker and the iterate
    update: K products by a CSR P, one neighbour exchange each, or one
    multiplication by the P^K that a dense P computes once and keeps.
    On a dense P this keeps a K-round step bitwise identical to a
    one-round step under P^K; on a CSR P the two agree to a few ulp.

    Raises NotPositiveDefinite if a local Hessian stops being positive
    definite at the current iterate, which signals that the iterate left
    the region where the curvature assumptions hold numerically.
    """
    x = instance.check_stack(state.x)
    grads = instance.family.gradients(x)
    w_next = P.mix(state.w + grads - state.g, cfg.K)
    directions = instance.family.newton_directions(x, w_next)
    x_next = P.mix(x - cfg.epsilon * directions, cfg.K)
    return NetworkState(x=x_next, g=grads, w=w_next)


def dgd_step(
    x: np.ndarray, instance: ProblemInstance, P: MixingMatrix, cfg: AlgorithmConfig
) -> np.ndarray:
    """Decentralized gradient descent: x_next = P x - eps * grad f(x).

    The state stays the bare (n, d) stack: a tracker triple would add two
    divergence reductions and a drift norm to every iteration.
    """
    x = instance.check_stack(x)
    return P.mix(x) - cfg.epsilon * instance.family.gradients(x)


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
    grads_next = instance.family.gradients(x_next)
    w_next = P.mix(state.w) + grads_next - state.g
    return NetworkState(x=x_next, g=grads_next, w=w_next)


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
        g = instance.objective.gradient(x)
        if np.linalg.norm(g) <= tol:
            return x
        x = x - instance.family.average.newton_directions(x[None], g[None])[0]
    if np.linalg.norm(instance.objective.gradient(x)) <= tol:
        return x
    raise MaxItersExceeded(f"Newton oracle did not reach tol={tol} in {max_iters} steps")


# The columns of the run log that the stopping rule reads.
_GRAD_NORM = MetricsRecord._fields.index("grad_norm")
_OPT_GAP = MetricsRecord._fields.index("opt_gap")

# run checks at most MAX_BLOCK iterations per pass, and no more than its
# states and averaged-cost temporaries fit in BLOCK_FLOATS floats (512 KiB).
BLOCK_FLOATS = 1 << 16
MAX_BLOCK = 64


def _block_cap(instance: ProblemInstance) -> int:
    """Most iterations ``run`` checks in one pass: 64 at n = 10, d = 5.

    Each iteration of a block keeps its state, 3nd floats, and the averaged
    cost makes ``family.average.floats`` floats of temporaries at its mean
    point, so blocks stay small where one iteration's arrays are large: 4
    at n = 1000, d = 5, and 2 for logistic n = 100, d = 20, m = 50.
    """
    floats = instance.family.average.floats
    n, d = instance.family.shape
    return max(1, min(MAX_BLOCK, BLOCK_FLOATS // (3 * n * d + floats)))


def run(
    algorithm: str,
    instance: ProblemInstance,
    P: MixingMatrix,
    cfg: AlgorithmConfig,
    x0: np.ndarray,
    *,
    target: float | None = None,
    start: tuple[NetworkState | np.ndarray, MetricsLog] | None = None,
) -> tuple[NetworkState | np.ndarray, MetricsLog]:
    """Drive an algorithm to its stopping rule, logging one metrics row per iteration.

    Stop: the run stops at the first row whose averaged-cost gradient norm
    at the mean iterate is at most ``cfg.grad_tol``, or whose optimality gap
    is at most ``target`` if one is given, iteration 0 included; at
    ``cfg.max_iters``; or at the first state past iteration 0 with an entry
    outside [-1e12, 1e12] or non-finite, where the log is marked diverged
    instead of raising. A run with a target thus logs a prefix of the run
    without one, bit for bit, up to the row
    ``MetricsLog.first_iteration_below`` names. ``target`` is None or a
    finite real >= 0, never a bool; anything else raises InvalidParams.

    Blocks: from iteration k the run takes min(k + 1, cap, max_iters - k)
    steps, where cap = ``_block_cap(instance)`` (at most 64) and max_iters =
    ``cfg.max_iters``: a fresh run's blocks double 1, 2, 4, ... up to the
    cap. Then ``diagnostics.check_block`` gives the block's metrics rows and
    divergence mask in one batched pass, and the run stops at the first row
    that meets the rule and returns that row's state: the log, the final
    state and the stop are those of a check after every step, and the up to
    cap - 1 steps computed after the stop are discarded. If a step raises,
    the states before it are checked first: the run returns normally if one
    of them stops it, and the error propagates otherwise.

    Fast-forward: after a block that neither stops nor reaches
    ``cfg.max_iters``, its last state is compared with the state the block
    started from and its other states, first by metrics row, then bit for
    bit. If it equals the state p iterations back, every step assumed pure,
    the run has period p from there and none of its later rows stops it: the
    log gets the rest of its rows up to ``cfg.max_iters`` as the last p rows
    over again, renumbered, in one O(rows) gather, and the run returns the
    cycle's state at ``cfg.max_iters``, not diverged. So the step count can
    be below ``cfg.max_iters`` on a run that reaches it. Only periods up to
    the block length are found: at a cap of 4 periods up to 4.

    Resume: every run steps on from the last row of a ``(state, log)`` pair.
    A fresh run builds its own from ``x0``: the start state and its
    iteration-0 row, which is never checked for divergence: an ``x0``
    holding a NaN or an infinity raises InvalidParams naming their count,
    and a finite one beyond 1e12 starts a run. ``start`` gives
    instead the pair of an earlier run of the same algorithm, instance, P
    and cfg that stopped early, at a ``target`` or at a lower
    ``cfg.max_iters``, and ``x0`` is not read. Rows are those of one state
    at a time, blocks depend on the iteration only and steps are pure, so
    the whole log from iteration 0 and the final state are the bits of the
    same run without ``start``. If the start's last row meets the rule, the
    run returns at once. A diverged start log, or one past
    ``cfg.max_iters``, raises InvalidParams; a state of the wrong kind or
    shape raises DimensionMismatch.

    Returns (final_state, MetricsLog): x, g and w as a NetworkState for
    giant and gt, the bare stack for dgd. The log numbers the iterations and
    always holds the iteration-0 row, so ``max_iters = 0`` yields one row.
    Requires ``instance.reference_solution`` and one row of P per agent.
    """
    if instance.reference_solution is None:
        raise MissingReference("instance has no reference solution; compute one first")
    f_star = instance.objective.value(instance.reference_solution)
    if P.n != instance.n_agents:
        raise DimensionMismatch(f"mixing matrix is {P.n}x{P.n} for {instance.n_agents} agents")
    if algorithm not in ALGORITHMS:
        raise InvalidParams(f"unknown algorithm {algorithm!r}; choose from {ALGORITHMS}")
    if target is not None:
        check_target(target)

    # Built per call from the module globals, so a rebinding of a step reaches run.
    step = {"giant": giant_step, "gt": gt_step, "dgd": dgd_step}[algorithm]
    if start is None:  # a fresh run resumes from its iteration-0 row
        x0 = instance.check_stack(x0)
        bad = np.count_nonzero(~np.isfinite(x0))
        if bad:
            raise InvalidParams(f"x0 must be finite, got {bad} of {x0.size} entries NaN or infinite")
        state = giant_init(instance, x0) if algorithm != "dgd" else x0.copy()
        with np.errstate(all="ignore"):
            start = state, MetricsLog(_check(instance, [state], 0, f_star)[0])
    state, table = _resumed(algorithm, instance, cfg, start)
    cap = _block_cap(instance)

    with np.errstate(all="ignore"):
        tables, k, diverged = [table], int(table[-1, 0]), False
        stopped = bool(_stop_mask(table[-1:], cfg, target)[0])
        while not stopped and k < cfg.max_iters:
            states, error = [state], None
            try:
                for _ in range(min(k + 1, cap, cfg.max_iters - k)):
                    states.append(step(states[-1], instance, P, cfg))
            except Exception as exc:  # raised again below unless a state before it stops the run
                if len(states) == 1:
                    raise
                error = exc
            table, block_diverged = _check(instance, states[1:], k + 1, f_star)
            stops = np.flatnonzero(block_diverged | _stop_mask(table, cfg, target))
            if error is not None and not stops.size:
                raise error
            end = stops[0] + 1 if stops.size else len(table)
            rows = np.vstack((tables[-1][-1:], table[:end]))  # rows[i] is the row of states[i]
            tables.append(rows[1:])
            state, k, diverged = states[end], k + end, bool(block_diverged[end - 1])
            stopped = bool(stops.size)
            period = 0 if stopped or k == cfg.max_iters else _period(rows, states)
            if period:
                # From here the rows repeat the last period's, renumbered, and none of them stops the run.
                rest = np.arange(cfg.max_iters - k)
                tail = rows[-period:][rest % period]
                tail[:, 0] = rest
                tail[:, 0] += k + 1
                tables.append(tail)
                state, k = states[-1 - (k - cfg.max_iters) % period], cfg.max_iters
    return state, MetricsLog(np.concatenate(tables), diverged)


def check_target(target) -> None:
    """Raise InvalidParams unless ``target`` is a finite real >= 0 (a NaN stops no run), never a bool."""
    if not (is_finite_real(target) and target >= 0):
        raise InvalidParams(f"target must be a finite number >= 0, got {target!r}")


def _resumed(algorithm, instance, cfg, start):
    """The state and log table of ``start``, a ``(state, log)`` that ``run`` steps on from, checked."""
    state, log = start
    if log.diverged or log.final.iteration > cfg.max_iters:
        raise InvalidParams(
            f"start must be a log that did not diverge and ends by max_iters = {cfg.max_iters}, "
            f"got diverged={log.diverged} at iteration {log.final.iteration}"
        )
    tracked = algorithm != "dgd"
    if isinstance(state, NetworkState) != tracked:
        kind = "a NetworkState" if tracked else "a bare (n, d) stack"
        raise DimensionMismatch(f"{algorithm} resumes from {kind}, got {type(state).__name__}")
    instance.check_stack(state.x if tracked else state)
    return state, log.table


def _stop_mask(table, cfg, target):
    """Rows of ``table`` that stop a run by ``cfg.grad_tol`` or, if one is set, by ``target``."""
    stop = ~(table[:, _GRAD_NORM] > cfg.grad_tol)
    if target is not None:
        stop |= table[:, _OPT_GAP] <= target
    return stop


def _period(rows, states):
    """Smallest p with ``states[-1 - p]`` bitwise equal to ``states[-1]``, or 0 if there is none.

    ``rows[i]`` is the metrics row of ``states[i]``. Equal states have equal
    rows, so only states whose row equals the last one in every metric
    column are compared, bit by bit (-0.0 and 0.0 differ).
    """
    for i in np.flatnonzero((rows[:-1, 1:] == rows[-1, 1:]).all(axis=1))[::-1]:
        if _same_bits(states[i], states[-1]):
            return len(states) - 1 - i
    return 0


def _same_bits(a, b) -> bool:
    pairs = zip((a.x, a.w, a.g), (b.x, b.w, b.g)) if isinstance(a, NetworkState) else ((a, b),)
    return all(u.tobytes() == v.tobytes() for u, v in pairs)


def _check(instance, states, first_iteration, f_star):
    """``check_block`` of consecutive ``states``, stacked into (B, n, d) blocks."""
    # np.array copies a list of equal-shape arrays in one call; np.stack pays per array.
    if isinstance(states[0], NetworkState):
        x, w, g = (np.array([getattr(s, name) for s in states]) for name in "xwg")
    else:
        x, w, g = np.array(states), None, None
    return check_block(instance, x, w, g, first_iteration, f_star)
