"""Check that the tier-1 suite kills every listed source mutation.

    python tools/mutants.py [NAME ...]

It first runs the suite on a copy of the tree (without ``.git`` and
caches), which must pass. Then, for each mutant (all of them, or the
named ones), it makes a fresh copy in a temporary directory, replaces
one snippet of one source file there and runs, in that copy, the test
files that killed the mutant last time, stopping at the first failure
(``-x``). A mutant is killed when they fail. If they pass, the copy runs
the whole suite: a mutant the suite kills is printed as ``killed,
stale killers`` with the files that failed, which are the entry's new
killer list, and one the suite does not kill survives. Prints one line
per mutant with the failing test files, and the count and wall time at
the end. Exits 1 if the unmutated copy fails or a mutant survives, 2 if
a name is unknown, a snippet no longer occurs exactly once in its file
or a killer file is missing, and 0 otherwise. The working tree is never
modified.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SKIPPED = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache", ".work")
SUITE = ["--continue-on-collection-errors"]  # the whole tier-1 suite

# name -> (file under src/giantnet, snippet, replacement, the test files that killed it last time)
MUTANTS = {
    "solve-before-mix": (
        "algorithms.py",
        "    w_next = P.mix(state.w + grads - state.g, cfg.K)\n"
        "    directions = instance.family.newton_directions(x, w_next)\n",
        "    directions = instance.family.newton_directions(x, state.w + grads - state.g)\n"
        "    w_next = P.mix(state.w + grads - state.g, cfg.K)\n",
        ("tests/test_algorithms.py",),
    ),
    "einsum-row-norms": (
        "numerics.py",
        "    return np.sqrt((flat[:, None, :] @ flat[:, :, None])[:, 0, 0])\n",
        '    return np.sqrt(np.einsum("ij,ij->i", flat, flat))\n',
        ("tests/test_diagnostics.py", "tests/test_blocks.py"),
    ),
    "mid-block-error-swallowed": (
        "algorithms.py",
        "            if error is not None and not stops.size:\n                raise error\n",
        "",
        ("tests/test_blocks.py",),
    ),
    "block-past-max-iters": (
        "algorithms.py",
        "range(min(k + 1, cap, cfg.max_iters - k))",
        "range(min(k + 1, cap))",
        ("tests/test_blocks.py",),
    ),
    "tracker-keeps-old-gradients": (
        "algorithms.py",
        "    w_next = P.mix(state.w + grads - state.g, cfg.K)\n",
        "    w_next = P.mix(state.w + grads, cfg.K)\n",
        ("tests/test_algorithms.py",),
    ),
    "harmonic-mean-of-hessians": (
        "diagnostics.py",
        "    m = instance.family.newton_directions(instance.consensus_stack(x), eye).mean(axis=0)\n",
        "    m = instance.family.hessians(instance.consensus_stack(x)).mean(axis=0)\n",
        ("tests/test_diagnostics.py",),
    ),
    "tune-judges-the-final-gap": (
        "harness.py",
        "    hit = None if log.diverged else log.first_iteration_below(target)\n"
        '    status = "diverged" if log.diverged else "not_reached" if hit is None else "reached"\n',
        "    gap = float(log.final.opt_gap)\n"
        "    diverged = log.diverged or not np.isfinite(gap) or gap > 1e12\n"
        "    hit = None if diverged else log.first_iteration_below(target)\n"
        '    status = "diverged" if diverged else "not_reached" if hit is None else "reached"\n',
        ("tests/test_harness.py",),
    ),
    "tune-caps-before-the-best-hit": (
        "harness.py",
        "            cap, best = result.iterations, None\n",
        "            cap, best = result.iterations - 1, None\n",
        ("tests/test_harness.py",),
    ),
    "tune-keeps-the-capped-log": (
        "harness.py",
        "_tune_point(instance, mix, x0, name, replace(algo_cfg, epsilon=eps), target, start=start)",
        "_tune_point(instance, mix, x0, name, replace(algo_cfg, epsilon=eps, max_iters=cap), target, start=start)",
        ("tests/test_harness.py",),
    ),
    "tune-trusts-the-early-winner": (
        "harness.py",
        '        if best[0].status != "reached":\n',
        "        if False:\n",
        ("tests/test_harness.py",),
    ),
    "tail-phase-shift": (
        "algorithms.py",
        "                tail = rows[-period:][rest % period]\n",
        "                tail = rows[-period:][(rest + 1) % period]\n",
        ("tests/test_blocks.py",),
    ),
    "resume-drops-prefix": (
        "algorithms.py",
        "    return state, log.table\n",
        "    return state, log.table[-1:]\n",
        ("tests/test_blocks.py",),
    ),
    "resume-restarts-numbering": (
        "algorithms.py",
        "        tables, k, diverged = [table], int(table[-1, 0]), False\n",
        "        tables, k, diverged = [table], 0, False\n",
        ("tests/test_blocks.py",),
    ),
    "resume-restarts-ramp": (
        "algorithms.py",
        "range(min(k + 1, cap, cfg.max_iters - k))",
        "range(min(k + 1 if len(tables) > 1 else 1, cap, cfg.max_iters - k))",
        ("tests/test_blocks.py",),
    ),
    "run-stops-below-the-target": (
        "algorithms.py",
        "        stop |= table[:, _OPT_GAP] <= target\n",
        "        stop |= table[:, _OPT_GAP] < target\n",
        ("tests/test_blocks.py",),
    ),
    "csr-mix-one-round-short": (
        "topology.py",
        "            for _ in range(k):  # one neighbour exchange per round\n",
        "            for _ in range(k - 1):  # one neighbour exchange per round\n",
        ("tests/test_topology.py",),
    ),
    "mix-accepts-zero-rounds": (
        "topology.py",
        "        if not (is_integer(k) and k >= 1):  # 2.0 or True would hit the memo of 2 or 1\n",
        "        if not is_integer(k):  # 2.0 or True would hit the memo of 2 or 1\n",
        ("tests/test_topology.py",),
    ),
    "mix-takes-any-ndim": (
        "topology.py",
        '        if getattr(x, "ndim", None) not in (1, 2):  # P^k @ a 3-D stack would mix along its second axis\n'
        '            got = f"shape {x.shape}" if hasattr(x, "shape") else f"a {type(x).__name__}"\n'
        '            raise DimensionMismatch(f"mix takes an (n,) vector or an (n, d) stack, got {got}")\n',
        "",
        ("tests/test_topology.py",),
    ),
    "config-decode-errors-unmapped": (
        "harness.py",
        "    except RecursionError as exc:\n"
        '        raise ParseError(f"{path}: JSON nested too deep to parse") from exc\n'
        "    except ValueError as exc:  # UnicodeDecodeError, or an integer past the int-string digit limit\n"
        '        raise ParseError(f"{path}: {exc}") from exc\n',
        "",
        ("tests/test_cli.py",),
    ),
    "softplus-wrong-branch": (
        "objectives.py",
        "np.maximum(-margins, 0.0)",
        "np.maximum(margins, 0.0)",
        ("tests/test_objectives.py",),
    ),
    "ridge-on-every-entry": (
        "objectives.py",
        "        h.reshape(len(h), -1)[:, :: d + 1] += self.ridge",
        "        h += self.ridge",
        ("tests/test_objectives.py",),
    ),
    "block-cap-ignores-states": (
        "algorithms.py",
        "BLOCK_FLOATS // (3 * n * d + floats)",
        "BLOCK_FLOATS // floats",
        ("tests/test_blocks.py",),
    ),
    "sparsity-ignores-off-graph": (
        "topology.py",
        "    on_graph = np.concatenate((edge_keys, [-1]))[np.searchsorted(edge_keys, keys)] == keys\n",
        "    on_graph = np.ones(len(keys), dtype=bool)\n",
        ("tests/test_topology.py",),
    ),
    "symmetry-skips-absent-transpose": (
        "topology.py",
        "        asym = float(np.abs(np.where(vals == partner, 0.0, vals - partner)).max(initial=0.0))\n",
        "        asym = float(np.abs(np.where((vals == partner) | (partner == 0), 0.0, vals - partner)).max(initial=0.0))\n",
        ("tests/test_topology.py",),
    ),
    "symmetry-subtracts-equal-infinities": (
        "topology.py",
        "        asym = float(np.abs(np.where(vals == partner, 0.0, vals - partner)).max(initial=0.0))\n",
        "        asym = float(np.abs(vals - partner).max(initial=0.0))\n",
        ("tests/test_topology.py",),
    ),
    "column-sums-read-as-row-sums": (
        "topology.py",
        "        col_dev = float(np.abs(np.bincount(cols, vals, n) - 1.0).max(initial=0.0))\n",
        "        col_dev = float(np.abs(np.bincount(rows, vals, n) - 1.0).max(initial=0.0))\n",
        ("tests/test_topology.py",),
    ),
    "mixing-matrix-accepts-any-p": (
        "topology.py",
        "        for c in _weight_checks(sparse):\n",
        "        for c in ():\n",
        ("tests/test_topology.py",),
    ),
    "mixing-matrix-skips-column-sums": (
        "topology.py",
        "        for c in _weight_checks(sparse):\n",
        "        for c in _weight_checks(sparse)[:3]:\n",
        ("tests/test_topology.py",),
    ),
    "families-miss-infinities": (
        "objectives.py",
        "        if not np.isfinite(stack).all():\n",
        "        if np.isnan(stack).any():\n",
        ("tests/test_stacked.py",),
    ),
    "objectives-view-first-agent": (
        "objectives.py",
        "        self.family, self.index = family, index\n",
        "        self.family, self.index = family, 0\n",
        ("tests/test_stacked.py",),
    ),
    "circulant-compares-rows-0-and-1": (
        "numerics.py",
        "    same = (offsets == offsets[0]) & (vals == vals[0])\n",
        "    same = (offsets[:2] == offsets[0]) & (vals[:2] == vals[0])\n",
        ("tests/test_numerics.py",),
    ),
    "circulant-lambda0-keeps-perron": (
        "numerics.py",
        "    lam[0] -= 1.0\n",
        "",
        ("tests/test_numerics.py",),
    ),
    "families-take-any-row-count": (
        "objectives.py",
        "    if len(stack) != n and n > 1:\n",
        "    if False:\n",
        ("tests/test_objectives.py",),
    ),
    "instance-takes-any-family": (
        "objectives.py",
        "        if not isinstance(self.family, AgentFamily):\n"
        '            raise InvalidSpec(f"family must be an AgentFamily, got {type(self.family).__name__}")\n',
        "",
        ("tests/test_stacked.py",),
    ),
    "csr-keys-from-columns": (
        "numerics.py",
        "            self._keys = (self.rows[:, None] * d + np.arange(d)).ravel()\n",
        "            self._keys = (self.cols[:, None] * d + np.arange(d)).ravel()\n",
        ("tests/test_numerics.py",),
    ),
    "unconvertible-p-raises-numpys-error": (
        "numerics.py",
        "        try:\n"
        "            p = np.asarray(p, dtype=float)\n"
        "        except (TypeError, ValueError, OverflowError) as exc:  # a ragged list, a string\n",
        "        p = np.asarray(p, dtype=float)\n"
        "        if False:\n",
        ("tests/test_numerics.py", "tests/test_topology.py"),
    ),
    "csr-keys-kept-across-widths": (
        "numerics.py",
        "        if len(self._keys) != len(self.cols) * d:",
        "        if not len(self._keys):",
        ("tests/test_numerics.py",),
    ),
    "csr-sum-without-minlength": (
        "numerics.py",
        "np.bincount(self._keys, terms.ravel(), minlength=n * d)",
        "np.bincount(self._keys, terms.ravel())",
        ("tests/test_numerics.py",),
    ),
    "descent-lower-bound-squared": (
        "diagnostics.py",
        '        geq("value_lower", v, 0.5 * mu * r2),\n',
        '        geq("value_lower", v, 0.5 * mu**2 * r2),\n',
        ("tests/test_diagnostics.py",),
    ),
    "descent-upper-bound-squared": (
        "diagnostics.py",
        '        geq("value_upper", 0.5 * lip * r2, v),\n',
        '        geq("value_upper", 0.5 * lip**2 * r2, v),\n',
        ("tests/test_diagnostics.py",),
    ),
    "logistic-takes-infinite-ridge": (
        "objectives.py",
        "        if not (is_finite_real(self.ridge) and self.ridge > 0):\n",
        "        if not (is_finite_real(self.ridge) and self.ridge > 0 or self.ridge == np.inf):\n",
        ("tests/test_stacked.py",),
    ),
    "shape-deviation-from-the-first-dim": (
        "topology.py",
        "        off = max(abs(dim - g.n) for dim in shape) if len(shape) == 2 else math.inf\n",
        "        off = abs(shape[0] - g.n)\n",
        ("tests/test_topology.py",),
    ),
    "nonfinite-start-accepted": (
        "algorithms.py",
        "    if bad:\n"
        '        raise InvalidParams(f"x0 must be finite, got {bad} of {x0.size} entries NaN or infinite")\n',
        "",
        ("tests/test_blocks.py",),
    ),
    "tune-fallback-holds-every-log": (
        "harness.py",
        "            best = min(full, key=lambda p: _tune_key(p[0]))\n",
        "            best = min(list(full), key=lambda p: _tune_key(p[0]))\n",
        ("tests/test_harness.py",),
    ),
    "row-sparse-takes-any-order": (
        "numerics.py",
        "        if not (keys[1:] > keys[:-1]).all():\n"
        '            raise DimensionMismatch("stored entries must be sorted by row, then column, with no position twice")\n',
        "",
        ("tests/test_topology.py",),
    ),
}


@contextmanager
def fresh_copy(name: str | None):
    """A copy of the tree in a temporary directory, with mutant ``name`` applied, or none."""
    with tempfile.TemporaryDirectory(prefix="giantnet-mutant-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=SKIPPED)
        if name is not None:
            module, snippet, replacement, _ = MUTANTS[name]
            path = tree / "src" / "giantnet" / module
            path.write_text(path.read_text().replace(snippet, replacement))
        yield tree


def pytest(tree: Path, args: list[str]) -> tuple[bool, list[str]]:
    """``(failed, failing test files)`` of pytest with ``args`` in ``tree``."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-rfE", *args],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    failed = sorted(set(re.findall(r"^(?:FAILED|ERROR) (tests/[\w/]+\.py)", proc.stdout, re.MULTILINE)))
    return proc.returncode != 0, failed


def main(argv: list[str]) -> int:
    names = argv or list(MUTANTS)
    unknown = [name for name in names if name not in MUTANTS]
    if unknown:
        print(f"unknown mutant(s) {unknown}; choose from {list(MUTANTS)}", file=sys.stderr)
        return 2
    source = {module: (ROOT / "src" / "giantnet" / module).read_text() for module, *_ in MUTANTS.values()}
    stale = [name for name in names if source[MUTANTS[name][0]].count(MUTANTS[name][1]) != 1]
    if stale:
        print(f"snippet not found exactly once in its file: {stale}", file=sys.stderr)
        return 2
    missing = [name for name in names if not all((ROOT / path).is_file() for path in MUTANTS[name][3])]
    if missing:
        print(f"killer file missing: {missing}", file=sys.stderr)
        return 2
    start = time.monotonic()
    with fresh_copy(None) as tree:
        failed_plain, failed = pytest(tree, SUITE)
    if failed_plain:
        print(f"the unmutated tree fails: {' '.join(failed)}")
        return 1
    survived = []
    for name in names:
        with fresh_copy(name) as tree:
            killed, failed = pytest(tree, ["-x", *MUTANTS[name][3]])
            verdict = "killed"
            if not killed:
                killed, failed = pytest(tree, SUITE)
                verdict = "killed, stale killers" if killed else "SURVIVED"
        print(f"{name}: {verdict} {' '.join(failed)}", flush=True)
        if not killed:
            survived.append(name)
    print(f"{len(names) - len(survived)} of {len(names)} mutants killed in {time.monotonic() - start:.0f} s")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
