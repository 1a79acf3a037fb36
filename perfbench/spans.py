"""Per-layer spans recorded from outside the package.

``Tracer.install`` wraps the public functions of each giantnet module in
every namespace that holds them by name (a module that did
``from .numerics import spd_solve`` gets the wrapper too), so that a call
is timed whichever module makes it. ``Tracer.restore`` puts the originals
back. A span's self time is its duration minus the durations of the spans
it encloses; self times of all spans add up to the time covered by
outermost spans.

A target that a later refactor removed or renamed is reported in
``absent`` instead of failing the run.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter

# (metric prefix, module, attribute path). Several targets may share a
# prefix; their calls and self times are added.
TARGETS = (
    ("numerics.spd_factorize", "giantnet.numerics", "spd_factorize"),
    ("numerics.spd_solve", "giantnet.numerics", "spd_solve"),
    ("numerics.second_singular_value", "giantnet.numerics", "second_singular_value"),
    ("objectives.stacked_gradient", "giantnet.objectives", "ProblemInstance.stacked_gradient"),
    ("objectives.hessian", "giantnet.objectives", "QuadraticObjective.hessian"),
    ("objectives.hessian", "giantnet.objectives", "LogisticObjective.hessian"),
    ("objectives.average_value", "giantnet.objectives", "ProblemInstance.average_value"),
    ("objectives.average_gradient", "giantnet.objectives", "ProblemInstance.average_gradient"),
    ("objectives.generate_problem", "giantnet.objectives", "generate_problem"),
    ("topology.make_graph", "giantnet.topology", "make_graph"),
    ("topology.metropolis_weights", "giantnet.topology", "metropolis_weights"),
    ("topology.validate_mixing", "giantnet.topology", "validate_mixing"),
    ("topology.power", "giantnet.topology", "MixingMatrix.power"),
    ("algorithms.run", "giantnet.algorithms", "run"),
    ("algorithms.giant_step", "giantnet.algorithms", "giant_step"),
    ("algorithms.gt_step", "giantnet.algorithms", "gt_step"),
    ("algorithms.dgd_step", "giantnet.algorithms", "dgd_step"),
    ("algorithms.centralized_newton", "giantnet.algorithms", "centralized_newton"),
    ("diagnostics.metrics_record", "giantnet.diagnostics", "metrics_record"),
    ("diagnostics.tracking_drift", "giantnet.diagnostics", "tracking_drift"),
    ("diagnostics.estimate_rate", "giantnet.diagnostics", "estimate_rate"),
    ("harness.load_config", "giantnet.harness", "load_config"),
    ("harness.build_instance", "giantnet.harness", "build_instance"),
    ("harness.compare", "giantnet.harness", "compare"),
    ("harness.write_csv", "giantnet.harness", "write_metrics_csv"),
    ("harness.write_csv", "giantnet.harness", "write_comparison_csv"),
)

# Spans whose individual durations are kept for percentiles.
KEEP_DURATIONS = ("algorithms.giant_step",)


def package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "giantnet" or name.startswith("giantnet."))]


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.durations = defaultdict(list)
        self.root_s = 0.0  # summed durations of outermost spans
        self.absent = []
        self._stack = []  # per open span: time covered by its child spans
        self._patched = []  # (namespace, attribute, original)

    def _wrap(self, name, fn):
        stack = self._stack
        keep = name in KEEP_DURATIONS

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                children = stack.pop()
                self.calls[name] += 1
                self.self_s[name] += dt - children
                if stack:
                    stack[-1] += dt
                else:
                    self.root_s += dt
                if keep:
                    self.durations[name].append(dt)

        return span

    def install(self):
        modules = package_modules()
        for name, module_name, path in TARGETS:
            owner = sys.modules.get(module_name)
            *owner_path, attr = path.split(".")
            for part in owner_path:
                owner = getattr(owner, part, None)
            original = None if owner is None else vars(owner).get(attr)
            if not callable(original):
                self.absent.append(f"{module_name}.{path}")
                continue
            wrapper = self._wrap(name, original)
            if owner_path:  # a method: the class is the only namespace
                self._patch(owner, attr, original, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, original, wrapper)

    def _patch(self, namespace, attr, original, wrapper):
        setattr(namespace, attr, wrapper)
        self._patched.append((namespace, attr, original))

    def restore(self) -> bool:
        """Put every original back; true when each replaced name holds its original again."""
        for namespace, attr, original in reversed(self._patched):
            setattr(namespace, attr, original)
        restored = all(getattr(ns, attr) is orig for ns, attr, orig in self._patched)
        self._patched.clear()
        return restored

    def report(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "durations": {k: list(v) for k, v in self.durations.items()},
            "root_s": self.root_s,
            "absent": list(self.absent),
        }
