"""Per-layer self time for the traced pass, from wrappers the benchmark installs.

Every module-global binding of a listed public function in the ``ergostop``
package is replaced by one timing wrapper, including the names that
``from ... import`` re-binds in other modules, so calls between modules are
seen wherever they come from. Private helpers are not wrapped, so their time
is charged to the public function that called them. Self time is a span's
duration minus the time covered by its child spans.

A stage keeps its metric name when a function is renamed: only the name
lists in ``STAGES`` change.
"""

from __future__ import annotations

import functools
import inspect
import sys
import types
from time import perf_counter

PACKAGE = "ergostop"

# metric stem -> public entry points charged to it
STAGES = {
    "markov.graph": ("reachable_matrix", "recurrent_classes", "is_irreducible", "chain_period"),
    "markov.stationary": ("stationary_distribution",),
    "markov.build": ("build_dtmc", "build_from_generator"),
    "markov.simulate": ("simulate_paths",),
    "markov.path_stream": ("path_stream",),
    "ergodicity.zero_potential": ("zero_potential",),
    "ergodicity.tv_curve": ("tv_distance_curve", "fit_ergodic_bound"),
    "ergodicity.dynkin": ("verify_dynkin_identity",),
    "finite_horizon.sweep": ("solve_finite_horizon", "solve_truncated"),
    "finite_horizon.supermartingale": ("check_supermartingale",),
    "finite_horizon.running_max": ("truncation_gap_bound", "expected_running_max"),
    "infinite_horizon.solve": ("solve_infinite_horizon",),
    "infinite_horizon.gamma": ("gamma_value",),
    "infinite_horizon.hitting_time": ("expected_hitting_time",),
    "infinite_horizon.oracle": ("brute_force_region_oracle",),
    "montecarlo.functional": ("estimate_functional",),
    "montecarlo.truncation_gap": ("terminal_truncation_gap",),
    "modelio.load": ("load_model_file",),
    "report.emit": ("emit_report",),
    "cli": ("run",),
}

# stages whose call count is reported beside their self time
COUNTED = ("markov.graph", "markov.stationary", "markov.path_stream",
           "finite_horizon.running_max", "infinite_horizon.gamma")


def _path_steps(fn):
    """Counter for simulate_paths: sampled steps = n_paths * horizon_steps."""
    sig = inspect.signature(fn)

    def count(args, kwargs):
        bound = sig.bind(*args, **kwargs).arguments
        return int(bound["n_paths"]) * int(bound["horizon_steps"])
    return count


class Tracer:
    """Installs the wrappers on entry and restores every binding on exit."""

    def __init__(self):
        self.self_s = {stage: 0.0 for stage in STAGES}
        self.calls = {stage: 0 for stage in STAGES}
        self.path_steps = 0
        self.missing: list[str] = []
        self._stack: list[float] = []
        self._saved: list[tuple[types.ModuleType, str, object]] = []

    def __enter__(self):
        stage_of = {fn: stage for stage, names in STAGES.items() for fn in names}
        wrappers = {}
        found = set()
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if not (isinstance(value, types.FunctionType)
                        and value.__module__.startswith(PACKAGE)
                        and value.__name__ == attr
                        and attr in stage_of):
                    continue
                if value not in wrappers:
                    wrappers[value] = self._wrap(value, stage_of[attr])
                self._saved.append((mod, attr, value))
                setattr(mod, attr, wrappers[value])
                found.add(attr)
        self.missing = sorted(set(stage_of) - found)
        return self

    def __exit__(self, *exc):
        for mod, attr, value in reversed(self._saved):
            setattr(mod, attr, value)
        self._saved.clear()
        return False

    def _wrap(self, fn, stage):
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        steps_of = _path_steps(fn) if stage == "markov.simulate" else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if steps_of is not None:
                self.path_steps += steps_of(args, kwargs)
            stack.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                self_s[stage] += dur - stack.pop()
                calls[stage] += 1
                if stack:
                    stack[-1] += dur
        return wrapper

    def metrics(self) -> dict:
        """Self seconds of every stage, the call counts named in COUNTED,
        and the path steps sampled by simulate_paths."""
        out = {}
        for stage in STAGES:
            out[f"{stage}.self_s"] = self.self_s[stage]
            if stage in COUNTED:
                out[f"{stage}.calls"] = self.calls[stage]
        out["markov.simulate.path_steps"] = self.path_steps
        return out
