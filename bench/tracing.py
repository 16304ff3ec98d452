"""Spans around pulserc's layer boundaries, recorded from outside the
package.

Each wrapper replaces a name in the module that *calls* it (for example
``pulserc.harness.run``, the reservoir drive as the harness binds it), so
the span sits exactly where one layer hands work to the next. A name the
program no longer binds is skipped: its metrics then read 0 calls and its
time shows up in the caller's self time.

Spans are kept in memory as ``[name, start, end, parent]`` and handed to
``run.py`` when the child finishes.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time
from collections import defaultdict

MODULES = ("tasks", "reservoir", "readout", "harness", "cli")


# Counters take the call's bound arguments and its result.

def _node_updates(a, result):
    return {"reservoir.run.node_updates": len(a["inputs"]) * a["params"].num_nodes}


def _gram_flops(a, result):
    n, p = a["states"].shape
    return {"readout.fit_ridge.gram_flops": 2.0 * n * p * p + p ** 3 / 3.0}


def _narma_attempts(a, result):
    return {"tasks.gen_narma.attempts":
            result.meta["effective_seed"] - a["cfg"].seed + 1}


def _csv_bytes(a, result):
    size = os.path.getsize(a["input_path"])
    if not str(a["target"]).startswith("column:"):
        size += os.path.getsize(a["target"])
    return {"tasks.load_csv_task.bytes_read": size}


# (module, name as bound there, span name, counter)
WRAPPED = (
    ("pulserc.harness", "gen_narma", "tasks.gen_narma", _narma_attempts),
    ("pulserc.harness", "load_csv_task", "tasks.load_csv_task", _csv_bytes),
    ("pulserc.harness", "standardize", "tasks.standardize", None),
    ("pulserc.harness", "generate_mask", "reservoir.generate_mask", None),
    ("pulserc.harness", "run", "reservoir.run", _node_updates),
    ("pulserc.harness", "fit_ridge", "readout.fit_ridge", _gram_flops),
    ("pulserc.harness", "predict", "readout.predict", None),
    ("pulserc.harness", "evaluate", "readout.evaluate", None),
    ("pulserc.harness", "nrmse", "readout.nrmse", None),
    ("pulserc.harness", "run_experiment", "harness.run_experiment", None),
    ("pulserc.cli", "parse_spec_file", "harness.parse_spec_file", None),
    ("pulserc.cli", "run_sweep", "harness.run_sweep", None),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._open: list[int] = []

    def wrap(self, fn, name: str, counter=None):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), 0.0,
                    self._open[-1] if self._open else -1]
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._open.pop()
            if counter is not None:
                bound = signature.bind(*args, **kwargs).arguments
                for key, value in counter(bound, result).items():
                    self.counters[key] += value
            return result
        return traced

    def install(self) -> None:
        """Replace every bound name in ``WRAPPED`` that still exists."""
        for module_name, attr, span_name, counter in WRAPPED:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is not None:
                setattr(module, attr, self.wrap(fn, span_name, counter))

    def layer_metrics(self, wall_s: float, results_bytes: int) -> dict:
        """Per-layer metrics of one traced call that took ``wall_s`` on
        the clock, like its spans; the caller adds ``trace.wall_s``."""
        total: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        child_time = [0.0] * len(self.spans)
        below_root = 0.0  # time inside spans other than the top-level call's
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for (name, start, end, parent), children in zip(self.spans, child_time):
            total[name] += end - start
            self_s[name] += end - start - children
            calls[name] += 1
            if parent >= 0:
                below_root += end - start - children

        c = self.counters
        m = {
            "reservoir.run.calls": calls["reservoir.run"],
            "reservoir.run.s": total["reservoir.run"],
            "reservoir.run.node_updates": c["reservoir.run.node_updates"],
            "reservoir.run.ns_per_node_update": _ratio(
                1e9 * total["reservoir.run"], c["reservoir.run.node_updates"]),
            "reservoir.generate_mask.s": total["reservoir.generate_mask"],
            "readout.fit_ridge.calls": calls["readout.fit_ridge"],
            "readout.fit_ridge.s": total["readout.fit_ridge"],
            "readout.fit_ridge.gram_flops": c["readout.fit_ridge.gram_flops"],
            "readout.predict.s": total["readout.predict"],
            "readout.evaluate.s": total["readout.evaluate"],
            "readout.nrmse.calls": calls["readout.nrmse"],
            "tasks.gen_narma.calls": calls["tasks.gen_narma"],
            "tasks.gen_narma.s": total["tasks.gen_narma"],
            "tasks.gen_narma.attempts": c["tasks.gen_narma.attempts"],
            "tasks.gen_narma.useful_ratio": _ratio(
                calls["tasks.gen_narma"], c["tasks.gen_narma.attempts"]),
            "tasks.load_csv_task.calls": calls["tasks.load_csv_task"],
            "tasks.load_csv_task.s": total["tasks.load_csv_task"],
            "tasks.load_csv_task.bytes_read": c["tasks.load_csv_task.bytes_read"],
            "harness.run_experiment.self_s": self_s["harness.run_experiment"],
            "harness.run_sweep.self_s": self_s["harness.run_sweep"],
            "harness.parse_spec_file.s": total["harness.parse_spec_file"],
            "harness.results_bytes": results_bytes,
            "cli.main.self_s": self_s["cli.main"],
            "trace.coverage": below_root / wall_s,
        }
        for module in MODULES:
            share = sum(v for k, v in self_s.items() if k.startswith(module + "."))
            m[f"{module}.share"] = share / wall_s
        return m


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
