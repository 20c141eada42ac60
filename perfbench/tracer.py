"""In-memory spans around the calls gridlock's modules make into each other.

`install()` replaces each traced public function at the module attribute
through which the program calls it (for example
`gridlock.experiments.build_grid_ctmc`, not `gridlock.grid.build_grid_ctmc`),
so the program itself is not edited.  A span is (name, start, end, parent,
cell); spans stay in memory and the caller writes them out when the run
ends.  `cell` names the chain of the latest `build_grid_ctmc` call.  Work
counters (cells, states, transitions, Lambda*t, trials) are read through
the program's public API after the traced call returns.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from functools import cached_property

# span name -> (module, attribute) pairs the program calls it through
TRACE_POINTS = {
    "scenario_io.parse": [("gridlock.cli", "parse_scenario"), ("gridlock.cli", "load_demand_csv")],
    "scenario_io.write": [("gridlock.cli", "write_results_csv")],
    "experiments.sweep": [("gridlock.cli", "run_hourly_sweep")],
    "grid.build": [("gridlock.cli", "build_grid_ctmc"), ("gridlock.experiments", "build_grid_ctmc")],
    "solvers.transient": [("gridlock.experiments", "transient")],
    "solvers.steady": [("gridlock.experiments", "steady_state")],
    "solvers.label": [("gridlock.experiments", "label_probability")],
    "solvers.bscc": [("gridlock.solvers", "bscc_decomposition")],
    "solvers.absorption": [("gridlock.solvers", "absorption_probabilities")],
    "sim.estimate": [("gridlock.cli", "estimate_label_metrics")],
    "ctmc.generator": [("gridlock.ctmc", "Ctmc.generator_matrix")],
    "ctmc.rate_matrix": [("gridlock.ctmc", "Ctmc.rate_matrix")],
}


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.counters = {"states": 0, "transitions": 0, "lambda_t": 0.0,
                         "nnz_lambda_t": 0.0, "trials": 0, "cells": 0}
        self._stack: list[int] = []
        self._cell: str | None = None

    @contextmanager
    def span(self, name: str):
        rec = {"name": name, "start": time.perf_counter(), "end": None,
               "parent": self._stack[-1] if self._stack else None, "cell": self._cell}
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    # -- wrappers -----------------------------------------------------

    def _wrap(self, name: str, fn, after=None, before=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            with self.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(result, *args, **kwargs)
            return result
        return traced

    def _enter_cell(self, scen, base_mw, *_, **__):
        head = scen.controller.priority[0] if scen.botnet.enabled else "no-attack"
        self._cell = f"{self.counters['cells']}:{head}@{base_mw:g}MW"
        self.counters["cells"] += 1

    def _after_build(self, chain, *_, **__):
        from gridlock.grid import state_space_stats

        stats = state_space_stats(chain)
        self.counters["states"] += stats.n_states
        self.counters["transitions"] += stats.n_transitions

    def _after_transient(self, _dist, chain, t, *_, **__):
        # Lambda*t without the solver's uniformization slack: the expected
        # number of jumps of the fastest state over the horizon
        lt = float(chain.exit_rates.max()) * t if chain.n_states else 0.0
        self.counters["lambda_t"] += lt
        # the uniformized matrix holds the off-diagonal rates plus a diagonal
        self.counters["nnz_lambda_t"] += (chain.rate_matrix.nnz + chain.n_states) * lt

    def _after_estimate(self, est, *_, **__):
        self.counters["trials"] += est.trials

    def install(self) -> None:
        """Wrap every trace point; raises if one no longer exists."""
        import importlib

        hooks = {
            "grid.build": dict(before=self._enter_cell, after=self._after_build),
            "solvers.transient": dict(after=self._after_transient),
            "sim.estimate": dict(after=self._after_estimate),
        }
        for name, points in TRACE_POINTS.items():
            for modname, attr in points:
                mod = importlib.import_module(modname)
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(mod, cls_name)
                    orig = cls.__dict__[meth]
                    if isinstance(orig, cached_property):
                        prop = cached_property(self._wrap(name, orig.func))
                        prop.__set_name__(cls, meth)
                        setattr(cls, meth, prop)
                    else:
                        setattr(cls, meth, self._wrap(name, orig))
                else:
                    setattr(mod, attr, self._wrap(name, getattr(mod, attr), **hooks.get(name, {})))
