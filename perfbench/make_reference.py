#!/usr/bin/env python3
"""Regenerate perfbench/reference/full_stiff.json.

    python3 perfbench/make_reference.py

Run from the root of a gridlock source tree.  For every full-stiff cell
it builds the chain with the program's build_grid_ctmc, assembles the generator
from the chain's transition map (perfbench/checks.py) and computes the
four label probabilities with scipy.sparse.linalg.expm_multiply, apart
from gridlock's uniformization.  It also records, for information, the
total-variation distance to gridlock's `transient` on the same chain.
About 15 s per attack cell on one core.
"""

from __future__ import annotations

import json
import platform
import shutil
import sys

import numpy as np
import scipy

import checks
from run import REFERENCE, WORK, WORKLOADS, _chains, write_inputs


def main() -> int:
    wl = WORKLOADS["full-stiff"]
    work = WORK / "reference"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        scen, demand = write_inputs(wl, work)
        chains = _chains(wl, scen, demand, wl.hours)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    import gridlock
    from gridlock.solvers import transient

    cells = []
    for (variant, hour), chain in sorted(chains.items()):
        pi = checks.sparse_transient(chain, wl.horizon)
        tv = 0.5 * float(np.abs(pi - transient(chain, wl.horizon).probs).sum())
        cell = {"variant": variant, "hour": hour, "states": chain.n_states,
                "transitions": len(chain.transitions),
                **dict(zip(checks.LABELS, checks.label_sums(chain, pi))),
                "tv_to_transient": tv}
        print(json.dumps(cell), flush=True)
        cells.append(cell)

    REFERENCE.parent.mkdir(exist_ok=True)
    REFERENCE.write_text(json.dumps({
        "command": "python3 perfbench/make_reference.py",
        "method": "scipy.sparse.linalg.expm_multiply on Q^T assembled from Ctmc.transitions",
        "horizon_minutes": wl.horizon,
        "hours": list(wl.hours),
        "versions": {"python": platform.python_version(), "numpy": np.__version__,
                     "scipy": scipy.__version__, "gridlock": gridlock.__version__},
        "cells": cells,
    }, indent=1) + "\n")
    print(f"wrote {REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
