"""The benchmark's tracer still finds the program's trace points.

perfbench/tracer.py wraps functions at the module attributes through which
the program calls them, and reads work counters off their results.  A
renamed attribute or a changed result type would otherwise surface only
in a benchmark run.  The tracer patches modules in place, so it runs in a
child interpreter.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_CHILD = """
import json, sys
from tracer import Tracer

tracer = Tracer()
tracer.install()
from gridlock.cli import main

code = main(sys.argv[1:])
print(json.dumps({"code": code, "spans": sorted({s["name"] for s in tracer.spans}),
                  "counters": tracer.counters}))
"""


def test_traced_simulate_counts_each_path_once():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "perfbench"), str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", _CHILD, "simulate", "--hour", "4", "--horizon", "1",
         "--trials", "300", "--seed", "2"],
        env=env, capture_output=True, text=True, check=True, timeout=300,
    ).stdout
    got = json.loads(out.splitlines()[-1])
    assert got["code"] == 0
    assert {"grid.build", "sim.estimate"} <= set(got["spans"])
    assert got["counters"]["trials"] == 300
