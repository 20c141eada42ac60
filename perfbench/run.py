#!/usr/bin/env python3
"""gridlock benchmark: sweep workloads through `gridlock.cli.main`.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a gridlock source tree.  Each round of a workload
runs in a fresh interpreter (perfbench/child.py) with one worker.  The
run repeats whole rounds until S seconds have passed (at least two),
then checks the outputs against computations made apart from the
program (perfbench/checks.py).  A workload's result is one JSON line,
{"correct", "attempted", "failed", "metrics"}; with a single workload it
is the last line of standard output.

--trace 0 reports the end-to-end metrics setup_s, run_s and peak_rss_mb
(medians over the run); the two times are scaled to a reference host
speed by the speedometer in perfbench/child.py.  --trace 1 alternates untraced and traced
rounds and reports the per-layer metrics from the traced ones
(perfbench/tracer.py).  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DATA = SRC / "gridlock" / "data"
WORK = ROOT / ".perfbench_work"
REFERENCE = HERE / "reference" / "full_stiff.json"

DESK_COUNTS = {"nuclear": 2, "hydro": 2, "gas": 3}
DESK_DEMAND_SCALE = 0.265
SETUP_PROBES = 3
MIN_ROUNDS = 2
RUN_LIMIT_S = 170.0
SIM_FAMILY_ALPHA = 1e-3
# probes per second of child.py's speedometer on this benchmark's
# reference host (see README); the time metrics are scaled to it
REFERENCE_PROBE_RATE = 1200.0
VARIANTS = ("ATTACK-G", "ATTACK-H", "ATTACK-N", "NO-ATTACK")


@dataclass(frozen=True)
class Workload:
    name: str
    fleet: str  # "desk" or "full"
    command: str  # "check" or "simulate"
    hours: tuple[int, ...]
    mode: str = "transient"
    horizon: float = 60.0
    trials: int = 0
    checked_hours: int = 0  # hours per run checked against an independent solve

    def ops_per_round(self) -> int:
        # cells for check, label estimates for simulate
        return len(self.hours) * 4


WORKLOADS = {
    w.name: w
    for w in (
        Workload("desk-sweep", "desk", "check", tuple(range(24)), horizon=10.0, checked_hours=3),
        Workload("full-stiff", "full", "check", (18,), horizon=60.0),
        Workload("full-steady", "full", "check", (4, 12, 18), mode="steady", checked_hours=1),
        Workload("desk-simulate", "desk", "simulate", (4, 12, 18), horizon=10.0, trials=50_000),
    )
}

# metric names and units, as BENCHMARK.json declares them
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
E2E_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}

# per-layer metric -> span whose self time it is
SPAN_OF = {
    "cli.import_s": "cli.import",
    "scenario_io.parse_s": "scenario_io.parse",
    "scenario_io.write_s": "scenario_io.write",
    "grid.build_s": "grid.build",
    "ctmc.rate_matrix_s": "ctmc.rate_matrix",
    "ctmc.generator_s": "ctmc.generator",
    "solvers.transient_s": "solvers.transient",
    "solvers.bscc_s": "solvers.bscc",
    "solvers.absorption_s": "solvers.absorption",
    "solvers.steady_s": "solvers.steady",
    "solvers.label_s": "solvers.label",
    "sim.estimate_s": "sim.estimate",
    "experiments.self_s": "experiments.sweep",
    "cli.self_s": "cli.main",
}


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


# -- inputs ------------------------------------------------------------

def write_inputs(wl: Workload, work: Path) -> tuple[Path, Path]:
    """Scenario and demand files for the workload's fleet.

    The full fleet is the packaged reference grid and profile.  The desk
    fleet is the same grid at 2/2/3 units with the profile scaled by
    0.265, written with repr() so the parsed floats are exact.
    """
    scenario = (DATA / "scenario_reference.txt").read_text()
    demand = (DATA / "demand_default.csv").read_text()
    if wl.fleet == "desk":
        for cls, count in DESK_COUNTS.items():
            scenario, n = re.subn(
                rf"(\[generator {cls}\][^\[]*?\ncount = )\d+", rf"\g<1>{count}", scenario
            )
            if n != 1:
                raise RuntimeError(f"no count line for generator {cls} in the reference scenario")
        rows = [line.split(",") for line in demand.split()[1:]]
        demand = "hour,mw\n" + "".join(
            f"{h},{float(mw) * DESK_DEMAND_SCALE!r}\n" for h, mw in rows
        )
    scen_path, demand_path = work / "scenario.txt", work / "demand.csv"
    scen_path.write_text(scenario)
    demand_path.write_text(demand)
    return scen_path, demand_path


def cli_argvs(wl: Workload, seed: int, scen: Path, demand: Path, out: Path):
    common = ["--scenario", str(scen), "--demand", str(demand)]
    if wl.command == "check":
        return [["check", *common, "--hours", ",".join(map(str, wl.hours)), "--mode", wl.mode,
                 "--horizon", f"{wl.horizon:g}", "--workers", "1", "--out", str(out)]]
    return [["simulate", *common, "--hour", str(h), "--horizon", f"{wl.horizon:g}",
             "--trials", str(wl.trials), "--seed", str(seed)] for h in wl.hours]


# -- rounds ------------------------------------------------------------

@dataclass
class Round:
    traced: bool
    setup_s: float  # at the reference speed when the speedometer ran, else wall time
    run_s: float
    wall_setup_s: float
    wall_run_s: float
    probe_rate: float | None  # speedometer probes per second during the run
    peak_rss_kib: int
    output: str
    failed: int
    trace: dict | None


def run_child(work: Path, tag: str, job: dict, timeout: float) -> tuple[dict | None, str, str]:
    job_path = work / f"{tag}.job.json"
    result_path = work / f"{tag}.result.json"
    job["result"] = str(result_path)
    job_path.write_text(json.dumps(job))
    env = dict(os.environ, PYTHONPATH=str(SRC), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    with open(work / f"{tag}.stdout", "w+") as out, open(work / f"{tag}.stderr", "w+") as err:
        spawned = _now()
        proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), str(job_path)],
                                stdout=out, stderr=err, env=env, cwd=ROOT)
        try:
            code = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            code = None
        out.seek(0)
        err.seek(0)
        stdout, stderr = out.read(), err.read()
    if code != 0 or not result_path.exists():
        sys.stderr.write(stderr)
        return None, stdout, stderr
    result = json.loads(result_path.read_text())
    result["wall_setup_s"] = result["setup_end"] - spawned
    result["wall_run_s"] = result["run_s"]
    result["setup_s"] = at_reference_speed(result["wall_setup_s"], result["setup_speed"])
    result["run_s"] = at_reference_speed(result["wall_run_s"], result["run_speed"])
    return result, stdout, stderr


def at_reference_speed(wall_s: float, speed: dict | None) -> float:
    """Wall time without the probes, scaled to the reference probe rate.

    A core that ran the probe at rate r during the span would have run
    the same work in (wall - probe time) * r / REFERENCE_PROBE_RATE
    seconds at the reference speed.
    """
    if speed is None:
        return wall_s
    return (wall_s - speed["probe_s"]) * speed["probe_rate"] / REFERENCE_PROBE_RATE


def run_round(wl, work, index, job, traced, timeout) -> Round:
    tag = f"round{index}"
    out_csv = work / f"{tag}.csv"
    job = dict(job, trace=traced, argv=[
        [str(out_csv) if a == "{out}" else a for a in argv] for argv in job["argv"]
    ])
    result, stdout, stderr = run_child(work, tag, job, timeout)
    ops = wl.ops_per_round()
    if result is None:
        nan = float("nan")
        return Round(traced, nan, nan, nan, nan, None, 0, "", ops, None)
    if wl.command == "check":
        output = out_csv.read_text() if out_csv.exists() else ""
        failed = 0
        if result["codes"][0] != 0:
            failed = max(1, sum(line.startswith("error:") for line in stderr.splitlines()))
            sys.stderr.write(stderr)
    else:
        output = stdout
        failed = 4 * sum(code != 0 for code in result["codes"])
    return Round(traced, result["setup_s"], result["run_s"], result["wall_setup_s"],
                 result["wall_run_s"], (result["run_speed"] or {}).get("probe_rate"),
                 result["peak_rss_kib"],
                 output, min(failed, ops), result.get("trace"))


# -- per-layer metrics from spans -------------------------------------

def layer_metrics(trace: dict) -> dict[str, float | None]:
    """Self times and counters of one traced round; None where no call."""
    spans = trace["spans"]
    self_s = [s["end"] - s["start"] for s in spans]
    root = list(range(len(spans)))
    for i, s in enumerate(spans):
        if s["parent"] is not None:
            self_s[s["parent"]] -= s["end"] - s["start"]
            root[i] = root[s["parent"]]
    totals: dict[str, float] = {}
    for i, s in enumerate(spans):
        in_run = spans[root[i]]["name"] == "cli.main"
        if s["name"] == "scenario_io.parse" and in_run:
            # main() parses the inputs again; set-up already counted them
            totals["run.parse"] = totals.get("run.parse", 0.0) + self_s[i]
            continue
        totals[s["name"]] = totals.get(s["name"], 0.0) + self_s[i]
    out: dict[str, float | None] = {m: totals.get(span) for m, span in SPAN_OF.items()}
    c = trace["counters"]
    built = out["grid.build_s"] is not None
    out["grid.states"] = c["states"] if built else None
    out["grid.transitions"] = c["transitions"] if built else None
    out["grid.states_per_s"] = c["states"] / out["grid.build_s"] if built else None
    solved = out["solvers.transient_s"] is not None
    out["solvers.lambda_t"] = c["lambda_t"] if solved else None
    out["solvers.transient_ns_per_nnz_step"] = (
        out["solvers.transient_s"] * 1e9 / c["nnz_lambda_t"] if solved else None
    )
    simulated = out["sim.estimate_s"] is not None
    out["sim.trials"] = c["trials"] if simulated else None
    out["sim.trials_per_s"] = c["trials"] / out["sim.estimate_s"] if simulated else None
    out["run.accounted_s"] = sum(
        v for k, v in totals.items() if k not in ("cli.import", "scenario_io.parse")
    )
    return out


# -- checks ------------------------------------------------------------

def _chains(wl: Workload, scen_path: Path, demand_path: Path, hours):
    """(variant, hour) -> chain, built by the program's build_grid_ctmc."""
    sys.path.insert(0, str(SRC))
    from gridlock.experiments import make_attack_variants
    from gridlock.grid import build_grid_ctmc
    from gridlock.scenario_io import load_demand_csv, parse_scenario

    scenario = parse_scenario(scen_path.read_text())
    profile = load_demand_csv(demand_path.read_text())
    variants = make_attack_variants(scenario) if wl.command == "check" else [("as-given", scenario)]
    return {
        (name, h): build_grid_ctmc(scen, profile.mw_by_hour[h])
        for name, scen in variants for h in hours
    }


def check_outputs(wl: Workload, output: str, scen: Path, demand: Path, check_hours) -> list[str]:
    import checks

    if wl.command == "simulate":
        exact = {
            h: dict(zip(checks.LABELS, checks.label_sums(chain, checks.dense_transient(chain, wl.horizon))))
            for (_, h), chain in _chains(wl, scen, demand, wl.hours).items()
        }
        return checks.check_simulation(checks.parse_simulation(output), exact, wl.trials,
                                       SIM_FAMILY_ALPHA)

    rows = checks.parse_results(output)
    cells = [(v, h) for v in VARIANTS for h in wl.hours]
    problems = checks.check_structure(rows, cells, no_attack_blackout_zero=wl.fleet == "full")
    if wl.name == "full-stiff":
        ref = json.loads(REFERENCE.read_text())
        if ref["horizon_minutes"] != wl.horizon or sorted(ref["hours"]) != sorted(wl.hours):
            return problems + ["reference was made for other hours or another horizon"]
        expected = {(c["variant"], c["hour"]): tuple(c[lab] for lab in checks.LABELS)
                    for c in ref["cells"]}
        return problems + checks.check_values(rows, expected, 1e-8)
    chains = _chains(wl, scen, demand, check_hours)
    expected = {}
    for key, chain in chains.items():
        if wl.mode == "transient":
            pi = checks.dense_transient(chain, wl.horizon)
        else:
            pi, residual = checks.direct_steady(chain)
            if not residual < 1e-9:
                problems.append(f"{key}: balance residual {residual:.3g} of the direct solve")
        expected[key] = checks.label_sums(chain, pi)
    return problems + checks.check_values(rows, expected, 1e-8)


# -- main ----------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"],
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "gridlock" / "cli.py").is_file():
        print(f"error: no gridlock source under {SRC}; run from the root of a gridlock tree",
              file=sys.stderr)
        return 2
    if args.workload != "all":
        return _run_workload(WORKLOADS[args.workload], args)
    code = 0
    for name in WORKLOADS:
        print(f"== {name}", flush=True)
        code = max(code, _run_workload(WORKLOADS[name], args))
    return code


def _run_workload(wl: Workload, args) -> int:
    # the timed work is the same for every seed; the seed picks the cells
    # checked against an independent solve (and the simulation seed)
    check_hours = sorted(random.Random(args.seed).sample(wl.hours, wl.checked_hours))
    work = WORK / f"{wl.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return _run(wl, args, check_hours, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(wl: Workload, args, check_hours, work: Path) -> int:
    started = _now()
    scen, demand = write_inputs(wl, work)
    job = {"src": str(SRC), "scenario": str(scen), "demand": str(demand),
           "speedometer": not args.trace,
           "argv": cli_argvs(wl, args.seed, scen, demand, Path("{out}"))}

    def timeout():
        return max(1.0, RUN_LIMIT_S - (_now() - started))

    setups, wall_setups = [], []
    if not args.trace:
        for i in range(SETUP_PROBES):
            result, _, _ = run_child(work, f"probe{i}", dict(job, argv=[], trace=False), timeout())
            if result is None:
                print("error: set-up probe failed", file=sys.stderr)
                return 1
            setups.append(result["setup_s"])
            wall_setups.append(result["wall_setup_s"])

    # whole rounds (pairs of untraced and traced rounds with --trace 1)
    # until the measuring window has passed
    unit = 2 if args.trace else 1
    rounds: list[Round] = []
    while True:
        traced = bool(args.trace) and len(rounds) % 2 == 1
        rounds.append(run_round(wl, work, len(rounds), job, traced, timeout()))
        if rounds[-1].output == "" or traced and rounds[-1].trace is None:
            break  # the round did not finish; what failed is counted
        elapsed = _now() - started
        if (len(rounds) >= MIN_ROUNDS and len(rounds) % unit == 0 and elapsed >= args.seconds
                or elapsed > RUN_LIMIT_S / 2):
            break

    # a round that finished times the command even if some cells failed
    plain = [r for r in rounds if not r.traced and r.output]
    traced_rounds = [r for r in rounds if r.traced and r.trace is not None]
    if not plain or args.trace and not traced_rounds:
        print("error: no round finished; nothing to measure", file=sys.stderr)
        return 1
    problems = []
    if len({r.output for r in plain + traced_rounds}) > 1:
        problems.append("rounds on the same inputs wrote different outputs")
    problems += check_outputs(wl, plain[0].output, scen, demand, check_hours)
    for p in problems:
        print(f"check failed: {p}")

    counters = {
        "rounds": len(rounds),
        "ops_per_round": wl.ops_per_round(),
        "output_bytes": len(plain[0].output.encode()),
        "hours": list(wl.hours),
        "independently_checked_hours": check_hours if wl.checked_hours else sorted(wl.hours),
    }
    if args.trace:
        layers = [layer_metrics(r.trace) for r in traced_rounds]
        metrics, absent = {}, []
        for name, unit in PER_LAYER_UNITS.items():
            if name == "trace.overhead_s":
                value = (statistics.median(r.run_s for r in traced_rounds)
                         - statistics.median(r.run_s for r in plain))
            elif layers[0][name] is None:
                absent.append(name)
                value = 0.0
            elif unit == "count":
                value = layers[0][name]  # work counters repeat exactly; all are listed below
            else:
                value = statistics.median(m[name] for m in layers)
            metrics[name] = {"value": value, "unit": unit}
        for key in ("grid.states", "grid.transitions", "solvers.lambda_t", "sim.trials"):
            counters[key] = [m[key] for m in layers]
        counters["traced_run_s"] = [r.run_s for r in traced_rounds]
        counters["layer_self_s_total"] = [m["run.accounted_s"] for m in layers]
        print("layers with no call on this workload (reported as 0): " + (", ".join(absent) or "none"))
    else:
        setups += [r.setup_s for r in plain]
        metrics = {
            "setup_s": statistics.median(setups),
            "run_s": statistics.median(r.run_s for r in plain),
            "peak_rss_mb": statistics.median(r.peak_rss_kib for r in plain) / 1024.0,
        }
        metrics = {name: {"value": metrics[name], "unit": unit} for name, unit in E2E_UNITS.items()}
        counters["setup_s"] = setups
        counters["run_s"] = [r.run_s for r in plain]
        counters["wall_setup_s"] = wall_setups + [r.wall_setup_s for r in plain]
        counters["wall_run_s"] = [r.wall_run_s for r in plain]
        counters["probe_rate_per_s"] = [r.probe_rate for r in plain]
    print("counters " + json.dumps(counters))
    print(json.dumps({"correct": not problems, "attempted": wl.ops_per_round() * len(rounds),
                      "failed": sum(r.failed for r in rounds), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
