"""One workload round in a fresh interpreter.

    python3 perfbench/child.py JOB.json

JOB holds the scenario and demand paths, a list of argument lists for
`gridlock.cli.main` (empty for a set-up probe), the trace flag and the
path of the result file.  Set-up is importing `gridlock.cli` and parsing
the two input files; the run is every `main()` call up to and including
the flushed output.  Times are CLOCK_MONOTONIC, which the parent shares,
so the parent measures set-up from before it started this process.

Untraced rounds also carry a speedometer (see `Speedometer`): the host's
speed on this core, sampled while set-up and the run go on.
"""

import json
import resource
import signal
import sys
import time
from contextlib import nullcontext
from pathlib import Path

# the speedometer's probe: a fixed pure-Python loop of about 1 ms, run
# every SAMPLE_EVERY_S seconds of wall time
PROBE_ITERATIONS = 10_000
SAMPLE_EVERY_S = 0.02


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _probe() -> int:
    s = 0
    for i in range(PROBE_ITERATIONS):
        s += i * i % 7
    return s


class Speedometer:
    """Samples how fast this core runs a fixed probe while the round runs.

    On a shared host the speed of a core drifts by 10-30 % within seconds
    and over minutes, as other guests load the same physical core; the
    drift hits the probe and the program alike.  A SIGALRM handler runs
    the probe every SAMPLE_EVERY_S seconds in this process, so on the
    same core and interleaved with the program's own work.  `rates` holds
    each sample's probes per second; `spent` is the handlers' wall time,
    which the caller takes out of the time it measures.
    """

    def __init__(self):
        self.rates: list[float] = []
        self.spent = 0.0

    def _tick(self, _signum, _frame):
        start = time.perf_counter()
        _probe()
        took = time.perf_counter() - start
        self.rates.append(1.0 / took)
        self.spent += time.perf_counter() - start

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> tuple[int, float]:
        return len(self.rates), self.spent

    def since(self, mark: tuple[int, float]) -> dict | None:
        """Mean probe rate and handler time since `mark`; None if no probe ran."""
        rates = self.rates[mark[0]:]
        if not rates:
            return None
        return {"probe_rate": sum(rates) / len(rates), "probes": len(rates),
                "probe_s": self.spent - mark[1]}


def main() -> int:
    job = json.loads(Path(sys.argv[1]).read_text())
    speed = Speedometer() if job["speedometer"] else None
    if speed:
        speed.start()
    tracer = None
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer()
    span = tracer.span if tracer else nullcontext

    with span("cli.import"):
        import gridlock.cli
    if not Path(gridlock.cli.__file__).resolve().is_relative_to(Path(job["src"]).resolve()):
        print(f"gridlock imported from {gridlock.cli.__file__}, not {job['src']}", file=sys.stderr)
        return 2
    if tracer:
        tracer.install()
    gridlock.cli.parse_scenario(Path(job["scenario"]).read_text())
    gridlock.cli.load_demand_csv(Path(job["demand"]).read_text())
    setup_end = _now()
    setup_speed = speed.since((0, 0.0)) if speed else None

    codes = []
    mark = speed.mark() if speed else None
    run_start = time.perf_counter()
    for argv in job["argv"]:
        with span("cli.main"):
            codes.append(gridlock.cli.main(argv))
            sys.stdout.flush()
    run_s = time.perf_counter() - run_start
    run_speed = speed.since(mark) if speed else None
    if speed:
        speed.stop()

    result = {
        "setup_end": setup_end,
        "run_s": run_s,
        "setup_speed": setup_speed,
        "run_speed": run_speed,
        "codes": codes,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer:
        result["trace"] = {"spans": tracer.spans, "counters": tracer.counters}
    Path(job["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
