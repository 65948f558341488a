"""hyperlab benchmark.

Run from the root of a checkout; the program is imported from its src/:

    python3 perfbench/run.py --workload accept --seed 1 --seconds 25 --trace 0

With --trace 0 the run sets up its inputs several times (reporting the
median set-up), then calls the program in whole rounds until --seconds have
passed.  Each end-to-end metric comes from the median of each call's
durations over the rounds, after scaling for the host's speed, which a
reference loop measures between calls (see Tally).  With --trace 1 it runs
one round twice, untraced and then traced, and reports the per-layer
metrics of the traced pass; --seconds is then unused, so that every count
repeats exactly for a given seed.  Every output is checked; the last line
of stdout is one JSON object, and the exit code is 1 if any check failed.

    python3 perfbench/run.py --workload all      # every workload, one line each
    python3 perfbench/run.py --selfcheck         # tiny sizes, asserts every metric
    python3 perfbench/run.py --print-digests     # reference digests for digests.json
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from fractions import Fraction
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 5
REFERENCE_LOOP_S = 0.0015  # scaled times are those of a host where reference_loop() takes this
CALIBRATE_EVERY_S = 0.25
MAX_TRACEBACKS = 3

# (name, unit) of every end-to-end metric
END_TO_END = [
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
]

# numpy is imported first and untimed: its import time swung by 2x on a
# shared host with no change to the program, while a heavy import that
# hyperlab itself adds is still timed
IMPORT_PROBE = (
    "import sys, time, numpy; sys.path[:0] = sys.argv[1:]; from run import reference_loop; "
    "loop = reference_loop(); t = time.perf_counter(); import hyperlab; "
    "t = time.perf_counter() - t; print(t, (loop + reference_loop()) / 2, hyperlab.__file__)"
)


def import_seconds() -> float:
    """Import time of hyperlab in a fresh interpreter, scaled for the host's
    speed there (see Tally)."""
    out = subprocess.run([sys.executable, "-I", "-c", IMPORT_PROBE, SRC, HERE], cwd=ROOT,
                         capture_output=True, text=True, timeout=120, check=True)
    seconds, loop, path = out.stdout.split()
    if not path.startswith(SRC + os.sep):
        raise RuntimeError(f"imported hyperlab from {path}, not from {SRC}")
    return float(seconds) * REFERENCE_LOOP_S / float(loop)


def reference_loop() -> float:
    """Seconds taken by a fixed mix of interpreter work like hyperlab's:
    tuple keys in a dict, math.comb, Fractions, set intersection and a
    bigint power.  The best of two, to drop a single interruption."""
    best = math.inf
    for _ in range(2):
        t0 = perf_counter()
        seen: dict = {}
        acc, frac = 0, Fraction(0)
        for i in range(4000):
            key = (i % 61, i % 53, i % 47)
            seen[key] = seen.get(key, 0) + 1
            acc += math.comb(key[0] + 3, 3) % 7
            if i % 50 == 0:
                frac += Fraction(i, 7 + i % 11)
        acc += len(set(range(0, 3000, 3)) & set(range(0, 3000, 2)))
        acc += 3 ** 2000 % 1_000_003
        best = min(best, perf_counter() - t0)
    return best


class Tally:
    """Calls made in rounds: per round, each call's duration and ops, and
    the ops attempted and failed; between calls, the reference loop's time.

    The host this was built on is shared: the reference loop's time moved
    between 1.5 and 3.1 ms in phases lasting seconds, and the program's
    calls slowed with it.  So each call's duration is scaled by
    REFERENCE_LOOP_S over the reference loop's time around it.  There, that
    cut the coefficient of variation of repeated rounds from 15-19% to 5-8%.
    """

    def __init__(self) -> None:
        self.rounds: list[dict] = []
        self.loop_s: list[float] = []
        self._loop_at = -math.inf
        self.tracebacks = 0

    @property
    def attempted(self) -> int:
        return sum(r["attempted"] for r in self.rounds)

    @property
    def failed(self) -> int:
        return sum(r["failed"] for r in self.rounds)

    def _measure_loop(self, force: bool = False) -> None:
        if force or perf_counter() - self._loop_at >= CALIBRATE_EVERY_S:
            self.loop_s.append(reference_loop())
            self._loop_at = perf_counter()

    def run(self, workload, count: int | None = None, seconds: float | None = None) -> None:
        """Whole rounds: `count` of them, or as many as start within `seconds`."""
        start = perf_counter()
        self._measure_loop(force=True)
        while count is None or len(self.rounds) < count:
            stats = {"calls": [], "attempted": 0, "failed": 0}
            for call in workload.round_calls(len(self.rounds)):
                self._measure_loop()
                self._call(call, stats)
            self._measure_loop(force=True)
            self.rounds.append(stats)
            if seconds is not None and perf_counter() - start >= seconds:
                break

    def _call(self, call, stats: dict) -> None:
        stats["attempted"] += call.ops
        dt = None
        t0 = perf_counter()
        try:
            out = call.run()
            dt = perf_counter() - t0
            bad = call.check(out)
        except Exception:
            dt = perf_counter() - t0 if dt is None else dt
            bad = call.ops
            if self.tracebacks < MAX_TRACEBACKS:
                traceback.print_exc(file=sys.stderr)
                self.tracebacks += 1
        # the loop measured before this call and the one after it
        stats["calls"].append((dt, call.ops, len(self.loop_s) - 1))
        stats["failed"] += bad

    def _scaled(self, dt: float, loop_index: int) -> float:
        around = (self.loop_s[loop_index] + self.loop_s[loop_index + 1]) / 2
        return dt * REFERENCE_LOOP_S / around

    def busy(self) -> float:
        """Scaled seconds inside program calls."""
        return sum(self._scaled(dt, i) for r in self.rounds for dt, _, i in r["calls"])

    def steady(self, quantile) -> tuple[float, list[float]]:
        """Ops per second, and the seconds per op of each call in a round,
        from the median over rounds of each call's scaled duration."""
        per_call = [quantile([self._scaled(dt, i) for dt, _, i in calls], 0.5)
                    for calls in zip(*(r["calls"] for r in self.rounds))]
        ops = [n for _, n, _ in self.rounds[0]["calls"]]
        completed = (self.attempted - self.failed) / len(self.rounds)
        return completed / sum(per_call), [t / n for t, n in zip(per_call, ops)]


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    import workloads

    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as workdir:
        setups = []
        for _ in range(SETUP_REPEATS):
            imported = import_seconds()
            before = reference_loop()
            t0 = perf_counter()
            workload = workloads.build(name, seed, tiny, workdir)
            built = perf_counter() - t0
            setups.append(imported + built * REFERENCE_LOOP_S * 2 / (before + reference_loop()))

        tally = Tally()
        if not trace:
            tally.run(workload, seconds=seconds)
            ops_per_s, latencies = tally.steady(workloads.quantile)
            metrics = {
                "ops_per_s": ops_per_s,
                "op_p50_ms": workloads.quantile(latencies, 0.5) * 1e3,
                "op_p90_ms": workloads.quantile(latencies, 0.9) * 1e3,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "setup_s": statistics.median(setups),
            }
            units = END_TO_END
        else:
            import tracer

            untraced = Tally()
            untraced.run(workload, count=1)
            workload.counters.clear()
            tr = tracer.Tracer()
            tr.install()
            try:
                tally.run(workload, count=1)
            finally:
                tr.remove()
            metrics = tr.layer_metrics(workload.counters, untraced.busy(), tally.busy())
            tally.rounds += untraced.rounds
            units = tracer.PER_LAYER

        if not tiny:
            with open(os.path.join(HERE, "digests.json"), encoding="ascii") as fh:
                expected = json.load(fh).get(name, {})
            got = workload.digests()
            tally.rounds.append({"calls": [], "attempted": 1,
                                 "failed": int(got != expected)})
            if got != expected:
                print(f"{name}: reference digests differ: expected {expected}, got {got}",
                      file=sys.stderr)

    print(f"{name} seed={seed} trace={int(trace)} attempted={tally.attempted} failed={tally.failed} "
          f"failed_frac={tally.failed / tally.attempted:.6g} sizes={json.dumps(workload.sizes)}",
          file=sys.stderr)
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {key: {"value": metrics[key], "unit": unit} for key, unit in units},
    }


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="ascii") as fh:
        return json.load(fh)


def selfcheck() -> int:
    """Every workload at tiny size, both modes: every metric named in
    BENCHMARK.json is emitted with its unit and a finite value, outputs
    pass their checks, and the traced counts repeat exactly."""
    import workloads

    spec = load_spec()
    problems = []
    if [w["name"] for w in spec["workloads"]] != list(workloads.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    for name in workloads.WORKLOADS:
        counts = []
        for trace, key in ((False, "end_to_end"), (True, "per_layer"), (True, "per_layer")):
            result = run_workload(name, 1, 0.0, trace, tiny=True)
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{name} trace={int(trace)}: metrics {got} != {want}")
            for k, v in result["metrics"].items():
                if not isinstance(v["value"], (int, float)) or not math.isfinite(v["value"]):
                    problems.append(f"{name} trace={int(trace)}: {k} = {v['value']!r}")
            if not result["correct"]:
                problems.append(f"{name} trace={int(trace)}: {result['failed']} failed checks")
            if trace:
                counts.append({k: v["value"] for k, v in result["metrics"].items()
                               if v["unit"] == "count"})
        if counts[0] != counts[1]:
            problems.append(f"{name}: traced counts differ between runs: {counts}")
    for p in problems:
        print(f"selfcheck: {p}", file=sys.stderr)
    print("selfcheck " + ("failed" if problems else "ok"))
    return 1 if problems else 0


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Every workload in its own process, one result line each."""
    import workloads

    status = 0
    for name in workloads.WORKLOADS:
        out = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", name,
                              "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                             cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(out.stderr)
        lines = out.stdout.strip().splitlines()
        print(json.dumps({"workload": name, **json.loads(lines[-1])}) if lines
              else json.dumps({"workload": name, "exit": out.returncode}))
        status = status or out.returncode
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=["accept", "dense", "coupling", "exact", "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--print-digests", action="store_true")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not os.path.isfile(os.path.join(SRC, "hyperlab", "__init__.py")):
        print(f"error: no hyperlab sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    if not workloads.hypergraph.__file__.startswith(SRC + os.sep):
        print(f"error: hyperlab imported from {workloads.hypergraph.__file__}", file=sys.stderr)
        return 2
    if args.selfcheck:
        return selfcheck()
    if args.print_digests:
        with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as workdir:
            print(json.dumps({name: workloads.build(name, 0, False, workdir).digests()
                              for name in workloads.WORKLOADS}, indent=2, sort_keys=True))
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
