"""The repository benchmark: four workloads of the simulator at scale 1.0.

    python3 perfbench/run.py --workload sweep-cold --seed 0 --seconds 10 --trace 0

Workloads (all closed-loop, one client, at most 2 pool workers):

* ``sweep-cold``  — the Figure-5 grid (11 programs x 6 translator
  configurations) through ``run_many(jobs=2)`` in a fresh process with
  an empty disk cache: what regenerating the central figure costs.
* ``warm-compact`` — gzip, mcf, parser, bzip2 x {speculative_4,
  morph_threshold_0}, in-process on a warmed translation cache.
* ``warm-bigcode`` — vpr, gcc, perlbmk, twolf (large-code programs) x
  {no_l15, l15_128k}, warmed until the JIT stops compiling.
* ``fabric-step`` — ``SharedFabric(dynamic=True)`` with the example's
  I/O guest plus gcc, mcf and perlbmk, each translating cold.

Each pass runs in a fresh process (``passes.py``).  ``--trace 0`` runs
the workload untraced and reports the end-to-end metrics; ``--trace 1``
runs it untraced and then traced (``TRACE_ROUNDS`` rounds each on the
warm workloads), and reports the per-layer metrics of the traced run
with the tracing overhead; its span records and per-process totals are
left in ``.perfbench_out/trace-<workload>/``.  Every cell is checked
against ``reference.json``; the cold sweep's slowdowns are also checked
against the Figure 5 rows of ``BENCH_results.json``.  The last line of
output is one JSON object; the command exits 1 if any cell is wrong.  A
run whose passes are still going ``RUN_BUDGET_S`` after it began exits 3
without a result: a timeout is reported as slow, not as wrong output.

All host times are in reference-host seconds (``hostclock.py``): the
host this runs on drifts in speed by tens of percent, so every pass runs
a fixed pure-Python probe between pieces of work, leaves the probes out,
and scales each interval by how much slower than the reference its
median probe ran.  The raw wall times are printed next to them.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402
import hostclock  # noqa: E402
import passes  # noqa: E402

#: Fresh-process set-ups per run whose median is ``setup_s``.  The warm
#: workloads' set-up is itself 12-20 s of warm-up cells, so it is taken
#: once.  A ``--trace 1`` run reports no ``setup_s`` and takes one set-up.
SETUP_REPEATS = {"sweep-cold": 3, "warm-compact": 1, "warm-bigcode": 1, "fabric-step": 3}
#: Timed rounds of both passes of a ``--trace 1`` run on the warm
#: workloads: the spans slow a warm round two- to threefold, and the
#: per-layer shares need no more.
TRACE_ROUNDS = 2
#: Every pass of one run must end within this many seconds.
RUN_BUDGET_S = 170.0
#: Host-speed probes timed back to back as ``host.calibration_s``.
CALIBRATION_PROBES = 10

END_TO_END = [
    ("setup_s", "s"), ("wall_s", "s"), ("guest_insts_per_s", "1/s"),
    ("cell_p50_s", "s"), ("cell_tail_s", "s"), ("peak_rss_mb", "MB"),
]


class PassFailed(Exception):
    pass


class PassTimedOut(Exception):
    pass


def calibrate() -> float:
    """Host time of a fixed pure-Python loop: identifies runs taken
    during slow host intervals."""
    start = time.perf_counter()
    for _ in range(CALIBRATION_PROBES):
        hostclock.probe_work()
    return time.perf_counter() - start


def tail(values):
    """(percentile, value): the highest nearest-rank percentile with at
    least 10 samples beyond it, or the maximum if there are too few."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return 100, ordered[-1]
    percentile = (100 * (n - 10)) // n
    rank = math.ceil(percentile * n / 100)
    return percentile, ordered[rank - 1]


class Runner:
    def __init__(self, args) -> None:
        self.args = args
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.work = common.OUT_DIR / f"run-{args.workload}-{args.seed}-{os.getpid()}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.index = 0
        self.rounds = passes.rounds_for(args.workload, args.seconds)
        if args.trace:
            self.rounds = min(self.rounds, TRACE_ROUNDS)

    def run_pass(self, mode: str, traced: int) -> dict:
        self.index += 1
        out = self.work / f"pass{self.index}-{mode}-{traced}.json"
        command = [
            sys.executable, str(common.BENCH_DIR / "passes.py"),
            "--workload", self.args.workload, "--seed", str(self.args.seed),
            "--rounds", str(self.rounds), "--mode", mode,
            "--traced", str(traced), "--out", str(out),
        ]
        spawned = time.perf_counter()
        process = subprocess.Popen(command, cwd=common.ROOT, stdout=sys.stderr)
        try:
            code = process.wait(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
            raise PassTimedOut(f"{mode} pass still running {RUN_BUDGET_S:.0f} s after the run began")
        if code != 0 or not out.exists():
            detail = json.loads(out.read_text()).get("error", "") if out.exists() else ""
            raise PassFailed(f"{mode} pass exited {code}\n{detail}")
        result = json.loads(out.read_text())
        result["setup_s"] = hostclock.scaled(spawned, result["ready"], result["setup_probes"])
        result["setup_raw_s"] = result["ready"] - spawned
        self.last_files = out.with_suffix(".d")
        return result

    def keep_trace(self) -> None:
        """Move the last pass's span files to a place that outlives the run."""
        source = self.last_files
        target = common.OUT_DIR / f"trace-{self.args.workload}"
        shutil.rmtree(target, ignore_errors=True)
        target.mkdir(parents=True)
        for path in source.glob("*.json*"):
            shutil.move(str(path), str(target / path.name))

    def cleanup(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


def check(result: dict, reference: dict, figure5) -> list:
    """Names of the cells (or fabric runs) whose outputs are wrong."""
    wrong = []
    for row in result["cells"]:
        expected = reference["cells"].get(row["cell"])
        if expected is None or expected["digest"] != row["digest"]:
            wrong.append(row["cell"])
        elif figure5 is not None and figure5.get(row["cell"]) != row["slowdown"]:
            wrong.append(row["cell"] + " (Figure 5)")
    for row in result["fabric"]:
        expected = reference["fabric"].get(row["order"])
        if expected is None or expected["digest"] != row["digest"]:
            wrong.append("fabric " + row["order"])
    return wrong


def figure5_rows() -> dict:
    """Figure 5 slowdowns committed in BENCH_results.json, by cell."""
    with open(common.ROOT / "BENCH_results.json") as handle:
        figures = json.load(handle)["figures"]
    rows = next(f["rows"] for f in figures if f["figure"] == "Figure 5")
    return {
        common.cell_key(row[0], config): value
        for row in rows
        for config, value in zip(common.FIG5_CONFIGS, row[1:])
    }


def expected_timings(workload: str, rounds: int) -> int:
    if workload == "fabric-step":
        return rounds
    return rounds * len(common.workload_cells(workload))


def samples(result: dict) -> list:
    """One time per grid cell, the median of its timed rounds, or per
    fabric run.  A single timing of a warm cell strays by up to a quarter
    with the host's speed, which the probes do not follow within a
    second; the median of its rounds strays much less."""
    rounds = {}
    for row in result["cells"]:
        rounds.setdefault(row["cell"], []).append(row["seconds"])
    return ([statistics.median(times) for times in rounds.values()]
            + [row["seconds"] for row in result["fabric"]])


def timings(result: dict) -> int:
    return len(result["cells"]) + len(result["fabric"])


def end_to_end(result: dict, setups: list) -> dict:
    times = samples(result)
    _, tail_value = tail(times)
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": result["wall_s"],
        "guest_insts_per_s": result["guest_instructions"] / result["wall_s"],
        "cell_p50_s": statistics.median(times),
        "cell_tail_s": tail_value,
        "peak_rss_mb": result["peak_rss_mb"],
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def per_layer_units() -> dict:
    """Per-layer metric names and units, in the order BENCHMARK.json lists them."""
    with open(common.ROOT / "BENCHMARK.json") as handle:
        return {row["name"]: row["unit"] for row in json.load(handle)["per_layer"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=common.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (common.SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources under {common.SRC}", file=sys.stderr)
        return 2
    reference = common.load_reference()
    figure5 = figure5_rows() if args.workload == "sweep-cold" else None
    calibration_s = calibrate()

    runner = Runner(args)
    try:
        setup_passes = [runner.run_pass("setup", 0)
                        for _ in range(0 if args.trace else SETUP_REPEATS[args.workload] - 1)]
        untraced = runner.run_pass("timed", 0)
        setup_passes.append(untraced)
        setups = [p["setup_s"] for p in setup_passes]
        done = [untraced]
        if args.trace:
            traced = runner.run_pass("timed", 1)
            done.append(traced)
            runner.keep_trace()
    except PassTimedOut as exc:
        # too slow, not wrong: exit without a result rather than count failures
        print(f"perfbench: timeout: {exc}", file=sys.stderr)
        return 3
    except PassFailed as exc:
        # the whole pass failed: every timing it was to take counts as failed
        print(f"perfbench: {exc}", file=sys.stderr)
        expected = expected_timings(args.workload, runner.rounds) * (1 + args.trace)
        print(json.dumps({"correct": False, "attempted": expected,
                          "failed": expected, "metrics": {}}))
        return 1
    finally:
        runner.cleanup()

    attempted = sum(timings(p) for p in done)
    wrong = [name for p in done for name in check(p, reference, figure5)]
    for name in wrong:
        print(f"perfbench: wrong output: {name}", file=sys.stderr)

    count = len(samples(untraced))
    percentile, _ = tail(samples(untraced))
    metrics = end_to_end(untraced, setups)
    warmup = untraced.get("warmup_rounds")
    print(f"workload {args.workload}  seed {args.seed}  rounds {untraced['rounds']}  "
          f"timings {timings(untraced)}  samples {count}  tail=p{percentile}  "
          f"host.calibration_s {calibration_s:.4f}"
          + (f"  warm-up compiles per round {warmup}" if warmup else ""))
    print(f"  raw: wall {untraced['wall_raw_s']:.4f} s, set-up median "
          f"{statistics.median(p['setup_raw_s'] for p in setup_passes):.4f} s; "
          f"median probe {untraced['probe_s'] * 1000:.2f} ms "
          f"(reference {hostclock.REFERENCE_PROBE_S * 1000:.2f} ms)")
    if warmup and warmup[-1]:
        print(f"perfbench: warning: the last of {len(warmup)} warm-up rounds still "
              f"compiled {warmup[-1]} times, so the timed section includes JIT compiles",
              file=sys.stderr)
    for name, metric in metrics.items():
        print(f"  {name:20s} {metric['value']:.6g} {metric['unit']}")
    print(f"  {'error_rate':20s} {len(wrong) / attempted:.6g} ratio "
          f"({len(wrong)}/{attempted} timed cells or fabric runs)")
    if args.trace:
        layers = dict(traced["layers"])
        layers["trace.overhead_ratio"] = traced["wall_s"] / untraced["wall_s"] - 1
        layers["host.calibration_s"] = calibration_s
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in per_layer_units().items()}
        for name, metric in metrics.items():
            print(f"  {name:36s} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": not wrong,
        "attempted": attempted,
        "failed": len(wrong),
        "metrics": metrics,
    }))
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
