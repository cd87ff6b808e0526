"""One pass of a benchmark workload, run in a fresh process.

    python3 perfbench/passes.py --workload W --seed S --rounds N \
        --mode {timed,setup} --traced {0,1} --out result.json

A pass sets the workload up, reports the moment its timed section
begins, runs the timed section and writes what it measured to ``--out``.
``--mode setup`` stops once set-up is done; ``run.py`` uses such passes
to take set-up time more than once per run.  ``--traced 1`` wraps
``build_workload`` before set-up and every other layer of :mod:`tracing`
after it, so only builds and the timed section are traced.

The timed section does whole rounds of work.  ``run.py`` sets their
number from its ``--seconds`` (:func:`rounds_for`), so the same
``--seconds`` always means the same work and two versions of the
simulator are compared on identical work.

Every measured interval is in reference-host seconds (:mod:`hostclock`):
the pass runs the host-speed probe between cells, between fabric steps
and in set-up, and scales each interval by the speed its probes saw.
The raw wall times are kept next to the scaled ones.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402
import hostclock  # noqa: E402
import ledger  # noqa: E402
import tracing  # noqa: E402

#: Whole rounds in the timed section per 10 s of ``--seconds``.  A round
#: is one pass over the workload's cells, or one fabric run; on a 2-core
#: x86 VM (Python 3.11) a round takes 2.3-4.1 s on warm-compact,
#: 1.8-2.4 s on warm-bigcode and 6.4-10 s on fabric-step, depending on
#: host load, plus about a tenth for the host-speed probes.  The cold
#: sweep is always one grid (20-35 s).
ROUNDS_PER_10S = {"warm-compact": 5, "warm-bigcode": 6, "fabric-step": 1}
#: Pool size of the cold sweep and of ``reference.py``.
SWEEP_JOBS = 2
#: Warm-up rounds stop once a round compiles nothing; at most this many.
MAX_WARMUP_ROUNDS = 6


def rounds_for(workload: str, seconds: float) -> int:
    if workload == "sweep-cold":
        return 1
    return max(1, round(ROUNDS_PER_10S[workload] * seconds / 10))


def _cell_row(key: str, seconds: float, raw_seconds: float, result) -> dict:
    if isinstance(result, BaseException):
        return {"cell": key, "seconds": seconds, "raw_seconds": raw_seconds,
                "digest": None, "guest_instructions": 0, "error": repr(result)}
    return {
        "cell": key,
        "seconds": seconds,
        "raw_seconds": raw_seconds,
        "digest": common.result_digest(result),
        "guest_instructions": result.guest_instructions,
        "slowdown": f"{result.slowdown:.1f}",
    }


def _jit_counts(vm) -> dict:
    counters = vm.jit_metrics.snapshot()["counters"]
    return {"guest.blockjit.compiles": counters.get("compiles", 0),
            "guest.tracejit.compiles": counters.get("trace.compiles", 0)}


def _count_jit(vms) -> None:
    """Add the JIT compiles of ``vms`` to the recorder.  A function, so
    that no loop variable keeps a fabric's VMs alive into the next round
    (that raised fabric-step's peak RSS by 27 MB for some guest orders)."""
    for vm in vms:
        for name, amount in _jit_counts(vm).items():
            tracing.RECORDER.count(name, amount)


def _install_vm_counts() -> None:
    """Count JIT compiles of every ``TimingVM.run`` (traced passes)."""
    from repro.vm.timing import TimingVM

    run = TimingVM.run

    def counted_run(self, *args, **kwargs):
        try:
            return run(self, *args, **kwargs)
        finally:
            _count_jit([self])

    TimingVM.run = counted_run


class Pass:
    def __init__(self, args, clock: hostclock.Clock) -> None:
        self.args = args
        #: probes of set-up; the timed section starts a clock of its own
        self.clock = clock
        self.workload = args.workload
        self.seed = args.seed
        self.rounds = args.rounds
        self.work_dir = Path(args.out).with_suffix(".d")
        self.work_dir.mkdir(parents=True, exist_ok=True)
        self.out = {"workload": self.workload, "seed": self.seed,
                    "rounds": self.rounds, "cells": [], "fabric": []}

    # -- set-up ---------------------------------------------------------------

    def setup(self) -> None:
        getattr(self, "_setup_" + self.workload.replace("-", "_"))()

    def _setup_sweep_cold(self) -> None:
        from repro.harness import runner

        cache_root = self.work_dir / "runcache"
        shutil.rmtree(cache_root, ignore_errors=True)
        runner.configure_disk_cache(True, cache_root)
        # the seed orders the warm configurations of each program group;
        # its cold first cell is always conservative_1, so every seed
        # times the same mix of cold and warm cells.  The groups keep
        # figure order: the pool hands them out in that order, and a seed
        # that reordered them would move the makespan by the imbalance it
        # left between the two workers (an IQR of 7% of it over 400 seeds)
        first, *warm = common.FIG5_CONFIGS
        self.cells = [
            (w, c, common.SCALE)
            for index, w in enumerate(common.SPECINT)
            for c in [first] + common.permuted(warm, self.seed, index)
        ]
        tracing.install_cell_clock(self.work_dir)

    def _setup_warm(self) -> None:
        from repro.dbt.transcache import TranslationCache
        from repro.morph.config import PRESETS
        from repro.vm.timing import TimingVM
        from repro.workloads import build_workload

        # warm-up and timed rounds run the cells in figure order whatever
        # the seed: the order decides which cells the garbage collector's
        # full collections land in, and under seed-shuffled orders the
        # slowest warm-bigcode cell (a gcc one) ranged 0.36-0.49 s
        cells = common.workload_cells(self.workload)
        self.programs = {}
        for workload, _ in cells:
            if workload not in self.programs:
                self.programs[workload] = build_workload(workload, scale=common.SCALE)
        self.translations = TranslationCache()
        warmup = []
        for _ in range(MAX_WARMUP_ROUNDS):
            compiles = 0
            for workload, config in cells:
                self.clock.maybe_probe()
                vm = TimingVM(
                    self.programs[workload], PRESETS[config],
                    translation_cache=self.translations,
                    program_key=(workload, common.SCALE),
                )
                vm.run()
                compiles += sum(_jit_counts(vm).values())
            warmup.append(compiles)
            if not compiles:
                break
        self.out["warmup_rounds"] = warmup

    _setup_warm_compact = _setup_warm
    _setup_warm_bigcode = _setup_warm

    def _setup_fabric_step(self) -> None:
        order = common.permuted(common.FABRIC_GUESTS, self.seed)
        self.order = order
        self.fabric_programs = common.fabric_programs(order)

    # -- the timed section ------------------------------------------------------

    def timed(self) -> None:
        getattr(self, "_timed_" + self.workload.replace("-", "_"))()

    def _timed_sweep_cold(self) -> None:
        from repro.harness import runner

        try:
            results = runner.run_many(self.cells, jobs=SWEEP_JOBS)
        finally:
            self.wall_end = time.perf_counter()
        self.results = list(results.values())
        rows = tracing.read_cell_clock(self.work_dir)
        # each worker probes before each of its cells; the makespan leaves
        # out the probes of the worker that finished last
        probes = {}
        for row in rows:
            probes.setdefault(row[6], []).append((row[4], row[5]))
        self.clock.probes = speed = sorted(p for worker in probes.values() for p in worker)
        times = {row[0]: row for row in rows}
        for workload, config, _ in self.cells:
            key = common.cell_key(workload, config)
            row = times[key]
            self.out["cells"].append(_cell_row(
                key, hostclock.scaled(row[1], row[2], probes[row[6]], speed),
                row[2] - row[1], results[(workload, config, common.SCALE)],
            ))
        last = max(rows, key=lambda row: row[2])[6]
        self.wall_s = hostclock.scaled(self.start, self.wall_end, probes[last], speed)
        self.worker_rss_kb = {}
        for row in rows:
            self.worker_rss_kb[row[6]] = max(self.worker_rss_kb.get(row[6], 0), row[3])

    def _timed_warm(self) -> None:
        from repro.morph.config import PRESETS
        from repro.vm.timing import run_timing

        cells = common.workload_cells(self.workload)
        self.results = []
        timed = []
        for _ in range(self.rounds):
            for workload, config in cells:
                self.clock.maybe_probe()
                frame = tracing.RECORDER.open("bench.cell") if self.args.traced else None
                tracing.RECORDER.cell = common.cell_key(workload, config)
                start = time.perf_counter()
                try:
                    result = run_timing(
                        self.programs[workload], PRESETS[config],
                        translation_cache=self.translations,
                        program_key=(workload, common.SCALE),
                    )
                    self.results.append(result)
                except Exception as exc:  # counted as a failed cell; the rest still run
                    result = exc
                end = time.perf_counter()
                if frame is not None:
                    tracing.RECORDER.close(frame)
                timed.append((common.cell_key(workload, config), start, end, result))
        self.wall_end = time.perf_counter()
        self.clock.probe()
        probes = self.clock.probes
        self.wall_s = hostclock.scaled(self.start, self.wall_end, probes)
        self.out["cells"] = [
            _cell_row(key, hostclock.scaled(start, end, probes), end - start, result)
            for key, start, end, result in timed
        ]

    _timed_warm_compact = _timed_warm
    _timed_warm_bigcode = _timed_warm

    def _timed_fabric_step(self) -> None:
        from repro.vm.multivm import SharedFabric
        from repro.vm.timing import TimingVM

        # a fabric run lasts seconds, so it probes between steps
        step, maybe_probe = TimingVM.step, self.clock.maybe_probe

        def probed_step(vm):
            maybe_probe()
            return step(vm)

        TimingVM.step = probed_step
        self.results = []
        timed = []
        try:
            for _ in range(self.rounds):
                maybe_probe()
                start = time.perf_counter()
                try:
                    fabric = SharedFabric(self.fabric_programs, dynamic=True)
                    outcome = fabric.run()
                except Exception as exc:  # counted as a failed run; the rest still run
                    timed.append((start, time.perf_counter(), exc))
                    continue
                end = time.perf_counter()
                self.results.extend(outcome.per_vm)
                _count_jit(fabric.vms)
                tracing.RECORDER.count("vm.multivm.reallocations", outcome.reallocations)
                timed.append((start, end, outcome))
        finally:
            TimingVM.step = step
        self.wall_end = time.perf_counter()
        self.clock.probe()
        probes = self.clock.probes
        self.wall_s = hostclock.scaled(self.start, self.wall_end, probes)
        order = common.fabric_key(self.order)
        rows = []
        for start, end, outcome in timed:
            row = {"order": order, "seconds": hostclock.scaled(start, end, probes),
                   "raw_seconds": end - start}
            if isinstance(outcome, BaseException):
                row.update(digest=None, guest_instructions=0, error=repr(outcome))
            else:
                row.update(digest=common.fabric_digest(outcome),
                           guest_instructions=outcome.total_guest_instructions)
            rows.append(row)
        self.out["fabric"] = rows

    def finish_pool(self) -> None:
        """Stop the sweep's pool workers and wait for them to exit."""
        from repro.harness import runner

        pool = runner._POOL  # the harness keeps its pool for reuse
        if pool is not None:
            pool.shutdown(wait=True)
            runner._POOL = None
            runner._POOL_WORKERS = 0


def _self_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=common.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--rounds", type=int, default=1)
    parser.add_argument("--mode", choices=("timed", "setup"), default="timed")
    parser.add_argument("--traced", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    clock = hostclock.Clock()
    clock.probe()
    common.use_repo_sources()
    bench = Pass(args, clock)
    out = bench.out
    try:
        if args.traced:
            tracing.install_builds(bench.work_dir)
        bench.setup()
        clock.probe()
        out["setup_probes"] = clock.probes
        out["ready"] = time.perf_counter()
        if args.mode == "timed":
            if args.traced:
                tracing.install()
                _install_vm_counts()
                hostclock.trace_probes(tracing.span)
            bench.clock = hostclock.Clock()
            tracing.RECORDER.begin_timed()
            frame = tracing.RECORDER.open("bench.timed") if args.traced else None
            bench.start = time.perf_counter()
            try:
                bench.timed()
            finally:
                if frame is not None:
                    tracing.RECORDER.close(frame)
            out["wall_s"] = bench.wall_s
            out["wall_raw_s"] = bench.wall_end - bench.start
            out["probe_s"] = hostclock.median_probe_s(bench.clock.probes)
            out["guest_instructions"] = sum(r.guest_instructions for r in bench.results)
            bench.finish_pool()
            rss_kb = _self_rss_kb() + sum(getattr(bench, "worker_rss_kb", {}).values())
            out["peak_rss_mb"] = rss_kb / 1024.0
            if args.traced:
                tracing.RECORDER.flush()
                out["layers"] = ledger.layer_metrics(
                    tracing.read_totals(bench.work_dir),
                    bench.results, timed_wall_s=out["wall_raw_s"],
                )
    except BaseException as exc:  # noqa: BLE001 - reported to run.py, then re-raised
        out["error"] = "".join(traceback.format_exception(exc))
        Path(args.out).write_text(json.dumps(out))
        raise
    Path(args.out).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
