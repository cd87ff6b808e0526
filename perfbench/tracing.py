"""Layer spans recorded from outside the simulator.

:func:`install` replaces the public entry points of each layer under
``src/repro/`` with timing wrappers; no simulator file changes.  Each
wrapper opens a span named after its layer (``dbt.translate``,
``memsys.access``, ...).  Spans nest on a per-process stack, so a
span's *self time* is its duration minus the time its child spans
cover, computed when the span closes.

Every span adds to per-name totals (calls, time, self time).  Coarse
spans (cells, harness steps, builds, translations, compiles) are also
kept as records in memory — id, parent id, cell id, start and end — and
written out at the end.  Fine spans (fetch, memory accesses, block
execution) are only totalled, because there are millions of them.

The wrappers are installed before the timed section starts the sweep's
process pool, so pool workers inherit them.  A fork hook gives each
worker a fresh recorder; the worker writes its totals and records to
its own files after every cell, and the parent merges those files.
"""

from __future__ import annotations

import functools
import gc
import json
import os
import resource
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

import hostclock

#: Spans kept as individual records (the rest are only totalled).
COARSE = {
    "bench.timed", "bench.cell", "harness.run_many", "harness.worker",
    "harness.run_one", "harness.diskcache.store", "harness.pack",
    "harness.unpack", "workloads.build", "vm.run", "vm.multivm",
    "dbt.translate", "guest.blockjit.compile", "guest.tracejit.compile",
}


class Recorder:
    """Span stack, per-name totals and coarse span records of one process."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.pid = os.getpid()
        #: open spans: [name, start_ns, child_ns, record index or -1]
        self.stack: List[list] = []
        #: name -> [calls, total_ns, self_ns]
        self.totals: Dict[str, List[int]] = {}
        #: "parent name>name" -> calls
        self.edges: Dict[str, int] = {}
        #: coarse span records: [id, parent id, cell, name, start_ns, end_ns]
        self.records: List[list] = []
        #: exact event counts that spans cannot give (JIT compiles, ...)
        self.counts: Dict[str, int] = {}
        #: totals of set-up, kept apart by :meth:`begin_timed`
        self.setup_totals: Dict[str, List[int]] = {}
        self.flushed = 0
        self.cell: Optional[str] = None
        self.out_dir: Optional[Path] = None
        #: the process that installed the spans (pool workers differ)
        self.main_pid = self.pid

    def begin_timed(self) -> None:
        """Keep what set-up recorded apart from the timed section."""
        self.setup_totals = self.totals
        self.totals = {}
        self.edges = {}
        self.counts = {}

    def count(self, name: str, amount: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def open(self, name: str) -> list:
        record = -1
        if name in COARSE:
            parent = -1
            for frame in reversed(self.stack):
                if frame[3] >= 0:
                    parent = self.records[frame[3]][0]
                    break
            record = len(self.records)
            self.records.append([f"{self.pid}:{record}", parent, self.cell, name, 0, 0])
        parent_name = self.stack[-1][0] if self.stack else ""
        edge = parent_name + ">" + name
        self.edges[edge] = self.edges.get(edge, 0) + 1
        frame = [name, time.perf_counter_ns(), 0, record]
        self.stack.append(frame)
        return frame

    def close(self, frame: list) -> None:
        end = time.perf_counter_ns()
        stack = self.stack
        # an exception may unwind past spans that never closed
        while stack and stack[-1] is not frame:
            stack.pop()
        if stack:
            stack.pop()
        duration = end - frame[1]
        total = self.totals.get(frame[0])
        if total is None:
            total = self.totals[frame[0]] = [0, 0, 0]
        total[0] += 1
        total[1] += duration
        total[2] += duration - frame[2]
        if stack:
            stack[-1][2] += duration
        if frame[3] >= 0:
            record = self.records[frame[3]]
            record[4] = frame[1]
            record[5] = end

    def snapshot(self) -> dict:
        return {
            "pid": self.pid,
            "totals": self.totals,
            "setup_totals": self.setup_totals,
            "edges": self.edges,
            "counts": self.counts,
            "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        }

    def flush(self) -> None:
        """Write this process's totals and its new records to its files."""
        if self.out_dir is None:
            return
        frame = self.open("trace.flush")
        with open(self.out_dir / f"spans-{self.pid}.jsonl", "a") as handle:
            for record in self.records[self.flushed:]:
                handle.write(json.dumps(record) + "\n")
        self.flushed = len(self.records)
        self.close(frame)
        snapshot = self.snapshot()
        tmp = self.out_dir / f".totals-{self.pid}.json"
        tmp.write_text(json.dumps(snapshot))
        tmp.replace(self.out_dir / f"totals-{self.pid}.json")


RECORDER = Recorder()


def span(name: str, fn: Callable) -> Callable:
    """``fn`` wrapped in a span called ``name``."""
    open_, close = RECORDER.open, RECORDER.close

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        frame = open_(name)
        try:
            return fn(*args, **kwargs)
        finally:
            close(frame)

    return wrapper


def _cell_span(fn: Callable) -> Callable:
    """A span around ``run_one``: sets the cell id spans inherit, and
    makes a pool worker write its files once the cell is done."""
    inner = span("harness.run_one", fn)

    @functools.wraps(fn)
    def wrapper(workload, config, *args, **kwargs):
        config_name = config if isinstance(config, str) else config.name
        RECORDER.cell = f"{workload}/{config_name}"
        try:
            return inner(workload, config, *args, **kwargs)
        finally:
            RECORDER.cell = None
            if RECORDER.pid != RECORDER.main_pid:
                RECORDER.flush()

    return wrapper


def _worker_span(fn: Callable) -> Callable:
    inner = span("harness.worker", fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return inner(*args, **kwargs)
        finally:
            RECORDER.flush()

    return wrapper


def _patch_method(cls, attr: str, name: str) -> None:
    setattr(cls, attr, span(name, cls.__dict__[attr]))


def install_builds(out_dir: Path) -> None:
    """Wrap ``build_workload``, before set-up assembles programs."""
    from repro import workloads
    from repro.harness import runner
    from repro.workloads import suite

    RECORDER.reset()
    RECORDER.out_dir = out_dir
    RECORDER.main_pid = RECORDER.pid
    # ``from ... import build_workload`` copied the function into each
    wrapped = span("workloads.build", suite.build_workload)
    for module in (suite, workloads, runner):
        module.build_workload = wrapped


def install() -> None:
    """Wrap every other layer's entry points; spans go to ``RECORDER``.

    Called after set-up, so warm-up runs are not slowed by the spans;
    every VM and pool worker of the timed section starts after it.
    """
    from repro.dbt import transcache, translator
    from repro.dbt.codecache import CodeCacheHierarchy
    from repro.dbt.speculative import TranslationSubsystem
    from repro.guest import blockjit, tracejit
    from repro.guest.interpreter import GuestInterpreter
    from repro.harness import runner
    from repro.harness.diskcache import DiskCache
    from repro.memsys.memsystem import PipelinedMemorySystem
    from repro.morph.controller import MorphController
    from repro.refmachine.pentium3 import PentiumIIIModel
    from repro.tiled.datacache import DataCacheModel
    from repro.vm.multivm import SharedFabric
    from repro.vm.timing import TimingVM

    # dbt: translation and its phases
    _patch_method(transcache.CachingTranslator, "translate", "dbt.transcache")
    _patch_method(translator.Translator, "translate", "dbt.translate")
    _patch_method(translator.Translator, "_exit_flag_liveness", "dbt.frontend")
    for attr, name in (("scan_block", "dbt.decode"), ("lower_block", "dbt.frontend"),
                       ("optimize_block", "dbt.optimize"),
                       ("generate_block", "dbt.codegen"),
                       ("schedule_block", "dbt.schedule")):
        setattr(translator, attr, span(name, getattr(translator, attr)))
    # dbt: code-cache fetch and the speculative manager/slave timeline
    _patch_method(CodeCacheHierarchy, "fetch", "dbt.fetch")
    _patch_method(TranslationSubsystem, "advance", "dbt.speculative")
    _patch_method(TranslationSubsystem, "demand_request", "dbt.speculative")
    # guest execution tiers and their compilers
    _patch_method(GuestInterpreter, "run_block_at", "guest.interp")
    blockjit.compile_block = span("guest.blockjit.compile", blockjit.compile_block)
    tracejit.compile_trace = span("guest.tracejit.compile", tracejit.compile_trace)
    # data memory, the tiled data caches, the reference machine, morph
    _patch_method(PipelinedMemorySystem, "access", "memsys.access")
    _patch_method(DataCacheModel, "access", "tiled.datacache")
    _patch_method(PentiumIIIModel, "on_access", "refmachine.piii")
    _patch_method(MorphController, "on_block_executed", "morph.on_block")
    # the virtual machines: construction, run loop, stepping, shared fabric
    _patch_method(TimingVM, "__init__", "vm.init")
    _patch_method(TimingVM, "run", "vm.run")
    _patch_method(TimingVM, "step", "vm.step")
    _patch_method(SharedFabric, "run", "vm.multivm")
    # harness: sweep, pool workers, disk cache and code packs
    runner.run_many = span("harness.run_many", runner.run_many)
    runner._worker_run = _worker_span(runner._worker_run)
    runner.run_one = _cell_span(runner.run_one)
    _patch_method(DiskCache, "store", "harness.diskcache.store")
    _patch_method(DiskCache, "save_blob", "harness.diskcache.store")
    _patch_method(DiskCache, "load", "harness.diskcache.load")
    _patch_method(DiskCache, "load_blob", "harness.diskcache.load")
    for attr, name in (("pack_space", "harness.pack"),
                       ("pack_trace_space", "harness.pack"),
                       ("unpack_space", "harness.unpack"),
                       ("unpack_trace_space", "harness.unpack")):
        setattr(runner, attr, span(name, getattr(runner, attr)))

    gc.callbacks.append(_gc_callback)
    os.register_at_fork(after_in_child=_after_fork)


_GC_FRAME: List[list] = []


def _gc_callback(phase: str, info: dict) -> None:
    """Charge collector pauses to a ``gc`` span under whatever runs."""
    if phase == "start":
        _GC_FRAME.append(RECORDER.open("gc"))
    elif _GC_FRAME:
        RECORDER.close(_GC_FRAME.pop())


def _after_fork() -> None:
    out_dir, main_pid = RECORDER.out_dir, RECORDER.main_pid
    RECORDER.reset()
    RECORDER.out_dir, RECORDER.main_pid = out_dir, main_pid
    _GC_FRAME.clear()


def install_cell_clock(out_dir: Path) -> None:
    """Time every ``run_one`` cell, also in untraced runs, after a
    host-speed probe (:mod:`hostclock`).

    Each process appends ``[cell, start, end, maxrss_kb, probe_start,
    probe_end]`` lines to its own file: the probe, two clock reads and one
    short append per cell.
    """
    from repro.harness import runner

    original = runner.run_one

    @functools.wraps(original)
    def timed_run_one(workload, config, *args, **kwargs):
        probe = hostclock.probe()
        start = time.perf_counter()
        result = original(workload, config, *args, **kwargs)
        end = time.perf_counter()
        config_name = config if isinstance(config, str) else config.name
        line = json.dumps([f"{workload}/{config_name}", start, end,
                           resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, *probe])
        with open(out_dir / f"cells-{os.getpid()}.jsonl", "a") as handle:
            handle.write(line + "\n")
        return result

    runner.run_one = timed_run_one


def read_cell_clock(out_dir: Path) -> List[list]:
    """``[cell, start, end, maxrss_kb, probe_start, probe_end, pid]`` rows
    of every process."""
    rows = []
    for path in sorted(out_dir.glob("cells-*.jsonl")):
        pid = int(path.stem.split("-")[1])
        for line in path.read_text().splitlines():
            rows.append(json.loads(line) + [pid])
    return rows


def read_totals(out_dir: Path) -> List[dict]:
    """The span totals every process wrote."""
    return [json.loads(path.read_text()) for path in sorted(out_dir.glob("totals-*.json"))]
