#!/usr/bin/env python
"""Measure the block JIT's break-even execution count for lone VMs.

``repro.guest.blockjit.LONE_HOT_THRESHOLD`` is C / s, where C is the
mean cost of compiling a block and s the mean time one execution of its
closure saves over ``run_block_at`` with the block's plan already
built.  Both are taken over the blocks that run at least twice, the
ones a VM compiling at the second execution would compile.  Each
workload runs twice as a lone VM at ``--scale``, trace tier off: once
with the JIT off, timing every ``run_block_at`` call after a block's
first (plan-building) one, and once compiling every block on first
sight, timing each compile and each closure call.  Both runs must give
the same ``TimingRunResult``.

    python benchmarks/jit_breakeven.py [--scale S] [WORKLOAD ...]
"""

from __future__ import annotations

import argparse
import time

import repro.guest.blockjit as blockjit
from repro.morph.config import PRESETS
from repro.vm.timing import TimingVM
from repro.workloads import build_workload

#: The large guests of the shared-fabric example, where lone VMs run.
DEFAULT_WORKLOADS = ["176.gcc", "181.mcf", "253.perlbmk"]

clock = time.perf_counter_ns


def _interpreted(program, config):
    """(result, {block: [ns, executions]}) with the JIT off."""
    vm = TimingVM(program, config, jit=False)
    inner = vm.interp.run_block_at
    times = {}

    def timed(address, count):
        entry = times.get((address, count))
        if entry is None:  # the first call builds the plan: not timed
            times[(address, count)] = [0, 0]
            return inner(address, count)
        started = clock()
        executed = inner(address, count)
        entry[0] += clock() - started
        entry[1] += 1
        return executed

    vm.interp.run_block_at = timed
    return vm.run(), times


def _compiled(program, config):
    """(result, {block: compile ns}, {block: [ns, executions]}) with
    every block compiled on first sight."""
    compile_ns, times = {}, {}
    original = blockjit.compile_block

    def compile_timed(*args, **kwargs):
        started = clock()
        block = original(*args, **kwargs)
        key = (block.address, block.count)
        compile_ns[key] = clock() - started
        entry = times[key] = [0, 0]
        fn = block.fn

        def run(interp):
            started = clock()
            executed = fn(interp)
            entry[0] += clock() - started
            entry[1] += 1
            return executed

        block.fn = run
        return block

    blockjit.compile_block = compile_timed
    try:
        vm = TimingVM(program, config, jit=True, trace_jit=False)
        vm.interp._jit.threshold = 1
        result = vm.run()
    finally:
        blockjit.compile_block = original
    return result, compile_ns, times


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="*", default=DEFAULT_WORKLOADS)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--config", default="speculative_4")
    args = parser.parse_args()
    config = PRESETS[args.config]
    costs, savings = [], []
    for name in args.workloads:
        off, interpreted = _interpreted(build_workload(name, args.scale), config)
        on, compile_ns, compiled = _compiled(build_workload(name, args.scale), config)
        if on != off:
            raise SystemExit(f"{name}: the JIT changed the results")
        before = len(costs)
        for key, (ns, runs) in interpreted.items():
            jit_ns, jit_runs = compiled.get(key, (0, 0))
            if runs and jit_runs:  # ran twice and compiled
                costs.append(compile_ns[key])
                savings.append(ns / runs - jit_ns / jit_runs)
        blocks = len(costs) - before
        print(f"{name}: {blocks} blocks run twice or more, "
              f"compile {sum(costs[before:]) / blocks / 1e3:.0f} us, "
              f"saving {sum(savings[before:]) / blocks / 1e3:.1f} us per execution")
    cost = sum(costs) / len(costs)
    saving = sum(savings) / len(savings)
    print(f"all: {len(costs)} blocks, C = {cost / 1e3:.0f} us, "
          f"s = {saving / 1e3:.1f} us, C / s = {cost / saving:.1f} executions")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
