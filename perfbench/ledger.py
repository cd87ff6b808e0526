"""Per-layer metrics of a traced pass, from span totals and run results.

Times named ``<layer>_s`` are *self* times (span duration minus the
time its child spans cover), so they add up with ``unattributed_s`` to
the busy time of the timed section.  Four are inclusive totals instead:
``dbt.translate_s`` (all phases of a translation), ``vm.run_s``,
``harness.run_many_s`` and ``harness.worker_busy_s``.  Counts come
from span calls, ``TimingRunResult.stats`` and ``TimingVM.jit_metrics``
and repeat exactly between runs of the same code and ``--seconds``.
"""

from __future__ import annotations

from typing import Dict, List

NS = 1e-9


def _merge(processes: List[dict], key: str) -> Dict[str, List[int]]:
    merged: Dict[str, List[int]] = {}
    for process in processes:
        for name, (calls, total, self_ns) in process.get(key, {}).items():
            row = merged.setdefault(name, [0, 0, 0])
            row[0] += calls
            row[1] += total
            row[2] += self_ns
    return merged


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(processes: List[dict], results, timed_wall_s: float) -> Dict[str, float]:
    """Per-layer metrics of the timed section (set-up only feeds builds)."""
    totals = _merge(processes, "totals")
    setup = _merge(processes, "setup_totals")
    edges: Dict[str, int] = {}
    counts: Dict[str, int] = {}
    for process in processes:
        for name, calls in process.get("edges", {}).items():
            edges[name] = edges.get(name, 0) + calls
        for name, amount in process.get("counts", {}).items():
            counts[name] = counts.get(name, 0) + amount

    def calls(name: str) -> int:
        return totals.get(name, [0, 0, 0])[0]

    def total_s(name: str) -> float:
        return totals.get(name, [0, 0, 0])[1] * NS

    def self_s(name: str) -> float:
        return totals.get(name, [0, 0, 0])[2] * NS

    stats: Dict[str, int] = {}
    blocks = 0
    reconfigurations = 0
    for result in results:
        blocks += result.blocks_executed
        reconfigurations += result.reconfigurations
        for name, value in result.stats.items():
            stats[name] = stats.get(name, 0) + value

    lookups = calls("dbt.transcache")
    misses = edges.get("dbt.transcache>dbt.translate", 0)
    compiles = counts.get("guest.blockjit.compiles", 0)
    workers = {p["pid"] for p in processes if "harness.worker" in p.get("totals", {})}
    # pool workers run a host-speed probe before each cell: neither busy nor idle
    busy = total_s("harness.worker") - (total_s("bench.probe") if workers else 0.0)
    run_many = total_s("harness.run_many")
    return {
        "workloads.build_s": self_s("workloads.build")
        + setup.get("workloads.build", [0, 0, 0])[2] * NS,
        # translation
        "dbt.translate_s": total_s("dbt.translate"),
        "dbt.translate.calls": calls("dbt.translate"),
        "dbt.decode_s": self_s("dbt.decode"),
        "dbt.frontend_s": self_s("dbt.frontend"),
        "dbt.optimize_s": self_s("dbt.optimize"),
        "dbt.codegen_s": self_s("dbt.codegen"),
        "dbt.schedule_s": self_s("dbt.schedule"),
        "dbt.transcache.hit_ratio": _ratio(lookups - misses, lookups),
        # code-cache fetch and the speculative manager/slave timeline
        "dbt.fetch_s": self_s("dbt.fetch"),
        "dbt.fetch.calls": calls("dbt.fetch"),
        "dbt.speculative_s": self_s("dbt.speculative"),
        "dbt.l1code.hit_ratio": _ratio(stats.get("l1code.hits", 0),
                                       stats.get("l1code.accesses", 0)),
        "dbt.l15.hit_ratio": _ratio(stats.get("l15.hits", 0), stats.get("l15.accesses", 0)),
        "dbt.speculative.demand_ratio": _ratio(stats.get("spec.demand_translations", 0),
                                               stats.get("spec.blocks_translated", 0)),
        # guest execution tiers and the JIT compilers
        "guest.interp_s": self_s("guest.interp"),
        "guest.interp.blocks": calls("guest.interp"),
        "guest.blockjit.compile_s": self_s("guest.blockjit.compile"),
        "guest.blockjit.compiles": compiles,
        "guest.blockjit.compiles_per_kblock": _ratio(1000 * compiles, blocks),
        "guest.tracejit.compile_s": self_s("guest.tracejit.compile"),
        "guest.tracejit.compiles": counts.get("guest.tracejit.compiles", 0),
        # data memory, tiled data caches, reference machine
        "memsys.access_s": self_s("memsys.access"),
        "memsys.accesses": stats.get("mem.accesses", 0),
        "memsys.l1_miss_ratio": _ratio(stats.get("mem.l1_misses", 0),
                                       stats.get("mem.accesses", 0)),
        "tiled.datacache_s": self_s("tiled.datacache"),
        "refmachine.piii_s": self_s("refmachine.piii"),
        # morph
        "morph.on_block_s": self_s("morph.on_block"),
        "morph.reconfigurations": reconfigurations,
        # virtual machines
        "vm.init_s": self_s("vm.init"),
        "vm.run_s": total_s("vm.run"),
        "vm.run.self_s": self_s("vm.run"),
        "vm.blocks": blocks,
        "vm.step_s": self_s("vm.step"),
        "vm.step.calls": calls("vm.step"),
        "vm.multivm.self_s": self_s("vm.multivm"),
        "vm.multivm.reallocations": counts.get("vm.multivm.reallocations", 0),
        # harness
        "harness.run_many_s": run_many,
        "harness.worker_busy_s": busy,
        "harness.worker_idle_s": max(0.0, len(workers) * run_many - total_s("harness.worker")),
        "harness.worker.self_s": self_s("harness.worker"),
        "harness.run_one.self_s": self_s("harness.run_one"),
        "harness.diskcache.store_s": self_s("harness.diskcache.store"),
        "harness.diskcache.stores": calls("harness.diskcache.store"),
        "harness.diskcache.load_s": self_s("harness.diskcache.load"),
        "harness.pack_s": self_s("harness.pack"),
        "harness.unpack_s": self_s("harness.unpack"),
        # garbage collector, coverage, tracing cost
        "gc.pause_s": self_s("gc"),
        "gc.collections": calls("gc"),
        "unattributed_s": self_s("bench.timed") + self_s("bench.cell"),
        "trace.flush_s": self_s("trace.flush"),
        "trace.wall_s": timed_wall_s,
    }
