"""Regenerate ``perfbench/reference.json``, the benchmark's expected outputs.

Every cell and every fabric guest order is simulated on the reference
path: the block JIT and the trace JIT off, and no translation cache.
The timed runs take the fast paths, so comparing them against this file
checks that the fast paths stay bit-identical to the reference.

    python3 perfbench/reference.py
"""

from __future__ import annotations

import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402
from passes import SWEEP_JOBS  # noqa: E402


def _all_cells():
    cells = []
    for workload in ("sweep-cold", "warm-compact", "warm-bigcode"):
        for cell in common.workload_cells(workload):
            if cell not in cells:
                cells.append(cell)
    return cells


def _reference_cell(cell):
    common.use_repo_sources()
    from repro.morph.config import PRESETS
    from repro.vm.timing import run_timing
    from repro.workloads import build_workload

    workload, config = cell
    result = run_timing(
        build_workload(workload, scale=common.SCALE), PRESETS[config],
        jit=False, trace_jit=False,
    )
    return common.cell_key(workload, config), {
        "digest": common.result_digest(result),
        "guest_instructions": result.guest_instructions,
        "cycles": result.cycles,
    }


def _reference_fabric(order):
    # SharedFabric builds its VMs with the environment's JIT default
    os.environ["REPRO_JIT"] = "0"
    common.use_repo_sources()
    from repro.vm.multivm import SharedFabric

    result = SharedFabric(common.fabric_programs(order), dynamic=True).run()
    return common.fabric_key(order), {
        "digest": common.fabric_digest(result),
        "guest_instructions": result.total_guest_instructions,
        "makespan": result.makespan,
        "reallocations": result.reallocations,
    }


def main() -> int:
    with ProcessPoolExecutor(max_workers=SWEEP_JOBS) as pool:
        cells = pool.map(_reference_cell, _all_cells())
        fabrics = pool.map(_reference_fabric, common.all_fabric_orders())
        reference = {
            "cells": dict(sorted(cells)),
            "fabric": dict(sorted(fabrics)),
        }
    with open(common.REFERENCE_PATH, "w") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(reference['cells'])} cells and "
          f"{len(reference['fabric'])} fabric orders to {common.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
