"""Shared definitions of the repository benchmark: paths, workloads, digests.

Every workload runs at scale 1.0.  The seed only permutes the order in
which cells run: on ``sweep-cold`` the order of the warm configurations
in each program group, on ``fabric-step`` the order of the guests.  Any
seed measures the same cells, and seed 0 keeps figure order.  The warm
workloads always run in figure order (see ``passes.Pass._setup_warm``).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import sys
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE_PATH = BENCH_DIR / "reference.json"
#: Scratch output of runs (span dumps, worker files, cache roots).
OUT_DIR = ROOT / ".perfbench_out"

SCALE = 1.0

SPECINT = [
    "164.gzip", "175.vpr", "176.gcc", "181.mcf", "186.crafty", "197.parser",
    "253.perlbmk", "254.gap", "255.vortex", "256.bzip2", "300.twolf",
]
FIG5_CONFIGS = [
    "conservative_1", "speculative_1", "speculative_2",
    "speculative_4", "speculative_6", "speculative_9",
]
COMPACT = ["164.gzip", "181.mcf", "197.parser", "256.bzip2"]
COMPACT_CONFIGS = ["speculative_4", "morph_threshold_0"]
#: Four of the seven large-code programs: 176.gcc, the largest, and the
#: three cheapest to warm.  186.crafty, 254.gap and 255.vortex are left
#: out so that a run's set-up (one cold run of each program) stays short.
BIGCODE = ["175.vpr", "176.gcc", "253.perlbmk", "300.twolf"]
BIGCODE_CONFIGS = ["no_l15", "l15_128k"]
#: The I/O guest comes from examples/shared_fabric.py; the others are
#: compute guests that translate cold on the shared slave pool.
FABRIC_GUESTS = ["io_server", "176.gcc", "181.mcf", "253.perlbmk"]

WORKLOADS = ["sweep-cold", "warm-compact", "warm-bigcode", "fabric-step"]

Cell = Tuple[str, str]


def use_repo_sources() -> None:
    """Make ``import repro`` resolve to this checkout's ``src/``."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no simulator sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def grid(workloads: Sequence[str], configs: Sequence[str]) -> List[Cell]:
    return [(w, c) for w in workloads for c in configs]


def workload_cells(workload: str) -> List[Cell]:
    """Cells of one timed round, in figure order."""
    if workload == "sweep-cold":
        return grid(SPECINT, FIG5_CONFIGS)
    if workload == "warm-compact":
        return grid(COMPACT, COMPACT_CONFIGS)
    if workload == "warm-bigcode":
        return grid(BIGCODE, BIGCODE_CONFIGS)
    raise ValueError(f"{workload} has no grid cells")


def permuted(items: Sequence, seed: int, salt: int = 0) -> list:
    """``items`` shuffled by ``seed``; seed 0 keeps the given order."""
    items = list(items)
    if seed:
        random.Random(seed * 1_000_003 + salt).shuffle(items)
    return items


def all_fabric_orders() -> List[Tuple[str, ...]]:
    return list(itertools.permutations(FABRIC_GUESTS))


def cell_key(workload: str, config: str) -> str:
    return f"{workload}/{config}"


def fabric_key(order: Sequence[str]) -> str:
    return ",".join(order)


def result_digest(result) -> str:
    """Digest of a ``TimingRunResult``'s simulated outputs."""
    payload = {
        "exit_code": result.exit_code,
        "cycles": result.cycles,
        "piii_cycles": result.piii_cycles,
        "guest_instructions": result.guest_instructions,
        "blocks_executed": result.blocks_executed,
        "blocks_translated": result.blocks_translated,
        "reconfigurations": result.reconfigurations,
        "stats": dict(sorted(result.stats.items())),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:32]


def fabric_digest(fabric_result) -> str:
    """Digest of a ``MultiVmResult``: makespan, reallocations, every VM."""
    payload = {
        "makespan": fabric_result.makespan,
        "reallocations": fabric_result.reallocations,
        "per_vm": [result_digest(r) for r in fabric_result.per_vm],
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:32]


def load_reference() -> Dict[str, dict]:
    with open(REFERENCE_PATH) as handle:
        return json.load(handle)


def fabric_programs(order: Sequence[str]):
    """Assemble the fabric guests in ``order`` (I/O guest from the example)."""
    import importlib.util

    from repro.guest.assembler import assemble
    from repro.workloads import build_workload

    spec = importlib.util.spec_from_file_location(
        "perfbench_shared_fabric_example", ROOT / "examples" / "shared_fabric.py"
    )
    example = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(example)
    programs = []
    for name in order:
        if name == "io_server":
            program = assemble(example.IO_HEAVY)
            program.name = "io_server"
        else:
            program = build_workload(name, scale=SCALE)
        programs.append(program)
    return programs
