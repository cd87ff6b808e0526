"""Full-suite differential: the block JIT must be invisible in results.

The JIT is a wall-clock optimization only — every ``TimingRunResult``
field (cycle counts, cache stats, guest stats, morph events, exit
codes) must be bit-identical with the JIT on and off, across every
workload of the suite.  These tests run the whole grid row at small
scale and compare full ``dataclasses.asdict`` dumps, which is the same
equality the figure renderers and the disk cache rely on.
"""

import dataclasses

import pytest

from tests.test_fastpath_differential import SELF_PATCHING_LOOP
from repro.dbt.transcache import TranslationCache
from repro.guest.assembler import assemble
from repro.morph.config import PRESETS
from repro.obs.events import Tracer
from repro.vm.timing import TimingVM, run_timing
from repro.workloads import SPECINT_NAMES, build_workload

SCALE = 0.05


def _doc(result):
    return dataclasses.asdict(result)


def _jit_runs(program, config):
    """JIT-on results of a lone VM (tier-up at the break-even count) and
    of a VM with a translation cache (tier-up at the second execution,
    which at this scale is what compiles most of the program)."""
    lone = run_timing(program, config, jit=True)
    cached = run_timing(program, config, jit=True, translation_cache=TranslationCache())
    return lone, cached


class TestSuiteBitIdentity:
    @pytest.mark.parametrize("workload", SPECINT_NAMES)
    def test_jit_matches_interpreter(self, workload):
        program = build_workload(workload, scale=SCALE)
        config = PRESETS["speculative_4"]
        off = run_timing(program, config, jit=False)
        for on in _jit_runs(program, config):
            assert _doc(on) == _doc(off), f"{workload}: JIT changed the results"

    def test_jit_matches_interpreter_when_morphing(self):
        # reconfiguration interacts with the dispatch loop (stall
        # accounting, metrics sampling cadence): cover a morphing preset
        program = build_workload("164.gzip", scale=SCALE)
        config = PRESETS["morph_threshold_5"]
        off = run_timing(program, config, jit=False)
        for on in _jit_runs(program, config):
            assert _doc(on) == _doc(off)

    def test_shared_cache_and_cold_agree(self):
        # a JIT run adopting a sibling's compiled blocks must be
        # bit-identical to a cold JIT run and to the interpreter
        program = build_workload("186.crafty", scale=SCALE)
        config = PRESETS["speculative_4"]
        cache = TranslationCache()
        first = run_timing(
            program, config, translation_cache=cache, program_key="k", jit=True
        )
        warm = run_timing(
            program, config, translation_cache=cache, program_key="k", jit=True
        )
        cold = run_timing(program, config, jit=True)
        off = run_timing(program, config, jit=False)
        assert _doc(first) == _doc(warm) == _doc(cold) == _doc(off)


#: (workload, config) pairs for the stepped-vs-run pin; the SMC entry is
#: the self-patching loop, which de-chains and recompiles mid-run.
_RUN_VERSUS_STEP_CASES = [
    ("197.parser", "speculative_4"),
    ("176.gcc", "morph_threshold_0"),
    ("164.gzip", "l15_128k"),
    ("self-patching-loop", "speculative_4"),
]


def _build(workload):
    if workload == "self-patching-loop":
        return assemble(SELF_PATCHING_LOOP)
    return build_workload(workload, scale=SCALE)


def _jit_doc(vm):
    snapshot = vm.jit_metrics.snapshot()
    snapshot["histograms"].pop("compile.us", None)  # host time, not simulated
    return snapshot


def _event_docs(tracer):
    assert tracer.dropped == 0
    return [event.as_dict() for event in tracer.events()]


class TestRunVersusStep:
    @pytest.mark.parametrize(
        "workload, config_name", _RUN_VERSUS_STEP_CASES,
        ids=["/".join(case) for case in _RUN_VERSUS_STEP_CASES],
    )
    def test_stepped_run_matches_run(self, workload, config_name):
        # step() is one pass of run()'s dispatch loop, trace tier
        # skipped: results, JIT metrics and the event stream (chain
        # enter/exit events included) match a trace-off run exactly
        # each VM has a translation cache of its own, so both tier up at
        # the second execution and the chains (and the SMC case's
        # de-chaining) really happen
        program = _build(workload)
        config = PRESETS[config_name]
        ran = TimingVM(
            program, config, tracer=Tracer(1 << 20), jit=True, trace_jit=False,
            translation_cache=TranslationCache(),
        )
        ran_result = ran.run()
        stepped = TimingVM(
            program, config, tracer=Tracer(1 << 20), jit=True, trace_jit=True,
            translation_cache=TranslationCache(),
        )
        while stepped.step():
            pass
        assert _doc(stepped.result()) == _doc(ran_result)
        assert _jit_doc(stepped) == _jit_doc(ran)
        assert _event_docs(stepped.tracer) == _event_docs(ran.tracer)
