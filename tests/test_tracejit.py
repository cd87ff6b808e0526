"""Trace JIT: superblock closures must be invisible to the timing model.

The contract (see ``repro.guest.tracejit``): with the trace tier on,
every :class:`~repro.vm.timing.TimingVM` run — cycles, architectural
state, stats, metrics that feed results, fault behaviour — is
bit-identical to the same run with traces off.  These tests drive that
contract with the trace-biased :mod:`tests.blockgen` profile (computed
jumps, interior branches, mid-run self-modifying stores), plus targeted
tests for the knobs, the shared-space pack format, mid-trace faults,
and the jitverify trace lint's planted-bug attribution.
"""

import dataclasses
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests import blockgen
from repro.guest.assembler import assemble
from repro.guest.interpreter import GuestFault
from repro.guest.tracejit import (
    pack_trace_space,
    trace_jit_enabled_by_env,
    unpack_trace_space,
)
from repro.dbt.transcache import TranslationCache
from repro.morph.config import PRESETS
from repro.vm.timing import TimingVM

DATA_DIR = Path(__file__).parent / "data"
#: Written (shrunk) whenever the hypothesis differential below fails;
#: rename to ``tracejit_regression_<what>.asm`` when committing one as
#: a permanent regression.
COUNTEREXAMPLE = DATA_DIR / "tracejit_counterexample_latest.asm"

_CONFIG = PRESETS["speculative_4"]

#: A loop guaranteed to form a multi-block loop trace at the default
#: thresholds: a computed jump into the second block and a conditional
#: back-edge, hot for 60 iterations.
TRACED_LOOP = """
_start:
    mov ecx, 60
head:
    add eax, 3
    xor eax, ecx
    mov esi, b1
    jmp esi
b1:
    add ebx, eax
    sub ecx, 1
    jnz head
    mov eax, 1
    and ebx, 255
    int 0x80
buf:
    dz 64
"""


def _vm(program, **kwargs):
    """A JIT-on VM with a translation cache of its own, so its blocks
    tier up at the second execution as a sweep cell's do (a lone VM
    waits for the break-even count and would not trace these loops)."""
    return TimingVM(
        program, _CONFIG, jit=True, translation_cache=TranslationCache(), **kwargs
    )


def _result_dict(program, **kwargs):
    return dataclasses.asdict(_vm(program, **kwargs).run())


def _differential(source):
    program = assemble(source)
    off = _result_dict(program, trace_jit=False)
    on = _result_dict(program, trace_jit=True)
    assert on == off, "trace tier changed observable results\n%s" % source


class TestKnobs:
    def test_env_enable_flag(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACEJIT", raising=False)
        assert trace_jit_enabled_by_env() is True
        monkeypatch.setenv("REPRO_TRACEJIT", "0")
        assert trace_jit_enabled_by_env() is False
        monkeypatch.setenv("REPRO_TRACEJIT", "off")
        assert trace_jit_enabled_by_env() is False

    def test_vm_honours_trace_jit_override(self):
        program = assemble(TRACED_LOOP)
        vm = _vm(program, trace_jit=False)
        vm.run()
        assert vm._tracejit is None
        vm = _vm(program, trace_jit=True)
        vm.run()
        assert vm._tracejit is not None
        assert vm.jit_metrics["trace.installs"] >= 1


class TestTraceDifferential:
    @pytest.mark.parametrize("seed", range(12))
    def test_random_trace_programs_bit_identical(self, seed):
        _differential(blockgen.random_trace_program(seed))

    def test_traced_loop_installs_and_matches(self):
        program = assemble(TRACED_LOOP)
        off = _result_dict(program, trace_jit=False)
        vm = _vm(program, trace_jit=True)
        on = dataclasses.asdict(vm.run())
        assert on == off
        # the loop really became one closure: a multi-block loop trace
        # installed and ran to the budget or the final guard miss
        assert vm.jit_metrics["trace.installs"] >= 1
        entry = next(iter(vm._tracejit.entries.values()))
        assert entry.loop and entry.blocks >= 2

    def test_emitter_temps_do_not_clobber_trace_locals(self):
        # imul's emitter uses the most helper temporaries of any
        # instruction; one of them (`_sb`) once collided with a trace
        # header local and turned the stats-bump callable into an int
        source = TRACED_LOOP.replace("add ebx, eax", "imul ebx, eax")
        program = assemble(source)
        off = _result_dict(program, trace_jit=False)
        vm = _vm(program, trace_jit=True)
        on = dataclasses.asdict(vm.run())
        assert on == off
        assert vm.jit_metrics["trace.installs"] >= 1

    def test_smc_patch_invalidates_traces(self):
        # seeds whose generated program patches its own loop body: the
        # trace over the old bytes must be torn down and the run must
        # still match the trace-off timing bit for bit
        patched = [
            seed for seed in range(12)
            if "movb [head + 2], 9" in blockgen.random_trace_program(seed)
        ]
        assert patched, "no SMC seed in range — regenerate the profile"
        for seed in patched[:2]:
            source = blockgen.random_trace_program(seed)
            program = assemble(source)
            off = _result_dict(program, trace_jit=False)
            vm = _vm(program, trace_jit=True)
            on = dataclasses.asdict(vm.run())
            assert on == off, source
            assert vm.jit_metrics["trace.invalidations"] >= 1, source


FAULTING_TRACE = """
_start:
    mov ecx, 40
    mov edx, 0
head:
    add eax, 3
    mov esi, b1
    jmp esi
b1:
    mov ebx, [buf + edx]
    add edx, 4096
    sub ecx, 1
    jnz head
    mov eax, 1
    int 0x80
buf:
    dz 64
"""


class TestMidTraceFault:
    def test_fault_spills_state_and_matches_stepping(self):
        # the load walks off the mapped data pages mid-run — after the
        # trace has formed — so the fault is raised from inside the
        # closure's guest body; the spill-on-fault path must leave the
        # VM in exactly the state the stepping path leaves it in
        program = assemble(FAULTING_TRACE)

        def run(trace_jit):
            vm = _vm(program, trace_jit=trace_jit)
            with pytest.raises(GuestFault) as excinfo:
                vm.run()
            return vm, excinfo.value

        vm_off, fault_off = run(False)
        vm_on, fault_on = run(True)
        assert fault_on.args == fault_off.args
        assert vm_on.now == vm_off.now
        assert vm_on.interp.state.snapshot() == vm_off.interp.state.snapshot()
        assert vm_on.stats.as_dict() == vm_off.stats.as_dict()


class TestSharedSpacePack:
    def _run_with_cache(self, program, cache):
        vm = TimingVM(
            program, _CONFIG, jit=True, trace_jit=True,
            translation_cache=cache, program_key="traced-loop",
        )
        result = dataclasses.asdict(vm.run())
        return result, vm

    def test_pack_roundtrip_is_executable(self):
        program = assemble(TRACED_LOOP)
        first_cache = TranslationCache()
        first, first_vm = self._run_with_cache(program, first_cache)
        space = first_cache.trace_space("traced-loop")
        assert space, "no traces published to the shared space"

        rebuilt = unpack_trace_space(pack_trace_space(space))
        assert set(rebuilt) == {
            key for key, value in space.items()
            if value is not None
        }
        second_cache = TranslationCache()
        second_cache.trace_space("traced-loop").update(rebuilt)
        second, second_vm = self._run_with_cache(program, second_cache)
        assert second == first
        # the sibling adopted the packed compile instead of recompiling
        assert second_vm.jit_metrics["trace.shared_hits"] >= 1
        assert second_vm.jit_metrics["trace.compiles"] == 0

    def test_format_mismatch_degrades_to_recompile(self):
        import pickle

        blob = pickle.dumps((999, []), protocol=pickle.HIGHEST_PROTOCOL)
        assert unpack_trace_space(blob) == {}


class TestPlantedBugs:
    """The jitverify trace lint must attribute deliberate breakage."""

    def _installed_trace(self):
        program = assemble(TRACED_LOOP)
        vm = _vm(program, trace_jit=True)
        vm.run()
        entries = vm._tracejit.entries
        assert entries, "no trace installed"
        entry = next(iter(entries.values()))
        block_instrs = [
            [item[1] for item in vm.interp._build_block_plan(pc, count)]
            for pc, count, _expect in entry.shape
        ]
        return entry, block_instrs

    def _codes(self, source, block_instrs=None):
        from repro.verify.jitverify import lint_trace_source

        return [code for code, _message in
                lint_trace_source(source, block_instrs)]

    def test_clean_trace_has_no_defects(self):
        entry, block_instrs = self._installed_trace()
        assert self._codes(entry.source, block_instrs) == []

    def test_dropped_entry_guard_is_flagged(self):
        entry, _ = self._installed_trace()
        lines = [line for line in entry.source.splitlines()
                 if "S.eip !=" not in line or "return None" not in line]
        assert "trace-missing-entry-guard" in self._codes("\n".join(lines))

    def test_dropped_generation_guard_is_flagged(self):
        entry, _ = self._installed_trace()
        lines = [line for line in entry.source.splitlines()
                 if "code_writes" not in line]
        assert "trace-missing-generation-guard" in self._codes("\n".join(lines))

    def test_dropped_spill_is_flagged(self):
        entry, _ = self._installed_trace()
        source = entry.source
        spills = [line for line in source.splitlines()
                  if line.strip().startswith("R[") and "= r" in line]
        assert spills, "trace spills no registers — pick a busier program"
        mutated = source.replace(spills[0] + "\n", "", 1)
        assert mutated != source
        assert "trace-spill-mismatch" in self._codes(mutated)

    def test_dropped_metrics_flush_is_flagged(self):
        entry, _ = self._installed_trace()
        mutated = "\n".join(
            line for line in entry.source.splitlines()
            if line.strip() != "PI(_pn)"
        )
        assert "trace-missing-flush" in self._codes(mutated)

    def test_dropped_stats_accumulator_is_flagged(self):
        entry, block_instrs = self._installed_trace()
        source = entry.source
        bump = next(line for line in source.splitlines()
                    if "_st_instructions +=" in line)
        mutated = source.replace(bump + "\n", "", 1)
        assert "trace-stats-mismatch" in self._codes(mutated, block_instrs)

    def test_dropped_exit_stats_flush_is_flagged(self):
        entry, _ = self._installed_trace()
        mutated = "\n".join(
            line for line in entry.source.splitlines()
            if "SB('instructions'" not in line
        )
        assert "trace-missing-flush" in self._codes(mutated)


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10_000))
def test_trace_profile_differential(seed):
    source = blockgen.random_trace_program(seed)
    try:
        _differential(source)
    except AssertionError:
        COUNTEREXAMPLE.write_text(source)
        raise


def _regressions():
    return sorted(DATA_DIR.glob("tracejit_regression_*.asm"))


@pytest.mark.parametrize(
    "path", _regressions() or [None], ids=lambda p: p.name if p else "none"
)
def test_persisted_counterexamples_stay_fixed(path):
    if path is None:
        pytest.skip("no persisted tracejit regressions")
    _differential(path.read_text())
