"""Block JIT: compiled closures must be indistinguishable from the
interpreter.

The contract (see ``repro.guest.blockjit``): for any block the compiler
accepts, executing the closure leaves *identical* architectural state,
memory, stats counters and fault behaviour to interpreting the same
instructions.  These tests drive that contract with the same seeded
random block generator the symbolic-equivalence layer uses, plus
targeted unit tests for the engine (thresholds, shared-space adoption,
code packs, self-modifying-code invalidation).
"""

import pytest

from tests import blockgen
from repro.dbt.frontend import scan_block
from repro.guest.assembler import assemble
from repro.guest.blockjit import (
    DEFAULT_HOT_THRESHOLD,
    LONE_HOT_THRESHOLD,
    Ineligible,
    compile_block,
    jit_enabled_by_env,
    pack_space,
    unpack_space,
)
from repro.guest.flags import condition_expr, evaluate_condition
from repro.guest.interpreter import GuestInterpreter
from repro.guest.isa import ALL_FLAGS, ConditionCode, Op, Register
from repro.verify.symexec.concrete import make_vector

_FLAG_NAMES = tuple(flag.name.lower() for flag in ALL_FLAGS)


def _seeded(program, env):
    interp = GuestInterpreter.for_program(program)
    for reg in Register:
        if reg is not Register.ESP:
            interp.state.regs[reg] = env[reg.name.lower()]
    interp.state.flags = 0
    for flag in ALL_FLAGS:
        interp.state.flags |= env[flag.name.lower()] << int(flag)
    return interp


def _run_blocks(interp):
    """Drive the interpreter block-at-a-time, like the VM dispatch loop.

    ``GuestInterpreter.run`` steps one instruction at a time and never
    consults the JIT; this is the harness that exercises
    ``run_block_at`` (and through it ``BlockJit.note_execution``).
    """
    read = interp.memory.read_bytes
    for _ in range(200_000):
        if interp.exit_code is not None:
            return interp.exit_code
        pc = interp.state.eip
        block = scan_block(read, pc)
        interp.run_block_at(pc, len(block.instructions))
    raise AssertionError("runaway block loop")


def _body_steps(program):
    from repro.guest.memory import GuestMemory

    memory = GuestMemory()
    program.load(memory)
    guest = scan_block(memory.read_bytes, program.entry)
    steps = len(guest.instructions)
    if guest.instructions[-1].op in (Op.INT, Op.HLT):
        steps -= 1
    return steps


class TestConditionExprs:
    def test_expr_agrees_with_evaluate_condition_exhaustively(self):
        # every condition code x every combination of the five flags
        for cc in ConditionCode:
            expr = condition_expr(cc)
            for bits in range(32):
                fl = 0
                for index, flag in enumerate(ALL_FLAGS):
                    if bits >> index & 1:
                        fl |= 1 << int(flag)
                got = bool(eval(expr, {"fl": fl}))
                want = evaluate_condition(cc, fl)
                assert got == want, f"{cc.name} flags={fl:#06x}"


class TestCompiledBlockDifferential:
    @pytest.mark.parametrize("seed", range(20))
    def test_compiled_blocks_match_interpreter(self, seed):
        source = blockgen.random_program(seed + 900, length=10)
        program = assemble(source)
        steps = _body_steps(program)
        if steps == 0:
            pytest.skip("degenerate block")
        buf = program.symbols["buf"]
        names = [reg.name.lower() for reg in Register] + list(_FLAG_NAMES)
        ones = {name: 1 for name in _FLAG_NAMES}
        for k in range(3):
            env = make_vector(seed * 131 + k, names, ones)
            reference = _seeded(program, env)
            jitted = _seeded(program, env)
            jit = jitted.enable_jit(threshold=1)

            ref_count = reference.run_block_at(program.entry, steps)
            jit_count = jitted.run_block_at(program.entry, steps)

            assert jit_count == ref_count
            assert jitted.state.snapshot() == reference.state.snapshot(), (
                f"seed {seed} vector {k} diverged\n{source}"
            )
            assert jitted.memory.read_bytes(buf, blockgen.BUF_BYTES) == (
                reference.memory.read_bytes(buf, blockgen.BUF_BYTES)
            ), f"seed {seed} vector {k}: buffer diverged\n{source}"
            assert jitted.stats.as_dict() == reference.stats.as_dict(), (
                f"seed {seed} vector {k}: stats diverged\n{source}"
            )
            # at threshold 1 the block either compiled or was ineligible
            # (in which case the legacy path ran: still exact above)
            assert jit.metrics["compiles"] + jit.metrics["ineligible"] >= 1


MIDBLOCK_JUMP = """
_start:
    jmp next
next:
    mov eax, 1
    mov ebx, 0
    int 0x80
"""


class TestEligibility:
    def test_setcc_compiles(self):
        program = assemble("_start:\n    cmp eax, 5\n    sete ebx\n    int 0x80\n")
        interp = GuestInterpreter.for_program(program)
        plan = interp._build_block_plan(program.entry, 2)
        block = compile_block([entry[1] for entry in plan], program.entry, 2)
        assert block.fn is not None

    def test_midblock_control_flow_is_rejected(self):
        # a plan that spans past a jmp cannot compile: either the plan
        # is truncated at the terminator or control flow appears before
        # the last instruction — both are Ineligible
        program = assemble(MIDBLOCK_JUMP)
        interp = GuestInterpreter.for_program(program)
        plan = interp._build_block_plan(program.entry, 2)
        with pytest.raises(Ineligible):
            compile_block([entry[1] for entry in plan], program.entry, 2)


COUNTING_LOOP = """
_start:
    mov ecx, 50
loop:
    add ebx, ecx
    sub ecx, 1
    jnz loop
    mov eax, 1
    and ebx, 255
    int 0x80
"""


class TestEngine:
    def test_threshold_gates_fresh_compiles(self):
        interp = GuestInterpreter.for_program(assemble(COUNTING_LOOP))
        jit = interp.enable_jit(threshold=3)
        reference = GuestInterpreter.for_program(assemble(COUNTING_LOOP))
        assert _run_blocks(interp) == reference.run()
        # only the loop body (3 instructions, 50 executions) got hot;
        # the entry and exit blocks ran once each and stayed cold
        assert jit.metrics["compiles"] == 1
        assert list(jit.code) == [(list(jit.code)[0][0], 3)]

    def test_env_enable_flag(self, monkeypatch):
        monkeypatch.delenv("REPRO_JIT", raising=False)
        assert jit_enabled_by_env() is True
        monkeypatch.setenv("REPRO_JIT", "0")
        assert jit_enabled_by_env() is False
        monkeypatch.setenv("REPRO_JIT", "off")
        assert jit_enabled_by_env() is False

    def test_invalidate_clears_in_place_and_bumps_epoch(self):
        interp = GuestInterpreter.for_program(assemble(COUNTING_LOOP))
        jit = interp.enable_jit(threshold=1)
        _run_blocks(interp)
        code_dict = interp._jit_code
        assert code_dict, "nothing compiled"
        fired = []
        jit.on_invalidate = lambda: fired.append(True)
        epoch_before = jit.epoch
        jit.invalidate()
        # cleared IN PLACE: run_block_at and the VM loop alias the dict
        assert interp._jit_code is code_dict and not code_dict
        assert jit.epoch == epoch_before + 1
        assert fired == [True]
        assert jit.metrics["invalidations"] == 1

    def test_counts_survive_invalidation(self):
        interp = GuestInterpreter.for_program(assemble(COUNTING_LOOP))
        jit = interp.enable_jit(threshold=2)
        _run_blocks(interp)
        compiled = [key for key in jit.code]
        jit.invalidate()
        # hot counts persisted: the very next sighting of a previously
        # hot block recompiles without re-warming from zero
        assert jit.note_execution(*compiled[0]) is not None
        assert jit.metrics["compiles"] == len(compiled) + 1


def _counting_loop(runs):
    """COUNTING_LOOP whose block at ``loop`` runs ``runs`` times (the
    first iteration belongs to the entry block, which falls into it)."""
    return COUNTING_LOOP.replace("mov ecx, 50", f"mov ecx, {runs + 1}")


class TestTierUp:
    """A lone engine compiles at the break-even count; an engine whose
    compiles other VMs adopt compiles at the second execution."""

    def _lone(self, runs):
        program = assemble(_counting_loop(runs))
        interp = GuestInterpreter.for_program(program)
        jit = interp.enable_jit()
        assert _run_blocks(interp) == GuestInterpreter.for_program(program).run()
        return jit

    def test_lone_engine_waits_for_break_even(self):
        assert self._lone(LONE_HOT_THRESHOLD - 1).metrics["compiles"] == 0
        jit = self._lone(LONE_HOT_THRESHOLD)
        assert jit.threshold == LONE_HOT_THRESHOLD
        assert jit.metrics["compiles"] == 1

    def test_vm_with_cache_compiles_at_second_run_and_shares(self):
        from repro.dbt.transcache import TranslationCache
        from repro.morph.config import PRESETS
        from repro.vm.timing import TimingVM

        config = PRESETS["speculative_4"]
        program = assemble(_counting_loop(DEFAULT_HOT_THRESHOLD))
        lone = TimingVM(program, config, jit=True)
        lone.run()
        assert lone.jit_metrics["compiles"] == 0
        cache = TranslationCache()
        first = TimingVM(program, config, jit=True, translation_cache=cache)
        first.run()
        assert first.jit_metrics["compiles"] >= 1
        later = TimingVM(program, config, jit=True, translation_cache=cache)
        later.run()
        assert later.jit_metrics["compiles"] == 0
        assert later.jit_metrics["shared_hits"] >= 1

    def test_lone_vm_matches_interpreter(self):
        import dataclasses

        from repro.morph.config import PRESETS
        from repro.vm.timing import TimingVM

        config = PRESETS["speculative_4"]
        program = assemble(_counting_loop(4 * LONE_HOT_THRESHOLD))
        off = TimingVM(program, config, jit=False).run()
        vm = TimingVM(program, config, jit=True)
        on = vm.run()
        assert vm.jit_metrics["compiles"] >= 1
        assert dataclasses.asdict(on) == dataclasses.asdict(off)


class TestSharedSpace:
    def _run(self, shared):
        program = assemble(COUNTING_LOOP)
        text = program.text
        interp = GuestInterpreter.for_program(program)
        jit = interp.enable_jit(
            shared_space=shared,
            generation=lambda: 0,
            share_range=(text.address, text.end),
        )
        exit_code = _run_blocks(interp)
        return exit_code, jit

    def test_adoption_on_first_sighting(self):
        shared = {}
        first_exit, first = self._run(shared)
        assert first.metrics["compiles"] == 1
        assert len(shared) == 1, "hot block not published to the shared space"
        second_exit, second = self._run(shared)
        assert second_exit == first_exit
        # the sibling's compile is adopted on the block's FIRST
        # sighting — the threshold gates fresh compiles, not adoption
        assert second.metrics["shared_hits"] == 1
        assert second.metrics["compiles"] == 0

    def test_ineligible_marker_is_shared(self):
        program = assemble(MIDBLOCK_JUMP)
        text = program.text
        shared = {}

        def engine():
            interp = GuestInterpreter.for_program(program)
            return interp.enable_jit(
                threshold=1, shared_space=shared,
                generation=lambda: 0, share_range=(text.address, text.end),
            )

        first = engine()
        assert first.note_execution(program.entry, 2) is None
        assert first.metrics["ineligible"] == 1
        # the sibling skips the doomed compile attempt entirely
        second = engine()
        assert second.note_execution(program.entry, 2) is None
        assert second.metrics["ineligible_shared"] == 1
        assert second.metrics["ineligible"] == 0

    def test_pack_roundtrip_is_executable(self):
        shared = {}
        first_exit, _ = self._run(shared)
        rebuilt = unpack_space(pack_space(shared))
        assert set(rebuilt) == set(shared)
        # a third interpreter seeded only from the pack must behave
        # identically and never compile anything itself
        third_exit, third = self._run(rebuilt)
        assert third_exit == first_exit
        assert third.metrics["shared_hits"] == 1
        assert third.metrics["compiles"] == 0


class TestSelfModifyingCode:
    def test_jit_matches_interpreter_on_smc(self):
        from tests.test_self_modifying_code import SMC_PROGRAM, _expected_exit

        interp = GuestInterpreter.for_program(assemble(SMC_PROGRAM))
        jit = interp.enable_jit(threshold=1)
        assert _run_blocks(interp) == _expected_exit()
        assert jit.metrics["invalidations"] >= 1

    def test_patched_block_recompiles(self):
        # patch inside the executing loop: the compiled block must be
        # invalidated, recompiled against the new bytes, and the result
        # must match a plain stepping interpreter
        source = """
        _start:
            mov ecx, 6
        loop:
            mov eax, 11
            add ebx, eax
            movb [loop + 2], 12
            sub ecx, 1
            jnz loop
            mov eax, 1
            and ebx, 255
            int 0x80
        """
        plain = GuestInterpreter.for_program(assemble(source))
        jitted = GuestInterpreter.for_program(assemble(source))
        engine = jitted.enable_jit(threshold=1)
        assert _run_blocks(jitted) == plain.run()
        assert jitted.stats.as_dict() == plain.stats.as_dict()
        assert engine.metrics["invalidations"] >= 1
        assert engine.metrics["compiles"] >= 2  # old and patched bodies
