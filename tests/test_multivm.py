"""Tests for multi-VM fabric sharing (the Section 5 'virtual x86 SMP')."""

import dataclasses

import pytest

from repro.guest.assembler import assemble
from repro.guest.interpreter import GuestInterpreter
from repro.vm.multivm import MultiVmResult, SharedFabric
from repro.workloads import build_workload

#: An I/O-bound guest: alternates bursts of arithmetic with system
#: calls (SYS_times), each of which blocks the VM on simulated I/O.
IO_HEAVY = """
_start:
    mov edi, 12          ; I/O operations to perform
io_loop:
    mov ecx, 40          ; small compute burst
burst:
    add esi, ecx
    dec ecx
    jnz burst
    mov eax, 43          ; SYS_times: proxied off-fabric
    int 0x80
    dec edi
    jnz io_loop
    mov eax, esi
    and eax, 255
    mov ebx, eax
    mov eax, 1
    int 0x80
"""


def _io_program():
    program = assemble(IO_HEAVY)
    program.name = "io_heavy"
    return program


def _compute_program():
    return build_workload("176.gcc", scale=0.4)


class TestSharedFabric:
    def test_needs_two_guests(self):
        with pytest.raises(ValueError):
            SharedFabric([_io_program()])

    def test_pool_must_cover_minimums(self):
        with pytest.raises(ValueError):
            SharedFabric([_io_program(), _io_program()], slave_pool=1)

    def test_both_guests_complete_correctly(self):
        golden_io = GuestInterpreter.for_program(_io_program()).run()

        fabric = SharedFabric([_io_program(), _compute_program()], dynamic=True)
        result = fabric.run()
        assert isinstance(result, MultiVmResult)
        assert result.per_vm[0].exit_code == golden_io
        golden_compute = GuestInterpreter.for_program(_compute_program()).run(3_000_000)
        assert result.per_vm[1].exit_code == golden_compute

    def test_io_stalls_are_charged(self):
        fabric = SharedFabric([_io_program(), _io_program()], dynamic=False)
        result = fabric.run()
        assert fabric.stats["io_stalls"] >= 22  # ~12 per guest, minus exits
        # the makespan includes the serialized stalls
        assert result.makespan > 12 * fabric.io_stall_cycles

    def test_dynamic_sharing_reallocates(self):
        fabric = SharedFabric([_io_program(), _compute_program()], dynamic=True)
        result = fabric.run()
        assert result.reallocations >= 2

    def test_static_sharing_never_reallocates(self):
        fabric = SharedFabric([_io_program(), _compute_program()], dynamic=False)
        result = fabric.run()
        assert result.reallocations == 0

    def test_dynamic_beats_static_on_mixed_pair(self):
        """The paper's claim: shrinking the I/O-stalled VM and growing
        the compute-bound one raises fabric utilization."""
        static = SharedFabric(
            [_io_program(), _compute_program()], dynamic=False
        ).run()
        dynamic = SharedFabric(
            [_io_program(), _compute_program()], dynamic=True
        ).run()
        assert dynamic.makespan <= static.makespan

    def test_interleaving_is_time_ordered(self):
        fabric = SharedFabric([_io_program(), _io_program()], dynamic=True)
        result = fabric.run()
        # both VMs advanced; neither starved
        assert all(r.cycles > 0 for r in result.per_vm)
        assert result.total_guest_instructions > 1000

    def test_max_steps_admits_a_run_that_needs_exactly_that_many(self):
        # every scheduling step executes one block of one guest
        reference = SharedFabric([_io_program(), _compute_program()], dynamic=True).run()
        needed = sum(r.blocks_executed for r in reference.per_vm)
        exact = SharedFabric([_io_program(), _compute_program()], dynamic=True)
        assert dataclasses.asdict(exact.run(max_steps=needed)) == dataclasses.asdict(reference)
        short = SharedFabric([_io_program(), _compute_program()], dynamic=True)
        with pytest.raises(RuntimeError, match=f"exceeded {needed - 1} scheduling steps"):
            short.run(max_steps=needed - 1)

    def test_block_jit_is_invisible_in_fabric_results(self, monkeypatch):
        # fabric VMs step through the chained block-JIT dispatch loop;
        # makespan, reallocations and every per-VM result must match
        # the interpreter-only fabric bit for bit
        outcomes = []
        for flag in ("0", "1"):
            monkeypatch.setenv("REPRO_JIT", flag)
            fabric = SharedFabric([_io_program(), _compute_program()], dynamic=True)
            assert all(vm.jit_enabled == (flag == "1") for vm in fabric.vms)
            outcomes.append(dataclasses.asdict(fabric.run()))
        assert outcomes[0] == outcomes[1]
