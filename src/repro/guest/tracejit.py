"""Trace JIT: compile hot superblock traces to single Python closures.

The block JIT (:mod:`repro.guest.blockjit`) made hot blocks fast but
still round-trips the full guest state at every block boundary: each
closure loads its registers from ``state.regs``, stores them back, and
materializes the packed flag word even when the next block immediately
kills it.  The chained dispatch loop in ``TimingVM._run`` already
proves which successions are stable — ``_chain_links`` records a direct
successor-entry reference once a block's exit target has repeated
``CHAIN_STREAK_THRESHOLD`` times (immediately for static exits).  This
module harvests those chains: when a chain head stays hot it walks the
recorded links into a *trace* (a superblock: one entry, one or more
exits) and compiles the whole path into ONE closure in which

* **registers stay in locals across blocks** — loaded once at trace
  entry, spilled only at a side exit, the trace end, or a fault;
* **flags are lazy across boundaries** — the block compiler's backward
  liveness pass runs over the whole trace, so a flag written in block
  *i* and overwritten in block *i+1* before any read is never computed
  at all.  Boundaries where architectural state can escape (side-exit
  guards, SMC checks after stores, the trace end, fault barriers) force
  all flags live, so every observable flag word is bit-exact;
* **boundaries become guards** — a conditional or indirect terminator
  compares the computed successor against the recorded one and, on
  mismatch, spills locals back to ``GuestState`` and returns to the
  chain dispatcher (a *side exit*).  Statically-known successors need
  no guard at all: the entry generation check pins the guest bytes, so
  a direct jump cannot change targets within a generation.

Everything the timing loop does per block is replicated inside the
closure in the same order — fetch (with its cache-level stat), page
registration, per-block stats, PIII accounting (batched, the model is
a pure accumulator), block cost + pending stalls, morph callbacks, the
32-block metrics sampler, and the pending-SMC invalidation check after
any block that stores.  A mid-trace fault spills, replays the faulting
block's partial stats from the same ``_SITES`` tables the block JIT
uses, rewinds ``eip`` to the faulting instruction and re-raises — the
differential suite asserts bit-identical ``TimingRunResult`` with the
trace tier on and off.

SMC story: the entry guard rejects a stale generation (``V.code_writes``
is the write-generation counter) and a dirty ``pending_smc`` set.  A
store *inside* the trace that hits a registered code page sets
``pending_smc``; the next boundary after the store runs the same
``_invalidate_smc_pages()`` the dispatch loop runs, and if that bumped
the engine epoch (the write invalidated compiled code) the trace side-
exits with reason ``smc``.  ``TraceJit.invalidate`` — wired into
``BlockJit.on_invalidate`` by the VM — clears installed traces in
place, so the dispatch loop can never re-enter stale trace code.

Budget semantics: the dispatch loop checks the guest-instruction budget
after every block; a trace checks it at its loop back-edge and the
dispatcher checks after every trace return, so an over-budget run may
raise up to one trace iteration later than the dispatch loop.  This is
documented slack on an error path only — runs within budget (everything
the harness executes) are bit-identical.

Traces ship across workers exactly like compiled blocks: marshaled code
objects plus their constant pools (:func:`pack_trace_space` /
:func:`unpack_trace_space`), keyed by (generation, loop flag, shape) in
:meth:`repro.dbt.transcache.TranslationCache.trace_space`.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.dbt.block import pages_spanned
from repro.guest.blockjit import (
    _ALL_FLAG_MASK,
    _CONTROL_OPS,
    _Compiler,
    _base_namespace,
    _flag_liveness,
    Ineligible,
)
from repro.guest.isa import Instruction, Op
from repro.obs import prof
from repro.obs.metrics import COMPILE_TIME_BUCKETS, MetricsRegistry

#: Environment switch: set to 0/off/no/false to disable trace formation
#: (the ``--no-trace-jit`` escape hatch plumbs through this).  The block
#: JIT and chained dispatch are unaffected.
TRACE_ENABLE_ENV = "REPRO_TRACEJIT"

#: Chained arrivals at a head before a trace is attempted there.  Low on
#: purpose: by the time a chain exists the blocks have already proven
#: stable, and a compiled trace pays for itself within a few iterations.
DEFAULT_TRACE_THRESHOLD = 8

#: Hard cap on blocks per trace; linear walks stop here, so the
#: worst-case budget overshoot of a linear trace is bounded by it.
DEFAULT_MAX_TRACE_BLOCKS = 16

#: Failed selection attempts (chain too short when sampled) before a
#: head is written off for the current generation.
MAX_SELECT_ATTEMPTS = 8


def trace_jit_enabled_by_env() -> bool:
    """Whether the environment allows trace formation (default: yes)."""
    import os

    return os.environ.get(TRACE_ENABLE_ENV, "1").strip().lower() not in (
        "0", "off", "no", "false",
    )


class CompiledTrace:
    """One compiled superblock: the closure plus everything needed to
    repack, regenerate source, and audit it."""

    __slots__ = (
        "fn", "head", "shape", "loop", "generation", "source",
        "code", "sites", "consts", "metrics_interval",
    )

    def __init__(
        self, fn, head, shape, loop, generation, source,
        code=None, sites=(), consts=None, metrics_interval=32,
    ) -> None:
        self.fn = fn
        self.head = head
        #: tuple of (pc, count, expected_next_or_None) per block
        self.shape = shape
        self.loop = loop
        self.generation = generation
        self.source = source
        self.code = code
        self.sites = sites
        self.consts = consts if consts is not None else {}
        self.metrics_interval = metrics_interval

    @property
    def blocks(self) -> int:
        return len(self.shape)


def _classify_terminator(last: Instruction) -> Tuple[str, bool, Optional[int]]:
    """(guest_kind, guarded, static_target) for a trace-eligible block.

    This is a guest-level approximation of the frontend's
    :class:`~repro.dbt.ir.ExitKind` lowering, used only for guard
    placement and eligibility.  The *authoritative* exit kind — the one
    the dispatch loop derives its ``arrived_indirect`` flag from — is
    read from the translated block at run time (``_blk.exit_kind``),
    because the optimizer may fold a computed jump with a constant
    target into a direct one and the fold depends on translator knobs.
    Guarded boundaries (conditional or computed successors) get a
    side-exit check; static ones do not — within a generation the guest
    bytes, hence the target, cannot change.
    """
    op = last.op
    if op is Op.JCC:
        return "branch", True, None
    if op is Op.RET:
        return "indirect", True, None
    if op in (Op.JMP, Op.CALL):
        if last.target is None:
            return "indirect", True, None
        return "jump", False, last.target
    if op in (Op.INT, Op.HLT):
        raise Ineligible("syscall/halt terminator in a trace")
    return "jump", False, last.next_address  # fall-through


def _check_block_eligible(instrs: List[Instruction], count: int) -> None:
    """The block compiler's eligibility rules, applied per trace block."""
    if not instrs or len(instrs) != count:
        raise Ineligible("plan does not cover the block")
    for instr in instrs[:-1]:
        if instr.op in _CONTROL_OPS:
            raise Ineligible("control flow before the terminator")
    if any(instr.width == 8 and instr.op not in
           (Op.ADD, Op.SUB, Op.CMP, Op.AND, Op.OR, Op.XOR, Op.TEST,
            Op.MOV, Op.SETCC)
           for instr in instrs):
        raise Ineligible("byte width outside the ALU group")


class _TraceCompiler(_Compiler):
    """Emits the source for one whole trace, reusing the block
    compiler's per-instruction emitters.

    Differences from the parent: terminators park the successor in the
    ``_n`` local instead of committing ``S.eip`` (so guards can inspect
    it before any spill), instruction constants are tagged with the
    block ordinal (``_I<block>_<index>``) to keep them unique across
    the trace, and per-block state (stats totals, fault-site partials,
    the taken-branch local) is reset between blocks while register and
    flag usage accumulate trace-wide.
    """

    def __init__(self) -> None:
        super().__init__([], 0, 0)
        self.block_tag = 0
        #: sorted stat keys the trace accumulates in ``_st_*`` locals
        #: (flushed at every exit and in the fault handler)
        self.stat_accs: List[str] = []

    def _set_eip(self, expr: str) -> None:
        self.emit("_n = %s" % expr)

    def _instr_const(self, instr: Instruction) -> str:
        name = "_I%d_%d" % (self.block_tag, self.index)
        self.consts[name] = instr
        return name

    def begin_block(self, tag: int, instrs: List[Instruction],
                    address: int, count: int) -> None:
        self.block_tag = tag
        self.instrs = instrs
        self.address = address
        self.count = count
        self.done = {}
        self.taken_var = False

    def emit_guest_body(self, computed: List[int]) -> None:
        for index, instr in enumerate(self.instrs):
            self.index = index
            self.emit("# %s" % instr)
            self._emit_instruction(instr, computed[index])
        if self.instrs[-1].op not in _CONTROL_OPS:
            self._set_eip("%d" % self.instrs[-1].next_address)

    def emit_exit(self, npc: str, pc: int, reason: str,
                  guard: Optional[str] = None) -> None:
        """Spill locals and return the side-exit tuple (optionally
        under a guard condition).

        The exit kind and the arrived-indirect flag are read from the
        current block's *translated* form (``_ek``) at run time, never
        baked in at compile time: the optimizer folds computed jumps
        with constant targets (``mov esi, L; jmp esi``) into direct
        exits, so the kind depends on translator knobs the shared trace
        space is deliberately blind to.
        """
        saved = self.indent
        if guard is not None:
            self.emit("if %s:" % guard)
            self.indent = saved + "    "
        self.emit_stat_flush()
        for number in sorted(self.regs_written):
            self.emit("R[%d] = r%d" % (number, number))
        if self.uses_flags:
            self.emit("S.flags = fl")
        self.emit("S.eip = %s" % npc)
        self.emit("V._blocks_since_metrics = _bm")
        self.emit("PI(_pn)")
        self.emit("return (_bl, ET, %s, %d, _ek == 'indirect', _ek, %r)"
                  % (npc, pc, reason))
        self.indent = saved

    def stat_flush_lines(self, blocks_expr: str = "_bl") -> List[str]:
        """Statements flushing the coalesced stats accumulators.

        Per-block stat bumps are unobservable until the trace hands
        control back (nothing inside a trace reads the counters), so
        the hot path accumulates them in integer locals and a flush at
        every exit — and in the fault handler, where ``blocks_expr`` is
        ``_bl + 1`` because the faulting block's fetch already counted —
        settles the exact totals the dispatch loop would have bumped one
        block at a time.  Every guest-stat flush is guarded: an
        unconditional bump of zero would *create* a counter the dispatch
        loop never touches.
        """
        lines = []
        for key in self.stat_accs:
            lines.append("if _st_%s: SB('%s', _st_%s)" % (key, key, key))
        lines.append("BU('blocks_executed', %s)" % blocks_expr)
        lines.append("if _f1: BU('fetch_l1', _f1)")
        return lines

    def emit_stat_flush(self) -> None:
        for line in self.stat_flush_lines():
            self.emit(line)


def compile_trace(
    interp,
    shape: Tuple[Tuple[int, int, Optional[int]], ...],
    loop: bool,
    generation: int,
    metrics_interval: int = 32,
) -> CompiledTrace:
    """Compile one selected trace; raises :class:`Ineligible`.

    ``shape`` is the chain walk's output: (pc, instruction count,
    recorded successor) per block, successor ``None`` for the final
    block of a linear trace.  ``loop`` marks a back-edge to the head.
    Codegen is deterministic, so two VMs compiling the same shape in
    the same generation produce byte-identical source — the property
    the shared trace space and pack regeneration rely on.
    """
    head = shape[0][0]
    plans: List[List[Instruction]] = []
    for pc, count, _expect in shape:
        plan = interp._build_block_plan(pc, count)
        instrs = [entry[1] for entry in plan]
        _check_block_eligible(instrs, count)
        plans.append(instrs)

    kinds: List[Tuple[str, bool, Optional[int]]] = []
    for i, instrs in enumerate(plans):
        kind, guarded, static = _classify_terminator(instrs[-1])
        pc, count, expect = shape[i]
        if not guarded:
            # a static successor must agree with the recorded chain:
            # a mismatch means the links were sampled mid-update and
            # the walk is unusable (the caller simply retries later).
            if expect is not None and expect != static:
                raise Ineligible("recorded successor diverges from static target")
            if i + 1 < len(shape) and shape[i + 1][0] != static:
                raise Ineligible("chain order diverges from static successors")
            if i + 1 == len(shape) and loop and static != head:
                raise Ineligible("static back-edge does not return to the head")
        kinds.append((kind, guarded, static))

    # -- pass 1: discovery -------------------------------------------------
    # A throwaway emission (pessimistic flag masks) to learn which blocks
    # store to memory and the trace-wide register/flag/memory usage.
    # Stats totals and register sets do not depend on the flag masks, so
    # these carry over to the real emission below.
    probe = _TraceCompiler()
    has_stores: List[bool] = []
    stat_keys = {"instructions"}
    for i, instrs in enumerate(plans):
        pc, count, _expect = shape[i]
        probe.begin_block(i, instrs, pc, count)
        probe.emit_guest_body([_ALL_FLAG_MASK] * count)
        has_stores.append(bool(probe.done.get("writes")))
        stat_keys.update(probe.done)
        if probe.taken_var:
            stat_keys.add("taken_branches")

    # -- boundary classification + cross-block liveness --------------------
    # A boundary is *observing* if architectural state can escape there:
    # a side-exit guard, the SMC check after a store, or the trace end /
    # back-edge (which always spills or re-checks the budget).  Observing
    # boundaries force all flags live; a non-observing boundary (static
    # successor, no stores) lets liveness flow straight through, which is
    # where cross-block dead-flag elision pays off.
    n = len(shape)
    observing = [
        kinds[i][1] or has_stores[i] or i == n - 1
        for i in range(n)
    ]
    computed_per_block: List[List[int]] = [[] for _ in range(n)]
    live_in = _ALL_FLAG_MASK
    for i in range(n - 1, -1, -1):
        live_out = _ALL_FLAG_MASK if observing[i] else live_in
        computed_per_block[i], live_in = _flag_liveness(plans[i], live_out)

    # -- pass 2: emission ---------------------------------------------------
    comp = _TraceCompiler()
    comp.stat_accs = sorted(stat_keys)
    comp.regs_read = set(probe.regs_read)
    comp.regs_written = set(probe.regs_written)
    comp.uses_flags = probe.uses_flags
    comp.uses_memory = probe.uses_memory
    comp.uses_observer = probe.uses_observer
    any_stores = any(has_stores)

    comp.indent = "    "
    if loop:
        comp.emit("while True:")
        comp.indent = "        "

    for i, instrs in enumerate(plans):
        pc, count, expect = shape[i]
        kind, guarded, _static = kinds[i]
        comp.begin_block(i, instrs, pc, count)

        # The dispatch loop's per-block preamble, verbatim.  The
        # arrived-indirect flag must match what the dispatcher derives
        # from the *translated* predecessor (its exit kind after
        # optimization — a const-folded computed jump arrives direct),
        # so it is carried in ``_ek`` at run time rather than taken
        # from the guest-level terminator classification.
        if i == 0:
            prev_expr, ai_expr = ("_pp", "_ai") if loop else ("PP", "AI")
        else:
            prev_expr = "%d" % shape[i - 1][0]
            ai_expr = "_ek == 'indirect'"
        comp.emit("_lk = FE(V.now, %d, %s, %s)" % (pc, prev_expr, ai_expr))
        comp.emit("V.now = _lk.ready_time")
        comp.emit("_blk = _lk.block")
        comp.emit("_ek = _blk.exit_kind")
        comp.emit("if _blk.guest_instr_count != %d:" % count)
        comp.emit("    raise RuntimeError('stale trace block at %#x')" % pc)
        # fetch-level accounting: the warm case ('l1') accumulates in a
        # local and flushes with the stats; other levels stay immediate
        comp.emit("_lv = _lk.level")
        comp.emit("if _lv == 'l1':")
        comp.emit("    _f1 += 1")
        comp.emit("else:")
        comp.emit("    _fk = FKS.get(_lv)")
        comp.emit("    if _fk is None:")
        comp.emit("        _fk = 'fetch_' + _lv.replace('.', '_')")
        comp.emit("        FKS[_lv] = _fk")
        comp.emit("    BU(_fk)")
        comp.emit("if %d not in PR:" % pc)
        comp.emit("    PR.add(%d)" % pc)
        comp.emit("    for _pg in _PSP(_blk.guest_address, _blk.guest_length):")
        comp.emit("        CP.setdefault(_pg, set()).add(%d)" % pc)
        comp.emit("V.pending_stall = 0")

        comp.emit_guest_body(computed_per_block[i])

        # per-block stats, coalesced: constant adds into the ``_st_*``
        # accumulator locals (flushed at the exits / fault handler)
        comp.emit("_st_instructions += %d" % count)
        for key, amount in sorted(comp.done.items()):
            comp.emit("_st_%s += %d" % (key, amount))
        if comp.taken_var:
            comp.emit("if _t: _st_taken_branches += 1")

        # accounting + timing, in the dispatch loop's order
        comp.emit("_pn += %d" % count)
        comp.emit("ET += %d" % count)
        comp.emit("_bl += 1")
        comp.emit("V.now += _blk.cost_cycles + V.pending_stall")
        comp.emit("if MO is not None: V.now += MO.on_block_executed(V.now)")
        comp.emit("_bm += 1")
        comp.emit("if _bm >= %d:" % metrics_interval)
        comp.emit("    _bm = 0")
        comp.emit("    V._blocks_since_metrics = 0")
        comp.emit("    V._executed_instructions = ET")
        comp.emit("    SM()")

        if has_stores[i]:
            # a store may have dirtied a registered code page: run the
            # boundary invalidation, and if it invalidated compiled
            # code (epoch bump) this trace is stale — side-exit.
            comp.emit("if PS:")
            saved = comp.indent
            comp.indent = saved + "    "
            comp.emit("IV()")
            comp.emit_exit("_n", pc, "smc", guard="JT.epoch != _ep")
            comp.indent = saved

        if i < n - 1:
            if guarded:
                comp.emit_exit("_n", pc, "guard", guard="_n != %d" % expect)
        elif not loop:
            comp.emit_exit("_n", pc, "end")
        else:
            if guarded or kinds[i][2] != head:
                comp.emit_exit("_n", pc, "guard", guard="_n != %d" % head)
            comp.emit_exit("%d" % head, pc, "budget", guard="ET > MAXG")
            comp.emit("_pp = %d" % pc)
            comp.emit("_ai = _ek == 'indirect'")

    # -- assembly -----------------------------------------------------------
    header = [
        "def _jit_trace(V, I, ET, MAXG, PP, AI):",
        "    S = I.state",
        "    if S.eip != %d: return None" % head,
        "    if V.code_writes != %d: return None" % generation,
        "    if V.pending_smc: return None",
    ]
    used = sorted(comp.regs_read | comp.regs_written)
    if used:
        header.append("    R = S.regs")
        for number in used:
            header.append("    r%d = R[%d]" % (number, number))
    if comp.uses_flags:
        header.append("    fl = S.flags")
    if comp.uses_memory:
        header.append("    M = I.memory")
        header.append("    MP = M._pages")
        header.append("    DL = I._decode_low")
        header.append("    DH = I._decode_high")
        header.append("    NC = I._note_code_write")
    if comp.uses_observer:
        header.append("    OB = I.observer")
    header.append("    FE = V.hierarchy.fetch")
    header.append("    BU = V.stats.bump")
    header.append("    SB = I.stats.bump")
    header.append("    FKS = V._fetch_stat_keys")
    header.append("    PR = V._pages_registered")
    header.append("    CP = V.code_pages")
    header.append("    PI = V.piii.on_instructions")
    header.append("    MO = V.morph")
    header.append("    SM = V._sample_metrics")
    if any_stores:
        header.append("    PS = V.pending_smc")
        header.append("    IV = V._invalidate_smc_pages")
        header.append("    JT = I._jit")
        header.append("    _ep = JT.epoch")
    header.append("    _bm = V._blocks_since_metrics")
    header.append("    _pn = 0")
    header.append("    _bl = 0")
    header.append("    _f1 = 0")
    for key in comp.stat_accs:
        header.append("    _st_%s = 0" % key)
    if loop:
        header.append("    _pp = PP")
        header.append("    _ai = AI")

    body: List[str] = []
    if comp.sites:
        writeback = []
        for number in sorted(comp.regs_written):
            writeback.append("R[%d] = r%d" % (number, number))
        if comp.uses_flags:
            writeback.append("S.flags = fl")
        body.append("    _ip = 0")
        body.append("    try:")
        body += ["    " + line for line in comp.lines]
        body.append("    except (_MF, _GF) as e:")
        for line in writeback:
            body.append("        " + line)
        body.append("        V._blocks_since_metrics = _bm")
        body.append("        PI(_pn)")
        for line in comp.stat_flush_lines("_bl + 1"):
            body.append("        " + line)
        body.append("        _fa, _cv, _gf, _raw = _SITES[_ip]")
        body.append("        S.eip = _fa")
        body.append("        _b = I.stats.bump")
        body.append("        if e.__class__ is _MF:")
        body.append("            if not _cv:")
        body.append("                for _k, _n2 in _raw: _b(_k, _n2)")
        body.append("                raise")
        body.append("            for _k, _n2 in _gf: _b(_k, _n2)")
        body.append("            raise _GF(_fa, str(e)) from e")
        body.append("        for _k, _n2 in _gf: _b(_k, _n2)")
        body.append("        raise")
    else:
        body += comp.lines

    source = "\n".join(header + body) + "\n"
    namespace = _trace_namespace(tuple(comp.sites))
    namespace.update(comp.consts)
    code = compile(source, "<tracejit:%#x*%d>" % (head, n), "exec")
    exec(code, namespace)
    return CompiledTrace(
        namespace["_jit_trace"], head, shape, loop, generation, source,
        code=code, sites=tuple(comp.sites), consts=dict(comp.consts),
        metrics_interval=metrics_interval,
    )


def _trace_namespace(sites: tuple) -> Dict:
    """The globals every compiled trace executes against."""
    namespace = _base_namespace(sites)
    namespace["_PSP"] = pages_spanned
    return namespace


#: Bumped when the trace pack layout or the generated code's namespace
#: contract changes incompatibly.
TRACE_PACK_FORMAT = 1

#: Sentinel stored in shared trace spaces for shapes that failed
#: eligibility, so sibling VMs skip the doomed compile attempt.
_TRACE_INELIGIBLE = object()


def pack_trace_space(space: Dict) -> bytes:
    """Serialize a shared trace space for cross-process reuse.

    Same scheme as :func:`repro.guest.blockjit.pack_space`: marshal the
    code object, carry the constant pool and fault-site tables, and let
    the sibling re-exec — a few percent of the compile cost.
    """
    import marshal
    import pickle

    entries = []
    for key, trace in space.items():
        if trace is _TRACE_INELIGIBLE:
            entries.append((key, None))
        elif trace.code is not None:
            entries.append(
                (key, (marshal.dumps(trace.code), trace.sites, trace.consts,
                       trace.head, trace.shape, trace.loop, trace.generation,
                       trace.metrics_interval))
            )
    return pickle.dumps((TRACE_PACK_FORMAT, entries), protocol=pickle.HIGHEST_PROTOCOL)


def unpack_trace_space(data: bytes) -> Dict:
    """Rebuild a shared trace space from :func:`pack_trace_space` output.

    Returns ``{}`` on a format mismatch (the caller just recompiles).
    Only feed this bytes from a trusted cache directory — it unpickles.
    """
    import marshal
    import pickle

    fmt, entries = pickle.loads(data)
    if fmt != TRACE_PACK_FORMAT:
        return {}
    space: Dict = {}
    for key, payload in entries:
        if payload is None:
            space[key] = _TRACE_INELIGIBLE
            continue
        (code_bytes, sites, consts, head, shape, loop,
         generation, interval) = payload
        code = marshal.loads(code_bytes)
        namespace = _trace_namespace(tuple(sites))
        namespace.update(consts)
        exec(code, namespace)
        space[key] = CompiledTrace(
            namespace["_jit_trace"], head, tuple(tuple(b) for b in shape),
            loop, generation, "<packed>", code=code, sites=tuple(sites),
            consts=dict(consts), metrics_interval=interval,
        )
    return space


class TraceJit:
    """Trace selection and compilation engine for one VM.

    The dispatch loop bumps per-head heat on every *chained* arrival (a
    block reached through a ``_chain_links`` successor reference — the
    population traces are drawn from); at the threshold it calls
    :meth:`consider`, which walks the recorded links into a shape,
    adopts a sibling's compilation from the shared space if one exists,
    or compiles fresh.  Installed closures live in ``self.traces``
    (head pc -> closure), probed by the dispatch loop before any block
    work; ``invalidate`` — chained from ``BlockJit.on_invalidate`` —
    clears them in place on self-modifying writes.
    """

    def __init__(
        self,
        interp,
        engine,
        generation: Optional[Callable[[], int]] = None,
        threshold: Optional[int] = None,
        max_blocks: int = DEFAULT_MAX_TRACE_BLOCKS,
        shared_space: Optional[Dict] = None,
        metrics: Optional[MetricsRegistry] = None,
        metrics_interval: int = 32,
    ) -> None:
        self.interp = interp
        self.engine = engine  # the BlockJit whose blocks/epoch we track
        self.threshold = max(
            1, threshold if threshold is not None else DEFAULT_TRACE_THRESHOLD
        )
        self.max_blocks = max(1, max_blocks)
        self.metrics_interval = metrics_interval
        self._generation = generation if generation is not None else (lambda: 0)
        #: head pc -> trace closure; probed by the dispatch loop.
        self.traces: Dict[int, Callable] = {}
        self.entries: Dict[int, CompiledTrace] = {}
        #: head pc -> chained-arrival count since the last attempt.
        self.heat: Dict[int, int] = {}
        self._failed: set = set()  # (generation, head)
        self._attempts: Dict[Tuple[int, int], int] = {}
        self.shared = shared_space
        self.metrics = metrics if metrics is not None else MetricsRegistry("tracejit")
        self.profiler = prof.active()
        #: VM hooks for the protocol event stream (trace_install /
        #: trace_deinstall); left None when no tracer is listening.
        self.on_install: Optional[Callable[[CompiledTrace], None]] = None
        self.on_deinstall: Optional[Callable[[int, int], None]] = None

    # -- selection ---------------------------------------------------------

    def _select(self, head: int, links: Dict[int, list]):
        """Walk the chain links from ``head`` into a trace shape.

        Follows the direct successor-entry references the dispatch loop
        built (``entry[4]``), collecting (pc, count, recorded next) per
        block.  Stops at the block cap, an unchained or unstable exit,
        a syscall/halt terminator, or a revisit — a revisit of the head
        closes a *loop* trace (the hot case: the whole loop body becomes
        one closure that only exits on a guard miss or the budget).
        """
        blocks = self.engine.blocks
        shape: List[Tuple[int, int, Optional[int]]] = []
        seen: set = set()
        pc = head
        entry = links.get(pc)
        loop = False
        while entry is not None and len(shape) < self.max_blocks:
            count = entry[1]
            compiled = blocks.get((pc, count))
            if compiled is None or compiled.exit_op in (Op.INT, Op.HLT):
                break
            nxt = entry[2]
            succ = entry[4]
            if nxt is None or succ is None:
                shape.append((pc, count, None))
                break
            if nxt == head:
                shape.append((pc, count, nxt))
                loop = True
                break
            if nxt in seen or nxt == pc:
                shape.append((pc, count, None))
                break
            shape.append((pc, count, nxt))
            seen.add(pc)
            pc = nxt
            entry = succ
        if loop:
            if not shape:
                return None, False
        elif len(shape) < 2:
            return None, False
        return tuple(shape), loop

    def consider(self, head: int, links: Dict[int, list]) -> Optional[Callable]:
        """Attempt trace formation at ``head``; returns the closure.

        Retries are bounded: a head whose chain stays too short for
        :data:`MAX_SELECT_ATTEMPTS` samples, or whose shape fails
        eligibility, is written off for the current generation.
        """
        generation = self._generation()
        fkey = (generation, head)
        if fkey in self._failed:
            return None
        attempts = self._attempts.get(fkey, 0) + 1
        self._attempts[fkey] = attempts
        if attempts > MAX_SELECT_ATTEMPTS:
            self._failed.add(fkey)
            self.metrics.bump("trace.select_exhausted")
            return None
        shape, loop = self._select(head, links)
        if shape is None:
            self.metrics.bump("trace.select_short")
            return None

        shared_key = None
        if self.shared is not None:
            shared_key = (generation, loop, shape)
            cached = self.shared.get(shared_key)
            if cached is _TRACE_INELIGIBLE:
                self._failed.add(fkey)
                self.metrics.bump("trace.ineligible_shared")
                return None
            if cached is not None:
                self.metrics.bump("trace.shared_hits")
                return self._install(cached)

        started = time.perf_counter_ns()
        try:
            trace = compile_trace(
                self.interp, shape, loop, generation,
                metrics_interval=self.metrics_interval,
            )
        except Ineligible:
            self.profiler.add("jit.trace.compile", time.perf_counter_ns() - started)
            self._failed.add(fkey)
            self.metrics.bump("trace.ineligible")
            if shared_key is not None:
                self.shared[shared_key] = _TRACE_INELIGIBLE
            return None
        elapsed_ns = time.perf_counter_ns() - started
        self.profiler.add("jit.trace.compile", elapsed_ns)
        self.metrics.bump("trace.compiles")
        self.metrics.bump("trace.compiled_blocks", len(shape))
        self.metrics.observe("trace.compile.us", elapsed_ns / 1e3, COMPILE_TIME_BUCKETS)
        if shared_key is not None:
            self.shared[shared_key] = trace
        return self._install(trace)

    def _install(self, trace: CompiledTrace) -> Callable:
        self.traces[trace.head] = trace.fn
        self.entries[trace.head] = trace
        self.metrics.bump("trace.installs")
        if self.on_install is not None:
            self.on_install(trace)
        return trace.fn

    def deinstall(self, head: int) -> None:
        """Drop one trace whose entry guard rejected (stale generation
        or a dirty pending-SMC set at entry); heat restarts so a trace
        can re-form against the current guest bytes."""
        trace = self.entries.pop(head, None)
        self.traces.pop(head, None)
        self.heat[head] = 0
        self.metrics.bump("trace.deinstalls")
        if trace is not None and self.on_deinstall is not None:
            self.on_deinstall(head, trace.blocks)

    def invalidate(self) -> None:
        """Self-modifying code: drop every installed trace, in place —
        the dispatch loop aliases ``self.traces``."""
        if not self.traces and not self._failed and not self.heat:
            return
        self.metrics.bump("trace.invalidations")
        self.traces.clear()
        self.entries.clear()
        self.heat.clear()
        self._attempts.clear()

    # -- introspection ------------------------------------------------------

    def source_for(self, head: int) -> Optional[str]:
        """The generated source of an installed trace, always.

        Traces adopted from a pack carry the ``"<packed>"`` placeholder;
        codegen is deterministic within a generation, so the source is
        regenerated bit-exactly from the shape (the same contract as
        ``BlockJit.source_for``)."""
        trace = self.entries.get(head)
        if trace is None:
            return None
        if trace.source == "<packed>":
            rebuilt = compile_trace(
                self.interp, trace.shape, trace.loop, trace.generation,
                metrics_interval=trace.metrics_interval,
            )
            trace.source = rebuilt.source
        return trace.source

    def check_consistency(self) -> list:
        """Audit the engine's maps; returns Finding violations.

        The dispatch loop assumes ``traces`` and ``entries`` are views
        of one key set with ``traces[h] is entries[h].fn``, every trace
        stamped with its own head, and no installed trace from a future
        generation (entry guards make *past* generations inert, but a
        future stamp means the generation counter ran backwards)."""
        from repro.verify.findings import Finding, Severity

        findings = []

        def err(code: str, message: str) -> None:
            findings.append(
                Finding(
                    analyzer="protocol", severity=Severity.ERROR,
                    code=code, message=message, stage="tracejit",
                )
            )

        current = self._generation()
        for head in self.traces.keys() | self.entries.keys():
            fn = self.traces.get(head)
            trace = self.entries.get(head)
            if fn is None or trace is None:
                err(
                    "trace-space-divergence",
                    f"head {head:#x} present in "
                    f"{'traces' if fn is not None else 'entries'} only",
                )
                continue
            if trace.fn is not fn:
                err("trace-closure-mismatch",
                    f"traces[{head:#x}] is not entries[{head:#x}].fn")
            if trace.head != head:
                err("trace-key-mismatch",
                    f"entries[{head:#x}] is stamped {trace.head:#x}")
            if trace.generation > current:
                err("trace-future-generation",
                    f"trace at {head:#x} stamped generation "
                    f"{trace.generation} > current {current}")
        for generation, head in self._failed:
            if head in self.traces and generation == current:
                err("trace-failed-yet-installed",
                    f"head {head:#x} both failed and installed")
        return findings
