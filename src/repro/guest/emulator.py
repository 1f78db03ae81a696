"""Authoritative guest functional emulator.

This is the execution core of DARCO's *x86 component*: it executes the
unmodified guest binary directly (decode-and-execute, no translation) and
therefore holds the authoritative architectural and memory state the
co-designed component is validated against (paper §V).

It is implemented independently from the TOL's decode-to-IR path on purpose:
a translation bug cannot hide by being mirrored here.  The run loops execute
compiled basic blocks (:mod:`repro.guest.blocks`) whose flag semantics come
from the same :mod:`repro.guest.semantics` tables as the handlers below;
:meth:`step` is the per-instruction reference path they are checked against.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Dict, Optional

from repro.guest import semantics as sem
from repro.guest.blocks import Block, form_block
from repro.guest.encoding import decode_instr
from repro.guest.isa import GuestInstr, Imm, Mem, Reg, s32, u32
from repro.guest.memory import PagedMemory
from repro.guest.program import GuestProgram
from repro.guest.state import GuestState
from repro.guest.syscalls import GuestOS


_UNFORMED = object()


class EmulationError(Exception):
    """Raised on conditions the guest ISA leaves undefined (bad opcode...)."""


class GuestEmulator:
    """Decode-and-execute guest emulator with authoritative state."""

    def __init__(self, program: GuestProgram,
                 os: Optional[GuestOS] = None):
        self.program = program
        self.os = os if os is not None else GuestOS()
        self.memory = PagedMemory()
        program.load_into(self.memory)
        self.state = GuestState()
        self.state.eip = program.entry
        self.state.set("ESP", program.stack_top)
        self.icount = 0
        self.branch_count = 0
        self.bb_count = 0
        self.class_counts: Counter = Counter()
        self._decode_cache: Dict[int, GuestInstr] = {}
        #: Compiled blocks by entry EIP (None: that EIP is stepped).
        self._blocks: Dict[int, Optional[Block]] = {}
        #: EIPs stepped once; a block forms at its second entry.
        self._entered: set = set()

    # -- fetch ---------------------------------------------------------------

    def fetch(self, addr: int) -> GuestInstr:
        instr = self._decode_cache.get(addr)
        if instr is None:
            instr = decode_instr(self.memory.read_u8, addr)
            self._decode_cache[addr] = instr
        return instr

    @property
    def compiled_blocks(self) -> int:
        """Blocks compiled so far (0: every instruction ran on step())."""
        return sum(block is not None for block in self._blocks.values())

    @property
    def halted(self) -> bool:
        return self.os.exited

    def current_instr(self) -> GuestInstr:
        return self.fetch(self.state.eip)

    # -- run loops -----------------------------------------------------------

    def step(self) -> GuestInstr:
        """Execute exactly one guest instruction (including syscalls)."""
        instr = self.fetch(self.state.eip)
        self._execute(instr)
        self.icount += 1
        self.class_counts[instr.spec.klass] += 1
        if instr.is_branch:
            self.branch_count += 1
            self.bb_count += 1
        return instr

    def run(self, max_steps: Optional[int] = None) -> int:
        """Run until the program exits (or ``max_steps``); returns icount."""
        self._run_blocks(None if max_steps is None
                         else self.icount + max_steps)
        return self.icount

    def run_to_icount(self, target: int) -> None:
        """Advance until exactly ``target`` instructions have retired.

        This is how the x86 component catches up to the co-designed
        component's execution point during synchronization.
        """
        if target < self.icount:
            raise EmulationError(
                f"cannot run backwards: at {self.icount}, asked {target}")
        self._run_blocks(target)
        if self.icount != target and not self.halted:
            raise EmulationError("failed to reach synchronization point")

    def _run_blocks(self, stop: Optional[int]) -> None:
        """Retire instructions until the program exits or ``icount``
        reaches ``stop``: whole compiled blocks (:mod:`repro.guest.blocks`)
        where they fit, :meth:`step` otherwise.  An EIP's first entry is
        stepped (straight-line code that runs once never pays for a
        compile); a block that would pass ``stop`` is stepped instead, so
        synchronization points stay exact.

        EIP and the retirement counters live in locals between steps and
        are written back before every :meth:`step` and on exit, even by
        an exception (only a block's first instruction can raise).
        """
        state, memory = self.state, self.memory
        limit = math.inf if stop is None else stop
        # Fetched per call, never captured by a block: checkpoint resume
        # replaces the state lists.
        args = (state.gpr, state.fpr, state.vr, state.flags,
                memory.read_u32, memory.write_u32, memory.read_f64,
                memory.write_f64, memory.read_vec, memory.write_vec)
        blocks, entered = self._blocks, self._entered
        ran = []  # blocks run since the counters were last settled
        eip, icount = state.eip, self.icount
        try:
            while icount < limit and not self.halted:
                block = blocks.get(eip, _UNFORMED)
                if block is _UNFORMED:
                    if eip in entered:   # second entry: worth compiling
                        block = blocks[eip] = form_block(self.fetch, eip)
                    else:                # code that may run only once
                        entered.add(eip)
                        block = None
                if block is not None and icount + block.length <= limit:
                    eip = block.run(*args)
                    icount += block.length
                    if not block.hits:
                        ran.append(block)
                    block.hits += 1
                    continue
                self._settle(ran, eip, icount)
                # Stepped: an unblockable instruction, or the straight-line
                # prefix of a block that would pass the stop point.
                for _ in range(1 if block is None else limit - icount):
                    self.step()
                    eip, icount = state.eip, self.icount
        finally:
            self._settle(ran, eip, icount)

    def _settle(self, ran, eip: int, icount: int) -> None:
        """Write back EIP, icount and the counters of the blocks ``ran``
        (in first-run order, so ``class_counts`` keys are inserted in the
        order :meth:`step` would insert them)."""
        self.state.eip = eip
        self.icount = icount
        counts = self.class_counts
        for block in ran:
            hits = block.hits
            for klass, n in block.classes:
                counts[klass] += n * hits
            if block.branches:
                self.branch_count += hits
                self.bb_count += hits
            block.hits = 0
        ran.clear()

    # -- operand helpers -----------------------------------------------------

    def effective_addr(self, mem: Mem) -> int:
        addr = mem.disp
        if mem.base is not None:
            addr += self.state.gpr[Reg(mem.base).index]
        if mem.index is not None:
            addr += self.state.gpr[Reg(mem.index).index] * mem.scale
        return u32(addr)

    def _read_int(self, operand) -> int:
        if isinstance(operand, Reg):
            return self.state.gpr[operand.index]
        if isinstance(operand, Imm):
            return operand.u32
        if isinstance(operand, Mem):
            return self.memory.read_u32(self.effective_addr(operand))
        raise EmulationError(f"not an integer operand: {operand!r}")

    def _write_int(self, operand, value: int) -> None:
        if isinstance(operand, Reg):
            self.state.gpr[operand.index] = u32(value)
        elif isinstance(operand, Mem):
            self.memory.write_u32(self.effective_addr(operand), u32(value))
        else:
            raise EmulationError(f"not a writable operand: {operand!r}")

    def _set_flags(self, flags: Dict[str, int]) -> None:
        for name, value in flags.items():
            self.state.set(name, value)

    # -- execution -----------------------------------------------------------

    def _execute(self, instr: GuestInstr) -> None:
        handler = _HANDLERS.get(instr.mnemonic)
        if handler is None:
            raise EmulationError(f"unhandled mnemonic {instr.mnemonic}")
        next_eip = handler(self, instr)
        self.state.eip = next_eip if next_eip is not None else instr.next_addr


# ---------------------------------------------------------------------------
# Instruction handlers.  Each returns the next EIP, or None for fall-through.
# Memory effects are ordered before register/flag effects so that a page
# fault leaves the architectural state untouched (restartable instructions).
# ---------------------------------------------------------------------------

_HANDLERS = {}


def _handler(*mnemonics):
    def wrap(fn):
        for m in mnemonics:
            _HANDLERS[m] = fn
        return fn
    return wrap


@_handler("NOP")
def _h_nop(emu, instr):
    return None


@_handler("MOV")
def _h_mov(emu, instr):
    dst, src = instr.operands
    emu._write_int(dst, emu._read_int(src))
    return None


@_handler("LEA")
def _h_lea(emu, instr):
    dst, mem = instr.operands
    emu.state.gpr[dst.index] = emu.effective_addr(mem)
    return None


@_handler("XCHG")
def _h_xchg(emu, instr):
    a, b = instr.operands
    gpr = emu.state.gpr
    gpr[a.index], gpr[b.index] = gpr[b.index], gpr[a.index]
    return None


@_handler("PUSH")
def _h_push(emu, instr):
    value = emu._read_int(instr.operands[0])
    esp = u32(emu.state.get("ESP") - 4)
    emu.memory.write_u32(esp, value)
    emu.state.set("ESP", esp)
    return None


@_handler("POP")
def _h_pop(emu, instr):
    esp = emu.state.get("ESP")
    value = emu.memory.read_u32(esp)
    reg = instr.operands[0]
    if reg.index == 4:
        # POP ESP: the loaded value becomes the stack pointer; the
        # post-increment is not architecturally visible (x86 semantics).
        emu.state.set("ESP", value)
        return None
    emu.state.gpr[reg.index] = value
    emu.state.set("ESP", u32(esp + 4))
    return None


@_handler("ADD")
def _h_add(emu, instr):
    dst, src = instr.operands
    res, flags = sem.add32(emu._read_int(dst), emu._read_int(src))
    emu._write_int(dst, res)
    emu._set_flags(flags)
    return None


@_handler("SUB")
def _h_sub(emu, instr):
    dst, src = instr.operands
    res, flags = sem.sub32(emu._read_int(dst), emu._read_int(src))
    emu._write_int(dst, res)
    emu._set_flags(flags)
    return None


@_handler("CMP")
def _h_cmp(emu, instr):
    dst, src = instr.operands
    _, flags = sem.sub32(emu._read_int(dst), emu._read_int(src))
    emu._set_flags(flags)
    return None


@_handler("AND", "OR", "XOR")
def _h_logic(emu, instr):
    dst, src = instr.operands
    a, b = emu._read_int(dst), emu._read_int(src)
    if instr.mnemonic == "AND":
        raw = a & b
    elif instr.mnemonic == "OR":
        raw = a | b
    else:
        raw = a ^ b
    res, flags = sem.logic32(raw)
    emu._write_int(dst, res)
    emu._set_flags(flags)
    return None


@_handler("TEST")
def _h_test(emu, instr):
    a, b = (emu._read_int(op) for op in instr.operands)
    _, flags = sem.logic32(a & b)
    emu._set_flags(flags)
    return None


@_handler("INC")
def _h_inc(emu, instr):
    dst = instr.operands[0]
    res, flags = sem.inc32(emu._read_int(dst))
    emu._write_int(dst, res)
    emu._set_flags(flags)
    return None


@_handler("DEC")
def _h_dec(emu, instr):
    dst = instr.operands[0]
    res, flags = sem.dec32(emu._read_int(dst))
    emu._write_int(dst, res)
    emu._set_flags(flags)
    return None


@_handler("NEG")
def _h_neg(emu, instr):
    dst = instr.operands[0]
    res, flags = sem.neg32(emu._read_int(dst))
    emu._write_int(dst, res)
    emu._set_flags(flags)
    return None


@_handler("NOT")
def _h_not(emu, instr):
    dst = instr.operands[0]
    emu._write_int(dst, ~emu._read_int(dst))
    return None


@_handler("SHL", "SHR", "SAR")
def _h_shift(emu, instr):
    dst, count_op = instr.operands
    fn = {"SHL": sem.shl32, "SHR": sem.shr32, "SAR": sem.sar32}[instr.mnemonic]
    res, flags = fn(emu._read_int(dst), emu._read_int(count_op))
    emu._write_int(dst, res)
    emu._set_flags(flags)
    return None


@_handler("IMUL")
def _h_imul(emu, instr):
    dst, src = instr.operands
    res, flags = sem.imul32(emu._read_int(dst), emu._read_int(src))
    emu._write_int(dst, res)
    emu._set_flags(flags)
    return None


@_handler("IDIV")
def _h_idiv(emu, instr):
    divisor = emu._read_int(instr.operands[0])
    quotient, remainder = sem.idiv32(emu.state.get("EAX"), divisor)
    emu.state.set("EAX", quotient)
    emu.state.set("EDX", remainder)
    _, flags = sem.logic32(quotient)
    emu._set_flags(flags)
    return None


@_handler("JMP")
def _h_jmp(emu, instr):
    return emu._read_int(instr.operands[0])


@_handler("JMPI")
def _h_jmpi(emu, instr):
    return emu._read_int(instr.operands[0])


@_handler("CALL", "CALLI")
def _h_call(emu, instr):
    target = emu._read_int(instr.operands[0])
    esp = u32(emu.state.get("ESP") - 4)
    emu.memory.write_u32(esp, instr.next_addr)
    emu.state.set("ESP", esp)
    return target


@_handler("RET")
def _h_ret(emu, instr):
    esp = emu.state.get("ESP")
    target = emu.memory.read_u32(esp)
    emu.state.set("ESP", u32(esp + 4))
    return target


def _h_jcc(emu, instr):
    cc = instr.mnemonic[1:]
    zf, sf, cf, of = (emu.state.get(n) for n in ("ZF", "SF", "CF", "OF"))
    if sem.CONDITION_EVAL[cc](zf, sf, cf, of):
        return emu._read_int(instr.operands[0])
    return None


for _cc in sem.CONDITION_EVAL:
    _HANDLERS[f"J{_cc}"] = _h_jcc


@_handler("FLD")
def _h_fld(emu, instr):
    freg, mem = instr.operands
    emu.state.fpr[freg.index] = emu.memory.read_f64(emu.effective_addr(mem))
    return None


@_handler("FST")
def _h_fst(emu, instr):
    mem, freg = instr.operands
    emu.memory.write_f64(emu.effective_addr(mem), emu.state.fpr[freg.index])
    return None


@_handler("FMOV")
def _h_fmov(emu, instr):
    dst, src = instr.operands
    emu.state.fpr[dst.index] = emu.state.fpr[src.index]
    return None


@_handler("FADD", "FSUB", "FMUL", "FDIV")
def _h_fbin(emu, instr):
    dst, src = instr.operands
    a, b = emu.state.fpr[dst.index], emu.state.fpr[src.index]
    if instr.mnemonic == "FADD":
        res = a + b
    elif instr.mnemonic == "FSUB":
        res = a - b
    elif instr.mnemonic == "FMUL":
        res = a * b
    else:
        res = sem.fdiv64(a, b)
    emu.state.fpr[dst.index] = res
    return None


@_handler("FCMP")
def _h_fcmp(emu, instr):
    a, b = (emu.state.fpr[op.index] for op in instr.operands)
    emu._set_flags(sem.fcmp(a, b))
    return None


@_handler("FSIN")
def _h_fsin(emu, instr):
    freg = instr.operands[0]
    emu.state.fpr[freg.index] = sem.gisa_sin(emu.state.fpr[freg.index])
    return None


@_handler("FCOS")
def _h_fcos(emu, instr):
    freg = instr.operands[0]
    emu.state.fpr[freg.index] = sem.gisa_cos(emu.state.fpr[freg.index])
    return None


@_handler("FSQRT")
def _h_fsqrt(emu, instr):
    freg = instr.operands[0]
    emu.state.fpr[freg.index] = sem.gisa_sqrt(emu.state.fpr[freg.index])
    return None


@_handler("FABS")
def _h_fabs(emu, instr):
    freg = instr.operands[0]
    emu.state.fpr[freg.index] = abs(emu.state.fpr[freg.index])
    return None


@_handler("FNEG")
def _h_fneg(emu, instr):
    freg = instr.operands[0]
    emu.state.fpr[freg.index] = -emu.state.fpr[freg.index]
    return None


@_handler("FLDI")
def _h_fldi(emu, instr):
    freg, imm = instr.operands
    emu.state.fpr[freg.index] = float(s32(imm.u32))
    return None


@_handler("CVTIF")
def _h_cvtif(emu, instr):
    freg, reg = instr.operands
    emu.state.fpr[freg.index] = float(s32(emu.state.gpr[reg.index]))
    return None


@_handler("CVTFI")
def _h_cvtfi(emu, instr):
    reg, freg = instr.operands
    emu.state.gpr[reg.index] = sem.ftrunc32(emu.state.fpr[freg.index])
    return None


@_handler("VLD")
def _h_vld(emu, instr):
    vreg, mem = instr.operands
    emu.state.vr[vreg.index] = emu.memory.read_vec(emu.effective_addr(mem))
    return None


@_handler("VST")
def _h_vst(emu, instr):
    mem, vreg = instr.operands
    emu.memory.write_vec(emu.effective_addr(mem), emu.state.vr[vreg.index])
    return None


@_handler("VADD", "VSUB", "VMUL")
def _h_vbin(emu, instr):
    dst, src = instr.operands
    a, b = emu.state.vr[dst.index], emu.state.vr[src.index]
    if instr.mnemonic == "VADD":
        res = [u32(x + y) for x, y in zip(a, b)]
    elif instr.mnemonic == "VSUB":
        res = [u32(x - y) for x, y in zip(a, b)]
    else:
        res = [u32(s32(x) * s32(y)) for x, y in zip(a, b)]
    emu.state.vr[dst.index] = res
    return None


@_handler("VSPLAT")
def _h_vsplat(emu, instr):
    vreg, reg = instr.operands
    value = emu.state.gpr[reg.index]
    emu.state.vr[vreg.index] = [value] * 4
    return None


@_handler("VMOV")
def _h_vmov(emu, instr):
    dst, src = instr.operands
    emu.state.vr[dst.index] = list(emu.state.vr[src.index])
    return None


@_handler("REP_MOVSD")
def _h_rep_movsd(emu, instr):
    """Copy ECX dwords from [ESI] to [EDI]; restartable per element."""
    state = emu.state
    while state.get("ECX") != 0:
        value = emu.memory.read_u32(state.get("ESI"))
        emu.memory.write_u32(state.get("EDI"), value)
        state.set("ESI", u32(state.get("ESI") + 4))
        state.set("EDI", u32(state.get("EDI") + 4))
        state.set("ECX", u32(state.get("ECX") - 1))
    return None


@_handler("REP_STOSD")
def _h_rep_stosd(emu, instr):
    """Store EAX into ECX dwords at [EDI]; restartable per element."""
    state = emu.state
    while state.get("ECX") != 0:
        emu.memory.write_u32(state.get("EDI"), state.get("EAX"))
        state.set("EDI", u32(state.get("EDI") + 4))
        state.set("ECX", u32(state.get("ECX") - 1))
    return None


@_handler("SYSCALL")
def _h_syscall(emu, instr):
    emu.os.execute(emu.state, emu.memory)
    return None


@_handler("HLT")
def _h_hlt(emu, instr):
    emu.os.exit_code = emu.state.get("EAX")
    return instr.addr  # stay put; halted property takes over
