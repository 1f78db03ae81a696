"""Differential tests: the reference emulator's compiled blocks against its
per-instruction stepper.

``GuestEmulator.run``/``run_to_icount`` execute compiled basic blocks
(:mod:`repro.guest.blocks`); ``step()`` is the reference path.  Every
comparison is over :func:`repro.fuzz.oracle.reference_fingerprint`: state
(floats by bit pattern), every page, the dirty set, all four counters, the
OS and stdout.
"""

import random
import struct

import pytest

from repro.fuzz.oracle import reference_fingerprint, reference_paths
from repro.guest.assembler import (
    EAX, EBX, ECX, EDX, ESP, F0, F1, F2, V0, V1, Assembler, M,
)
from repro.guest.blocks import _EMIT, STEP_ONLY, block_source
from repro.guest.emulator import EmulationError, GuestEmulator
from repro.guest.encoding import EncodingError, encode_instr
from repro.guest.isa import INSN_SPECS, OPCODE_OF, GuestInstr, Imm, Reg
from repro.guest.program import GuestProgram, pack_f64s, pack_u32s
from repro.guest.syscalls import GuestOS
from repro.snapshot.minimize import decode_program_instrs
from repro.workloads import all_workloads

SCALE = 0.05


def stepped(program, stdin=b"", limit=None):
    """The reference: a plain ``step()`` loop (to ``limit`` retirements)."""
    emu = GuestEmulator(program, os=GuestOS(stdin=stdin))
    while not emu.halted and (limit is None or emu.icount < limit):
        emu.step()
    return emu


def chunked(program, seed, cap, stdin=b""):
    """``run_to_icount`` in seeded random chunks (up to about ``cap``
    retirements); a chunk that stops at a SYSCALL is followed by a single
    ``step()``, the way the controller executes a synchronized system
    call."""
    rng = random.Random(seed)
    emu = GuestEmulator(program, os=GuestOS(stdin=stdin))
    while not emu.halted and emu.icount < cap:
        emu.run_to_icount(emu.icount + rng.choice(
            (1, 2, 3, rng.randint(1, 50), rng.randint(1, 5000))))
        if not emu.halted and emu.current_instr().mnemonic == "SYSCALL":
            emu.step()
    return emu


def raw_program(*parts):
    """A program from encoded instructions and raw byte strings."""
    code = b"".join(part if isinstance(part, bytes) else encode_instr(part)
                    for part in parts)
    return GuestProgram(code=code)


def assert_same_failure(program, exc_type):
    """Blocks and stepper raise the same exception at the same point."""
    blocks = GuestEmulator(program)
    step = GuestEmulator(program)
    with pytest.raises(exc_type) as blocks_exc:
        blocks.run(max_steps=1000)
    with pytest.raises(exc_type) as step_exc:
        while True:
            step.step()
    assert str(blocks_exc.value) == str(step_exc.value)
    assert blocks.icount == step.icount > 0
    assert reference_fingerprint(blocks) == reference_fingerprint(step)
    return blocks


@pytest.mark.parametrize("workload", all_workloads(), ids=lambda w: w.name)
def test_every_workload_matches_stepper(workload):
    program = workload.program(scale=SCALE)
    reference = stepped(program)
    assert reference.os.exit_code == 0
    cap = reference.icount + 1   # a miscompile must not hang the test
    whole = GuestEmulator(program)
    whole.run(max_steps=cap)
    assert reference_fingerprint(whole) == reference_fingerprint(reference)
    parts = chunked(program, seed=len(workload.name), cap=cap)
    assert reference_fingerprint(parts) == reference_fingerprint(reference)


def test_run_max_steps_stops_exactly_inside_blocks():
    program = all_workloads()[0].program(scale=SCALE)
    for limit in (1, 7, 100, 1001):
        emu = GuestEmulator(program)
        assert emu.run(max_steps=limit) == limit
        assert (reference_fingerprint(emu)
                == reference_fingerprint(stepped(program, limit=limit)))


def test_sync_target_inside_block():
    asm = Assembler()
    asm.mov(EBX, 5)
    asm.label("top")
    for k in range(12):  # one long block ending at the JNE
        asm.add(EAX, k + 1)
        asm.mov(M(disp=0x9000 + 4 * k), EAX)
    asm.dec(EBX)
    asm.jne("top")
    asm.exit(0)
    program = asm.program()
    for target in range(1, 30):
        emu = GuestEmulator(program)
        emu.run_to_icount(target)
        assert emu.icount == target
        assert (reference_fingerprint(emu)
                == reference_fingerprint(stepped(program, limit=target)))
        emu.run(max_steps=10_000)  # resumes mid-block, then to the exit
        assert (reference_fingerprint(emu)
                == reference_fingerprint(stepped(program)))


def test_undecodable_bytes_raise_at_same_icount():
    program = raw_program(
        GuestInstr("MOV", (Reg("EAX"), Imm(7))),
        GuestInstr("ADD", (Reg("EAX"), Imm(1))),
        b"\xff\xff")
    emu = assert_same_failure(program, EncodingError)
    assert emu.icount == 2 and emu.state.gpr[0] == 8


def test_wrong_kind_operand_raises_at_same_icount():
    mov_to_imm = (bytes([OPCODE_OF["MOV"], 3]) + struct.pack("<I", 5)
                  + bytes([0, 0]))  # MOV $5, EAX
    program = raw_program(
        GuestInstr("MOV", (Reg("EAX"), Imm(7))),
        GuestInstr("CMP", (Reg("EAX"), Imm(7))),
        mov_to_imm)
    emu = assert_same_failure(program, EmulationError)
    assert emu.icount == 2 and emu.state.flags[0] == 1


def test_wrong_kind_operand_that_executes_stays_on_step():
    """``SHL EAX, ECX`` (count from a register, not an immediate) is
    outside the spec but the stepper executes it: blocks must leave it to
    step() even on a hot path."""
    def ins(mnemonic, *operands):
        return GuestInstr(mnemonic, operands)
    head = [ins("MOV", Reg("ECX"), Imm(4))]
    shl_eax_ecx = bytes([OPCODE_OF["SHL"], 0, 0, 0, 1])
    loop = [ins("MOV", Reg("EAX"), Imm(1)), shl_eax_ecx,
            ins("ADD", Reg("EBX"), Reg("EAX")), ins("DEC", Reg("ECX"))]
    top = 0x1000 + sum(len(encode_instr(i)) for i in head)
    tail = [ins("JNE", Imm(top)), ins("MOV", Reg("EAX"), Imm(1)),
            ins("SYSCALL")]
    program = raw_program(*head, *loop, *tail)
    emu = GuestEmulator(program)
    emu.run(max_steps=1000)
    assert emu.compiled_blocks
    assert reference_fingerprint(emu) == reference_fingerprint(
        stepped(program))
    assert emu.state.gpr[3] == 2 + 4 + 8 + 16


def test_trig_on_infinity_raises_at_same_icount():
    asm = Assembler()
    asm.mov(EAX, 1)
    asm.cvtif(F1, EAX)      # F1 = 1.0
    asm.fldi(F2, 0)
    asm.mov(ECX, 3)
    asm.label("top")
    asm.add(EBX, 3)
    asm.fsin(F0)            # third pass: floor(inf) -> OverflowError
    asm.fadd(F0, F1)
    asm.fdiv(F1, F2)        # F1: 1.0 -> inf
    asm.dec(ECX)
    asm.jne("top")
    asm.exit(0)
    emu = assert_same_failure(asm.program(), OverflowError)
    assert emu.compiled_blocks
    assert emu.state.gpr[3] == 9


def test_push_and_pop_esp():
    asm = Assembler()
    asm.mov(EBX, 0x7FFF0000)
    asm.push(ESP)           # pushes the pre-decrement ESP
    asm.pop(EAX)
    asm.push(EBX)
    asm.pop(ESP)            # ESP = loaded value, no post-increment
    asm.push(ESP)
    asm.mov(ECX, M(ESP))
    asm.mov(ESP, EAX)
    asm.exit(0)
    program = asm.program()
    emu = GuestEmulator(program)
    emu.run(max_steps=100)
    assert reference_fingerprint(emu) == reference_fingerprint(
        stepped(program))
    assert emu.state.gpr[1] == 0x7FFF0000


def test_fp_vector_and_flag_mix_matches_stepper():
    asm = Assembler()
    asm.data(0x8000, pack_f64s([1.5, -2.25, float("nan"), 0.0]))
    asm.data(0x9000, pack_u32s([1, 2, 0xFFFFFFFF, 0x80000000]))
    asm.mov(ECX, 4)
    asm.label("top")
    asm.fld(F0, M(disp=0x8000))
    asm.fld(F1, M(ECX, disp=0x8000 - 8, scale=1))
    asm.fmul(F0, F1)
    asm.fcmp(F0, F1)
    asm.fst(M(ECX, disp=0x8100, scale=1), F0)
    asm.cvtfi(EDX, F0)
    asm.vld(V0, M(disp=0x9000))
    asm.vsplat(V1, ECX)
    asm.vmul(V0, V1)
    asm.vst(M(disp=0x9100), V0)
    asm.imul(EDX, ECX)
    asm.shl(EDX, 3)
    asm.sar(EDX, 0)
    asm.idiv(ECX)
    asm.neg(EAX)
    asm.dec(ECX)
    asm.jg("top")
    asm.fsqrt(F2)
    asm.exit(0)
    program = asm.program()
    emu = GuestEmulator(program)
    emu.run(max_steps=1000)
    assert reference_fingerprint(emu) == reference_fingerprint(
        stepped(program))


def test_resume_from_checkpoint_mid_run_replaces_state_lists():
    program = next(w for w in all_workloads()
                   if w.name == "433.milc").program(scale=SCALE)
    emu = GuestEmulator(program)
    emu.run_to_icount(3000)
    snap = emu.state.snapshot()
    pages = {p: emu.memory.export_page(p)
             for p in list(emu.memory.present_pages())}
    counters = (emu.icount, emu.branch_count, emu.bb_count,
                dict(emu.class_counts))
    os_state = {k: (bytearray(v) if isinstance(v, bytearray) else v)
                for k, v in vars(emu.os).items()}
    emu.run_to_icount(9000)   # blocks now formed; then rewind
    assert emu.compiled_blocks
    old_gpr = emu.state.gpr
    emu.state.restore(snap)
    assert emu.state.gpr is not old_gpr
    for page, data in pages.items():
        emu.memory.install_page(page, data)
    emu.icount, emu.branch_count, emu.bb_count = counters[:3]
    emu.class_counts.clear()
    emu.class_counts.update(counters[3])
    vars(emu.os).update(os_state)
    reference = stepped(program)
    emu.run(max_steps=reference.icount - emu.icount + 1)
    assert reference_fingerprint(emu) == reference_fingerprint(reference)


def test_reference_paths_agree_and_report_exit():
    program = all_workloads()[0].program(scale=SCALE)
    icount, mismatch = reference_paths(program, b"", 0x5EED, 1_000_000)
    assert mismatch is None
    assert icount == stepped(program).icount


@pytest.fixture
def add_miscompiled(monkeypatch):
    """Plant a block-compiler bug: ADD emitted with SUB's semantics (the
    stepper's add32 was derived at import, so only blocks see it)."""
    from repro.guest import blocks

    monkeypatch.setattr(blocks, "_FUNCTIONS", {})
    wrong = dict(blocks.sem.ALU_OPS, add=blocks.sem.ALU_OPS["sub"])
    monkeypatch.setattr(blocks.sem, "ALU_OPS", wrong)


def _adder():
    asm = Assembler()
    asm.mov(ECX, 3)
    asm.label("top")
    asm.mov(EDX, 1)
    asm.xor(EDX, EDX)
    asm.add(EAX, 5)
    asm.dec(ECX)
    asm.jne("top")
    asm.mov(M(disp=0x9000), EAX)
    asm.exit(0)
    return asm.program()


def test_planted_miscompile_is_an_x86_blocks_finding(add_miscompiled):
    from repro.fuzz.oracle import X86_BLOCKS_LEG, evaluate_candidate

    _, mismatch = reference_paths(_adder(), b"", 0x5EED, 10_000)
    assert mismatch.startswith("blocks and step() differ in")
    assert "pages" in mismatch
    outcome = evaluate_candidate(_adder())
    assert outcome.classification == "finding"
    assert outcome.finding_leg == X86_BLOCKS_LEG
    assert outcome.finding_kind == "x86_blocks"


def test_x86_blocks_finding_minimizes_to_the_miscompiled_add(
        add_miscompiled):
    from repro.snapshot.minimize import minimize_program, oracle_for_reason

    oracle = oracle_for_reason("fuzz_x86_blocks", None)
    result = minimize_program(_adder(), oracle=oracle)
    assert result.instructions < result.original_instructions
    assert any(instr.mnemonic == "ADD"
               for instr in decode_program_instrs(result.program))


def test_every_compilable_mnemonic_has_an_emitter():
    assert set(_EMIT) == set(INSN_SPECS) - STEP_ONLY


def test_dead_flag_writes_are_elided():
    instrs = []
    addr = 0x1000
    for instr in (GuestInstr("ADD", (Reg("EAX"), Imm(1))),
                  GuestInstr("INC", (Reg("ECX"),)),
                  GuestInstr("CMP", (Reg("EAX"), Reg("ECX"))),
                  GuestInstr("JB", (Imm(0x1000),))):
        length = len(encode_instr(instr))
        instrs.append(GuestInstr(instr.mnemonic, instr.operands,
                                 addr=addr, length=length))
        addr += length
    source = block_source(instrs)
    # CMP overwrites every flag ADD and INC write: only CMP's survive.
    for index in range(4):
        assert source.count(f"fl[{index}] =") == 1
    assert "fl[" not in source.split("return")[-1]   # JB reads locals
