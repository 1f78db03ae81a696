"""Encoder/decoder round-trip tests for the guest ISA."""

import pytest
from hypothesis import given, strategies as st

from repro.guest.encoding import EncodingError, decode_instr, encode_instr
from repro.guest.isa import (
    FPR_NAMES, GPR_NAMES, INSN_SPECS, MNEMONICS, VR_NAMES,
    FReg, GuestInstr, Imm, Mem, Reg, VReg,
)


def roundtrip(instr: GuestInstr, addr: int = 0x1000) -> GuestInstr:
    blob = encode_instr(instr)
    decoded = decode_instr(lambda a: blob[a - addr], addr)
    assert decoded.length == len(blob)
    assert decoded.addr == addr
    return decoded


def test_simple_reg_reg():
    instr = GuestInstr("ADD", (Reg("EAX"), Reg("EBX")))
    decoded = roundtrip(instr)
    assert decoded.mnemonic == "ADD"
    assert decoded.operands == (Reg("EAX"), Reg("EBX"))


def test_imm_operand():
    decoded = roundtrip(GuestInstr("MOV", (Reg("ECX"), Imm(0xDEADBEEF))))
    assert decoded.operands[1].u32 == 0xDEADBEEF


def test_mem_operand_full():
    mem = Mem(base="EBP", index="ESI", scale=4, disp=0x40)
    decoded = roundtrip(GuestInstr("MOV", (Reg("EAX"), mem)))
    assert decoded.operands[1] == mem


def test_mem_operand_disp_only():
    mem = Mem(disp=0x2000)
    decoded = roundtrip(GuestInstr("MOV", (mem, Reg("EAX"))))
    assert decoded.operands[0] == mem


def test_zero_operand_instrs():
    for m in ("NOP", "RET", "SYSCALL", "REP_MOVSD"):
        decoded = roundtrip(GuestInstr(m, ()))
        assert decoded.mnemonic == m
        assert decoded.operands == ()


def test_variable_lengths_are_cisc_like():
    nop = encode_instr(GuestInstr("NOP", ()))
    movmi = encode_instr(GuestInstr(
        "MOV", (Mem(base="EBP", index="ESI", scale=2, disp=8), Imm(7))))
    assert len(nop) == 1
    assert len(movmi) >= 10  # opcode + mem + imm


def test_operand_kind_checked():
    with pytest.raises(EncodingError):
        encode_instr(GuestInstr("LEA", (Reg("EAX"), Reg("EBX"))))
    with pytest.raises(EncodingError):
        encode_instr(GuestInstr("ADD", (Reg("EAX"),)))


def test_bad_opcode_rejected():
    with pytest.raises(EncodingError):
        decode_instr(lambda a: 0xFF, 0)


def test_fp_and_vector_operands():
    decoded = roundtrip(GuestInstr("FADD", (FReg("F0"), FReg("F3"))))
    assert decoded.operands == (FReg("F0"), FReg("F3"))
    decoded = roundtrip(GuestInstr("VSPLAT", (VReg("V2"), Reg("EDX"))))
    assert decoded.operands == (VReg("V2"), Reg("EDX"))


# -- property-based round trip over the whole instruction space -------------

_regs = st.sampled_from(GPR_NAMES).map(Reg)
_fregs = st.sampled_from(FPR_NAMES).map(FReg)
_vregs = st.sampled_from(VR_NAMES).map(VReg)
_imms = st.integers(min_value=0, max_value=0xFFFFFFFF).map(Imm)
_mems = st.builds(
    Mem,
    base=st.one_of(st.none(), st.sampled_from(GPR_NAMES)),
    index=st.one_of(st.none(), st.sampled_from(GPR_NAMES)),
    scale=st.sampled_from([1, 2, 4, 8]),
    disp=st.integers(min_value=0, max_value=0xFFFFFFFF),
)

_KIND_STRATEGIES = {
    "r": _regs,
    "f": _fregs,
    "v": _vregs,
    "i": _imms,
    "m": _mems,
    "rm": st.one_of(_regs, _mems),
    "ri": st.one_of(_regs, _imms),
    "rmi": st.one_of(_regs, _mems, _imms),
}


@st.composite
def _instrs(draw):
    mnemonic = draw(st.sampled_from(MNEMONICS))
    spec = INSN_SPECS[mnemonic]
    operands = tuple(draw(_KIND_STRATEGIES[k]) for k in spec.operands)
    return GuestInstr(mnemonic, operands)


@given(_instrs())
def test_roundtrip_property(instr):
    decoded = roundtrip(instr, addr=0x4321)
    assert decoded.mnemonic == instr.mnemonic
    assert decoded.operands == instr.operands


@pytest.mark.parametrize("instr", [
    GuestInstr("MOV", (Mem(base="EBX", index="ESI", scale=8, disp=-4),
                       Imm(0x12345678))),
    GuestInstr("VLD", (VReg("V3"), Mem(index="EDI", scale=2, disp=9))),
    GuestInstr("FADD", (FReg("F1"), FReg("F7"))),
])
def test_decode_reads_in_order_and_faults_at_first_missing_byte(instr):
    from repro.guest.memory import PageFault

    blob = encode_instr(instr)
    for missing in range(len(blob)):
        reads = []

        def read_byte(addr):
            reads.append(addr)
            if addr - 0x1000 >= missing:
                raise PageFault(addr)
            return blob[addr - 0x1000]

        with pytest.raises(PageFault) as excinfo:
            decode_instr(read_byte, 0x1000)
        assert excinfo.value.addr == 0x1000 + missing
        assert reads == list(range(0x1000, 0x1000 + missing + 1))


def test_bad_operand_tag_rejected():
    blob = bytes([MNEMONICS.index("NEG"), 9, 0])
    with pytest.raises(EncodingError, match="bad operand tag 0x9"):
        decode_instr(lambda a: blob[a - 0x1000], 0x1000)
