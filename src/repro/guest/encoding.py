"""Variable-length byte encoding for guest instructions.

The encoding is deliberately CISC-flavoured: one opcode byte, followed by a
tagged operand stream.  Instruction lengths range from 1 byte (``NOP``,
``RET``) to 13 bytes (memory operand plus a 32-bit immediate), so static code
size and fetch behaviour resemble x86.

Layout::

    opcode:1  (operand)*
    operand := tag:1 payload
    tag 0 -> GPR      payload reg:1
    tag 1 -> FPR      payload reg:1
    tag 2 -> VR       payload reg:1
    tag 3 -> imm32    payload value:4 (little endian)
    tag 4 -> mem      payload mode:1 [base:1] [index:1] disp:4
                      mode bits: 0x01 has_base, 0x02 has_index,
                                 0x0C scale (log2, bits 2-3)
"""

from __future__ import annotations

import struct

from repro.guest.isa import (
    FPR_NAMES, GPR_NAMES, INSN_SPECS, MNEMONICS, OPCODE_OF, VR_NAMES,
    FReg, GuestInstr, Imm, Mem, Reg, VReg,
)

_TAG_REG = 0
_TAG_FREG = 1
_TAG_VREG = 2
_TAG_IMM = 3
_TAG_MEM = 4

_SCALE_TO_LOG = {1: 0, 2: 1, 4: 2, 8: 3}
_LOG_TO_SCALE = {v: k for k, v in _SCALE_TO_LOG.items()}


class EncodingError(Exception):
    """Raised on malformed instruction bytes or unencodable operands."""


def encode_instr(instr: GuestInstr) -> bytes:
    """Encode one guest instruction to bytes (``addr``/``length`` ignored)."""
    if instr.mnemonic not in INSN_SPECS:
        raise EncodingError(f"unknown mnemonic {instr.mnemonic!r}")
    spec = INSN_SPECS[instr.mnemonic]
    if len(instr.operands) != len(spec.operands):
        raise EncodingError(
            f"{instr.mnemonic} expects {len(spec.operands)} operands, "
            f"got {len(instr.operands)}")
    out = bytearray([OPCODE_OF[instr.mnemonic]])
    for operand, kind in zip(instr.operands, spec.operands):
        _check_kind(instr.mnemonic, operand, kind)
        out += _encode_operand(operand)
    return bytes(out)


#: Operand kind (see :class:`~repro.guest.isa.InsnSpec`) -> allowed types.
_KIND_TYPES = {
    "r": (Reg,),
    "f": (FReg,),
    "v": (VReg,),
    "i": (Imm,),
    "m": (Mem,),
    "rm": (Reg, Mem),
    "ri": (Reg, Imm),
    "rmi": (Reg, Mem, Imm),
}


def _check_kind(mnemonic, operand, kind):
    if not isinstance(operand, _KIND_TYPES[kind]):
        raise EncodingError(
            f"{mnemonic}: operand {operand!r} not allowed for kind {kind!r}")


def kinds_match(instr: GuestInstr) -> bool:
    """Do a decoded instruction's operands have the kinds its spec names?

    The decoder accepts any operand tag in any position, so a corrupted
    byte stream can yield e.g. a ``MOV`` to an immediate."""
    return all(isinstance(operand, _KIND_TYPES[kind]) for operand, kind
               in zip(instr.operands, instr.spec.operands))


def _encode_operand(operand) -> bytes:
    if isinstance(operand, Reg):
        return bytes([_TAG_REG, operand.index])
    if isinstance(operand, FReg):
        return bytes([_TAG_FREG, operand.index])
    if isinstance(operand, VReg):
        return bytes([_TAG_VREG, operand.index])
    if isinstance(operand, Imm):
        return bytes([_TAG_IMM]) + struct.pack("<I", operand.u32)
    if isinstance(operand, Mem):
        mode = 0
        body = bytearray()
        if operand.base is not None:
            mode |= 0x01
            body.append(Reg(operand.base).index)
        if operand.index is not None:
            mode |= 0x02
            body.append(Reg(operand.index).index)
        mode |= _SCALE_TO_LOG[operand.scale] << 2
        body += struct.pack("<I", operand.disp & 0xFFFFFFFF)
        return bytes([_TAG_MEM, mode]) + bytes(body)
    raise EncodingError(f"unencodable operand {operand!r}")


def decode_instr(read_byte, addr: int) -> GuestInstr:
    """Decode one instruction at ``addr``.

    ``read_byte(address)`` must return the memory byte at ``address`` (it may
    raise :class:`repro.guest.memory.PageFault`, which propagates so the
    co-designed component can fetch the missing code page).  Bytes are read
    one at a time in address order, so a fault names the first missing
    byte.
    """
    opcode = read_byte(addr)
    if opcode >= len(MNEMONICS):
        raise EncodingError(f"bad opcode {opcode:#x} at {addr:#x}")
    mnemonic = MNEMONICS[opcode]
    pos = addr + 1
    operands = []
    for _ in INSN_SPECS[mnemonic].operands:
        operand, pos = _decode_operand(read_byte, pos)
        operands.append(operand)
    return GuestInstr(mnemonic, tuple(operands), addr=addr, length=pos - addr)


#: Register operands by encoded number (immutable, so shared).
_REGS = tuple(Reg(name) for name in GPR_NAMES)
_FREGS = tuple(FReg(name) for name in FPR_NAMES)
_VREGS = tuple(VReg(name) for name in VR_NAMES)


def _read_u32(read_byte, pos: int) -> int:
    """Little-endian 32-bit value, low byte read first."""
    return (read_byte(pos) | read_byte(pos + 1) << 8
            | read_byte(pos + 2) << 16 | read_byte(pos + 3) << 24)


def _decode_operand(read_byte, pos: int):
    """(operand, position after it) for the operand encoded at ``pos``."""
    tag = read_byte(pos)
    if tag == _TAG_REG:
        return _REGS[read_byte(pos + 1) & 7], pos + 2
    if tag == _TAG_FREG:
        return _FREGS[read_byte(pos + 1) & 7], pos + 2
    if tag == _TAG_VREG:
        return _VREGS[read_byte(pos + 1) & 7], pos + 2
    if tag == _TAG_IMM:
        return Imm(_read_u32(read_byte, pos + 1)), pos + 5
    if tag == _TAG_MEM:
        mode = read_byte(pos + 1)
        pos += 2
        base = index = None
        if mode & 0x01:
            base = GPR_NAMES[read_byte(pos) & 7]
            pos += 1
        if mode & 0x02:
            index = GPR_NAMES[read_byte(pos) & 7]
            pos += 1
        scale = _LOG_TO_SCALE[(mode >> 2) & 0x3]
        disp = _read_u32(read_byte, pos)
        return Mem(base=base, index=index, scale=scale, disp=disp), pos + 4
    raise EncodingError(f"bad operand tag {tag:#x}")
