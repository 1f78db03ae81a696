"""Block compiler for the authoritative guest emulator (x86 component).

:class:`~repro.guest.emulator.GuestEmulator` runs guest code one basic
block at a time: each block becomes one generated Python function, built
straight from the guest ISA's own semantics (:mod:`repro.guest.semantics`
expression text, inlined) with no intermediate representation.  Nothing
here comes from the TOL, so a translation bug cannot be mirrored into the
reference (see the independence note in :mod:`repro.guest.emulator`).

Formation rules:

* a block ends *after* a control transfer;
* it ends *before* an undecodable byte, a :data:`STEP_ONLY` instruction,
  an instruction whose decoded operand kinds do not match its
  :class:`~repro.guest.isa.InsnSpec`, and a :data:`MAY_RAISE` instruction
  that is not the block's first.  Those run on ``GuestEmulator.step()``.

The emulator's memory is always demand-zero, so no access faults and
every instruction of a block except the first is exception free: an
exception can only leave the state ``step()`` would leave.  A flag write
is elided when a later instruction of the block overwrites that flag
before anything reads it (only a block-ending ``Jcc`` reads flags).

A generated function takes the state lists and memory accessors as
arguments (:data:`PARAMS`) and returns the next EIP.  It never closes over
emulator state, because checkpoint resume (``GuestState.restore``)
replaces the lists; so one function, cached by its source text, serves
every emulator that forms the same block.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.guest import semantics as sem
from repro.guest.encoding import EncodingError, kinds_match
from repro.guest.isa import FLAG_INDEX, GuestInstr, Imm, Mem, Reg

#: Always executed by ``GuestEmulator.step()``: system effects and the
#: per-element restartable string loops.
STEP_ONLY = frozenset({"SYSCALL", "HLT", "REP_MOVSD", "REP_STOSD"})
#: Can raise at run time (trig range reduction floors an inf/NaN), so they
#: may only start a block.
MAY_RAISE = frozenset({"FSIN", "FCOS"})
#: Longest block, in instructions.
MAX_BLOCK = 64
#: Generated-function parameters: state lists, then memory accessors.
PARAMS = "g, f, v, fl, r32, w32, rf64, wf64, rvec, wvec"

_NAMESPACE = {
    **sem.ALU_NAMESPACE,
    "idiv32": sem.idiv32,
    "fdiv64": sem.fdiv64,
    "gisa_sin": sem.gisa_sin,
    "gisa_cos": sem.gisa_cos,
    "gisa_sqrt": sem.gisa_sqrt,
    "ftrunc32": sem.ftrunc32,
}
#: Generated functions by source text, shared across emulators.
_FUNCTIONS: Dict[str, Callable] = {}
_FUNCTIONS_CAP = 4096


class Block:
    """One compiled basic block and its retirement counters."""

    __slots__ = ("run", "length", "classes", "branches", "hits")

    def __init__(self, run: Callable, instrs: List[GuestInstr]):
        self.run = run
        self.length = len(instrs)
        classes: Dict = {}
        for instr in instrs:  # first-occurrence order, as step() counts
            classes[instr.spec.klass] = classes.get(instr.spec.klass, 0) + 1
        self.classes = tuple(classes.items())
        self.branches = int(instrs[-1].is_branch)
        #: Runs not yet added to the emulator's counters.
        self.hits = 0


def form_block(fetch: Callable[[int], GuestInstr],
               addr: int) -> Optional[Block]:
    """Decode and compile the block at ``addr``; None when its first
    instruction must run on ``step()``.  A decode error at ``addr`` raises
    exactly as ``step()`` would."""
    instrs: List[GuestInstr] = []
    instr = fetch(addr)
    while (instr.mnemonic not in STEP_ONLY and kinds_match(instr)
           and not (instrs and instr.mnemonic in MAY_RAISE)
           and len(instrs) < MAX_BLOCK):
        instrs.append(instr)
        if instr.is_branch:
            break
        try:
            instr = fetch(instr.next_addr)
        except EncodingError:
            break  # step() raises it if execution gets there
    if not instrs:
        return None
    return Block(_function(block_source(instrs)), instrs)


def _function(source: str) -> Callable:
    fn = _FUNCTIONS.get(source)
    if fn is None:
        if len(_FUNCTIONS) >= _FUNCTIONS_CAP:
            _FUNCTIONS.clear()
        namespace = dict(_NAMESPACE)
        exec(compile(source, "<x86-block>", "exec"), namespace)
        fn = _FUNCTIONS[source] = namespace["block"]
    return fn


def block_source(instrs: List[GuestInstr]) -> str:
    """Python source of the block function for ``instrs``."""
    last_writer = {}
    for k, instr in enumerate(instrs):
        for flag in _flags_written(instr):
            last_writer[flag] = k
    lines = []
    for k, instr in enumerate(instrs):
        keep = {flag for flag, j in last_writer.items() if j == k}
        lines += _EMIT[instr.mnemonic](instr, keep, last_writer)
    if not instrs[-1].is_branch:
        lines.append(f"return {instrs[-1].next_addr}")
    body = "".join(f"    {line}\n" for line in lines)
    return f"def block({PARAMS}):\n{body}"


# -- flag bookkeeping ------------------------------------------------------

#: Mnemonic -> ``semantics.ALU_OPS`` entry whose flags it writes.
_FLAG_OP = {
    "ADD": "add", "SUB": "sub", "CMP": "sub", "AND": "logic",
    "OR": "logic", "XOR": "logic", "TEST": "logic", "INC": "inc",
    "DEC": "dec", "NEG": "neg", "IMUL": "imul", "IDIV": "logic",
    "SHL": "shl", "SHR": "shr", "SAR": "sar", "FCMP": "fcmp",
}


def _flags_written(instr: GuestInstr):
    op = _FLAG_OP.get(instr.mnemonic)
    if op is None or (op in ("shl", "shr", "sar") and _count(instr) == 0):
        return ()
    return sem.ALU_OPS[op][2].keys()


def _count(instr: GuestInstr) -> int:
    return instr.operands[1].u32 & 31


def _alu(op: str, keep, write: Optional[str] = None) -> List[str]:
    """Statements for one table entry over locals ``a``/``b``: temps,
    ``res``, the optional write-back, then the kept flags (each also bound
    to a local for a block-ending Jcc)."""
    temps, result, flags = sem.ALU_OPS[op]
    out = [f"{name} = {expr}" for name, expr in temps]
    if result is not None:
        out.append(f"res = {result}")
    if write is not None:
        out.append(write)
    out += [f"fl[{FLAG_INDEX[flag]}] = {flag.lower()} = {expr}"
            for flag, expr in flags.items() if flag in keep]
    return out


# -- operands --------------------------------------------------------------

def _ea(mem: Mem) -> str:
    parts = []
    if mem.base is not None:
        parts.append(f"g[{Reg(mem.base).index}]")
    if mem.index is not None:
        index = f"g[{Reg(mem.index).index}]"
        parts.append(index if mem.scale == 1 else f"{index} * {mem.scale}")
    disp = mem.disp & 0xFFFFFFFF
    if not parts:
        return str(disp)
    if disp:
        parts.append(str(disp))
    return f"({' + '.join(parts)}) & 0xFFFFFFFF"


def _read(operand) -> str:
    if isinstance(operand, Reg):
        return f"g[{operand.index}]"
    if isinstance(operand, Imm):
        return str(operand.u32)
    return f"r32({_ea(operand)})"


def _rmw(dst) -> tuple:
    """(setup statements, read expression, write-back of ``res``) for a
    read-modify-write destination; a memory destination computes its
    address once."""
    if isinstance(dst, Reg):
        return [], f"g[{dst.index}]", f"g[{dst.index}] = res"
    return [f"ea = {_ea(dst)}"], "r32(ea)", "w32(ea, res)"


# -- per-mnemonic emitters ---------------------------------------------------

#: Instructions that write no flags, as statement templates.  ``{oN}`` is
#: operand N as a register index, immediate or effective address, ``{rN}``
#: its 32-bit integer read, ``{next}`` the fall-through address.
_TEMPLATES = {
    "NOP": (),
    "LEA": ("g[{o0}] = {o1}",),
    "XCHG": ("g[{o0}], g[{o1}] = g[{o1}], g[{o0}]",),
    "NOT": ("g[{o0}] = ~g[{o0}] & 0xFFFFFFFF",),
    "PUSH": ("a = {r0}", "sp = (g[4] - 4) & 0xFFFFFFFF", "w32(sp, a)",
             "g[4] = sp"),
    "JMP": ("return {r0}",),
    "JMPI": ("return {r0}",),
    "CALL": ("t = {r0}", "sp = (g[4] - 4) & 0xFFFFFFFF", "w32(sp, {next})",
             "g[4] = sp", "return t"),
    "RET": ("sp = g[4]", "t = r32(sp)", "g[4] = (sp + 4) & 0xFFFFFFFF",
            "return t"),
    "FLD": ("f[{o0}] = rf64({o1})",),
    "FST": ("wf64({o0}, f[{o1}])",),
    "FMOV": ("f[{o0}] = f[{o1}]",),
    "FADD": ("f[{o0}] = f[{o0}] + f[{o1}]",),
    "FSUB": ("f[{o0}] = f[{o0}] - f[{o1}]",),
    "FMUL": ("f[{o0}] = f[{o0}] * f[{o1}]",),
    "FDIV": ("f[{o0}] = fdiv64(f[{o0}], f[{o1}])",),
    "FSIN": ("f[{o0}] = gisa_sin(f[{o0}])",),
    "FCOS": ("f[{o0}] = gisa_cos(f[{o0}])",),
    "FSQRT": ("f[{o0}] = gisa_sqrt(f[{o0}])",),
    "FABS": ("f[{o0}] = abs(f[{o0}])",),
    "FNEG": ("f[{o0}] = -f[{o0}]",),
    "FLDI": ("f[{o0}] = float(s32({o1}))",),
    "CVTIF": ("f[{o0}] = float(s32(g[{o1}]))",),
    "CVTFI": ("g[{o0}] = ftrunc32(f[{o1}])",),
    "VLD": ("v[{o0}] = rvec({o1})",),
    "VST": ("wvec({o0}, v[{o1}])",),
    "VADD": ("v[{o0}] = [(x + y) & 0xFFFFFFFF"
             " for x, y in zip(v[{o0}], v[{o1}])]",),
    "VSUB": ("v[{o0}] = [(x - y) & 0xFFFFFFFF"
             " for x, y in zip(v[{o0}], v[{o1}])]",),
    "VMUL": ("v[{o0}] = [(s32(x) * s32(y)) & 0xFFFFFFFF"
             " for x, y in zip(v[{o0}], v[{o1}])]",),
    "VSPLAT": ("v[{o0}] = [g[{o1}]] * 4",),
    "VMOV": ("v[{o0}] = list(v[{o1}])",),
}
_TEMPLATES["CALLI"] = _TEMPLATES["CALL"]


def _operand(operand):
    if isinstance(operand, Imm):
        return operand.u32
    if isinstance(operand, Mem):
        return _ea(operand)
    return operand.index


def _e_template(instr, keep, writers):
    fields = {"next": instr.next_addr}
    for n, operand in enumerate(instr.operands):
        fields[f"o{n}"] = _operand(operand)
        if isinstance(operand, (Reg, Imm, Mem)):
            fields[f"r{n}"] = _read(operand)
    return [line.format(**fields) for line in _TEMPLATES[instr.mnemonic]]


#: Mnemonic -> ``(instr, kept flags, in-block flag writers) -> lines``.
_EMIT: Dict[str, Callable] = dict.fromkeys(_TEMPLATES, _e_template)


def _emits(*mnemonics):
    def wrap(fn):
        for mnemonic in mnemonics:
            _EMIT[mnemonic] = fn
        return fn
    return wrap


@_emits("MOV")
def _e_mov(instr, keep, writers):
    dst, src = instr.operands
    if isinstance(dst, Reg):
        return [f"g[{dst.index}] = {_read(src)}"]
    return [f"w32({_ea(dst)}, {_read(src)})"]


@_emits("POP")
def _e_pop(instr, keep, writers):
    reg = instr.operands[0].index
    if reg == 4:  # POP ESP: the loaded value becomes the stack pointer
        return ["g[4] = r32(g[4])"]
    return ["sp = g[4]", f"g[{reg}] = r32(sp)", "g[4] = (sp + 4) & 0xFFFFFFFF"]


@_emits("ADD", "SUB", "IMUL")
def _e_binary(instr, keep, writers):
    dst, src = instr.operands
    setup, read, write = _rmw(dst)
    return setup + [f"a = {read}", f"b = {_read(src)}"] + _alu(
        instr.mnemonic.lower(), keep, write)


@_emits("CMP")
def _e_cmp(instr, keep, writers):
    dst, src = instr.operands
    return [f"a = {_read(dst)}", f"b = {_read(src)}"] + _alu("sub", keep)


_LOGIC = {"AND": "&", "OR": "|", "XOR": "^"}


@_emits(*_LOGIC)
def _e_logic(instr, keep, writers):
    dst, src = instr.operands
    setup, read, write = _rmw(dst)
    op = _LOGIC[instr.mnemonic]
    return setup + [f"a = {read} {op} {_read(src)}"] + _alu(
        "logic", keep, write)


@_emits("TEST")
def _e_test(instr, keep, writers):
    x, y = instr.operands
    return [f"a = {_read(x)} & {_read(y)}"] + _alu("logic", keep)


@_emits("INC", "DEC", "NEG")
def _e_unary(instr, keep, writers):
    setup, read, write = _rmw(instr.operands[0])
    return setup + [f"a = {read}"] + _alu(instr.mnemonic.lower(), keep,
                                          write)


@_emits("SHL", "SHR", "SAR")
def _e_shift(instr, keep, writers):
    count = _count(instr)
    if count == 0:
        return []  # writes the value back unchanged, no flags
    reg = instr.operands[0].index
    return [f"a = g[{reg}]", f"b = {count}"] + _alu(
        instr.mnemonic.lower(), keep, f"g[{reg}] = res")


@_emits("IDIV")
def _e_idiv(instr, keep, writers):
    return [f"b = {_read(instr.operands[0])}",
            "a, rem = idiv32(g[0], b)", "g[0] = a", "g[2] = rem"] + _alu(
        "logic", keep)


@_emits("FCMP")
def _e_fcmp(instr, keep, writers):
    x, y = instr.operands
    return [f"a = f[{x.index}]", f"b = f[{y.index}]"] + _alu("fcmp", keep)


@_emits(*(f"J{cc}" for cc in sem.CONDITIONS))
def _e_jcc(instr, keep, writers):
    cond = sem.CONDITIONS[instr.mnemonic[1:]]
    loads = [f"{flag.lower()} = fl[{index}]"
             for flag, index in FLAG_INDEX.items()
             if flag.lower() in cond.split() and flag not in writers]
    target = instr.operands[0].u32
    return loads + [f"return {target} if {cond} else {instr.next_addr}"]
