"""Shared architectural semantics for guest arithmetic.

The reference emulator (x86 component) and the TOL's translations must agree
bit-for-bit.  For integer arithmetic that is easy (exact wrap helpers).  For
the transcendental instructions (``FSIN``/``FCOS``) the guest ISA *defines*
the result as a specific straight-line polynomial computation — expressed here
as a data "recipe" so the reference emulator evaluates the exact same IEEE
double operations, in the same order, as the host-code expansion emitted by
the TOL code generator.  This mirrors real co-designed processors where trig
is emulated in software (the paper attributes Physicsbench's high emulation
cost to exactly this).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

from repro.guest.isa import s32, u32

# --------------------------------------------------------------------------
# Integer ALU + flag semantics (x86-style, see DESIGN.md for documented
# deviations: PF/AF omitted, IDIV flags defined, shift OF defined as 0).
#
# One expression table is the only statement of these semantics.  Each
# entry is ``(temps, result, flags)`` as Python expression text over the
# operands ``a`` and ``b``: ``temps`` are ``(name, expression)`` pairs
# evaluated first, ``result`` defines ``res`` (None for a compare that
# only writes flags), and every flag expression may read the operands, the
# temps and ``res``.  A flag absent from ``flags`` is preserved (INC/DEC
# keep CF).  The stepper's ``add32``... below are compiled from this table
# and the x86 block compiler (:mod:`repro.guest.blocks`) inlines the same
# text, so the two execution paths cannot drift apart on integer flags.
# The other semantics are written in both modules; tests/test_guest_blocks.py
# and the ``x86-blocks`` fuzz leg check that they agree.
# --------------------------------------------------------------------------

_ZF_SF = {"ZF": "int(res == 0)", "SF": "res >> 31"}
_NAN = "a != a or b != b"

ALU_OPS: Dict[str, Tuple[tuple, Optional[str], Dict[str, str]]] = {
    "add": ((), "(a + b) & 0xFFFFFFFF", {
        **_ZF_SF,
        "CF": "int(res < (a & 0xFFFFFFFF))",
        "OF": "((~(a ^ b)) & (a ^ res)) >> 31 & 1",
    }),
    "sub": ((), "(a - b) & 0xFFFFFFFF", {
        **_ZF_SF,
        "CF": "int((a & 0xFFFFFFFF) < (b & 0xFFFFFFFF))",
        "OF": "((a ^ b) & (a ^ res)) >> 31 & 1",
    }),
    "logic": ((), "a & 0xFFFFFFFF", {**_ZF_SF, "CF": "0", "OF": "0"}),
    "inc": ((), "(a + 1) & 0xFFFFFFFF", {
        **_ZF_SF, "OF": "int(res == 0x80000000)"}),
    "dec": ((), "(a - 1) & 0xFFFFFFFF", {
        **_ZF_SF, "OF": "int((a & 0xFFFFFFFF) == 0x80000000)"}),
    "neg": ((), "-a & 0xFFFFFFFF", {
        **_ZF_SF,
        "CF": "int((a & 0xFFFFFFFF) != 0)",
        "OF": "int((a & 0xFFFFFFFF) == 0x80000000)",
    }),
    "imul": ((("full", "s32(a) * s32(b)"),), "full & 0xFFFFFFFF", {
        **_ZF_SF,
        "CF": "int(full != s32(res))",
        "OF": "int(full != s32(res))",
    }),
    # Shift entries take the masked, non-zero count as ``b``.
    "shl": ((), "(a << b) & 0xFFFFFFFF", {
        **_ZF_SF, "CF": "((a & 0xFFFFFFFF) >> (32 - b)) & 1", "OF": "0"}),
    "shr": ((), "(a & 0xFFFFFFFF) >> b", {
        **_ZF_SF, "CF": "((a & 0xFFFFFFFF) >> (b - 1)) & 1", "OF": "0"}),
    "sar": ((), "(s32(a) >> b) & 0xFFFFFFFF", {
        **_ZF_SF, "CF": "(s32(a) >> (b - 1)) & 1", "OF": "0"}),
    # FCMP: unordered (NaN) sets ZF=CF=1 like x86 FCOMI.
    "fcmp": ((), None, {
        "ZF": f"int(a == b or {_NAN})", "SF": "0",
        "CF": f"int(a < b or {_NAN})", "OF": "0",
    }),
}

#: Names the table's expressions may call.
ALU_NAMESPACE = {"s32": s32}


def _derive(op: str, name: str, params: str):
    """Compile one table entry into a ``(res, flags)`` (or ``flags``)
    function."""
    temps, result, flags = ALU_OPS[op]
    lines = [f"def {name}({params}):"]
    lines += [f"    {temp} = {expr}" for temp, expr in temps]
    body = ", ".join(f"{flag!r}: {expr}" for flag, expr in flags.items())
    if result is None:
        lines.append(f"    return {{{body}}}")
    else:
        lines.append(f"    res = {result}")
        lines.append(f"    return res, {{{body}}}")
    namespace = dict(ALU_NAMESPACE)
    exec(compile("\n".join(lines), f"<semantics:{op}>", "exec"), namespace)
    return namespace[name]


add32 = _derive("add", "add32", "a, b")
sub32 = _derive("sub", "sub32", "a, b")
#: LOGIC: the raw AND/OR/XOR/TEST (or IDIV quotient) result's flags.
logic32 = _derive("logic", "logic32", "a")
#: INC/DEC: like ADD/SUB 1 but CF is preserved (caller keeps old CF).
inc32 = _derive("inc", "inc32", "a")
dec32 = _derive("dec", "dec32", "a")
neg32 = _derive("neg", "neg32", "a")
imul32 = _derive("imul", "imul32", "a, b")
fcmp = _derive("fcmp", "fcmp", "a, b")


def idiv32(a: int, b: int) -> Tuple[int, int]:
    """Signed truncated division; by-zero yields (0, a) by ISA definition."""
    sa, sb = s32(a), s32(b)
    if sb == 0:
        return 0, u32(sa)
    quotient = abs(sa) // abs(sb)
    if (sa < 0) != (sb < 0):
        quotient = -quotient
    remainder = sa - quotient * sb
    return u32(quotient), u32(remainder)


def _shift(op: str):
    counted = _derive(op, f"_{op}32", "a, b")

    def shift(a: int, count: int) -> Tuple[int, Dict[str, int]]:
        count &= 31
        if count == 0:
            return u32(a), {}
        return counted(a, count)

    shift.__name__ = f"{op}32"
    return shift


shl32 = _shift("shl")
shr32 = _shift("shr")
sar32 = _shift("sar")


#: Condition codes as expression text over the flag values ``zf``, ``sf``,
#: ``cf`` and ``of``; the block compiler inlines these.
CONDITIONS = {
    "E": "zf == 1",
    "NE": "zf == 0",
    "L": "sf != of",
    "LE": "zf == 1 or sf != of",
    "G": "zf == 0 and sf == of",
    "GE": "sf == of",
    "B": "cf == 1",
    "BE": "cf == 1 or zf == 1",
    "A": "cf == 0 and zf == 0",
    "AE": "cf == 0",
    "S": "sf == 1",
    "NS": "sf == 0",
}

#: Condition-code predicates over (ZF, SF, CF, OF) -> bool.
CONDITION_EVAL = {
    cc: eval(f"lambda zf, sf, cf, of: {expr}")
    for cc, expr in CONDITIONS.items()
}


# --------------------------------------------------------------------------
# Transcendental recipes.
#
# A recipe is a list of straight-line steps over named double slots:
#   ("const", dst, value)      dst = value
#   ("mul",   dst, a, b)       dst = a * b
#   ("add",   dst, a, b)       dst = a + b
#   ("sub",   dst, a, b)       dst = a - b
#   ("floor", dst, a)          dst = floor(a)
# The input slot is "x" and the result slot is "res".  Every consumer
# (reference emulator, IR evaluator, host code generator) derives its
# implementation from the same recipe, guaranteeing bit-identical results.
# --------------------------------------------------------------------------

_TWO_PI = 6.283185307179586
_INV_TWO_PI = 0.15915494309189535
_HALF_PI = 1.5707963267948966

#: Odd Taylor coefficients for sin(y), y in [-pi, pi].
_SIN_COEFFS = (
    -1.0 / 6.0,
    1.0 / 120.0,
    -1.0 / 5040.0,
    1.0 / 362880.0,
    -1.0 / 39916800.0,
    1.0 / 6227020800.0,
    -1.0 / 1307674368000.0,
    1.0 / 355687428096000.0,
    -1.0 / 121645100408832000.0,
)


def _build_sin_recipe(phase_shift: float) -> List[tuple]:
    """Range-reduce x (optionally phase shifted for cos) then evaluate the
    odd polynomial with Horner's scheme."""
    steps: List[tuple] = []
    if phase_shift:
        steps += [
            ("const", "shift", phase_shift),
            ("add", "x1", "x", "shift"),
        ]
        x = "x1"
    else:
        x = "x"
    steps += [
        ("const", "inv2pi", _INV_TWO_PI),
        ("const", "twopi", _TWO_PI),
        ("const", "half", 0.5),
        ("mul", "t", x, "inv2pi"),
        ("add", "t2", "t", "half"),
        ("floor", "k", "t2"),
        ("mul", "kk", "k", "twopi"),
        ("sub", "y", x, "kk"),
        ("mul", "z", "y", "y"),
    ]
    coeffs = list(_SIN_COEFFS)
    steps.append(("const", "acc", coeffs[-1]))
    acc = "acc"
    for i in range(len(coeffs) - 2, -1, -1):
        steps.append(("const", f"c{i}", coeffs[i]))
        steps.append(("mul", f"m{i}", acc, "z"))
        steps.append(("add", f"a{i}", f"m{i}", f"c{i}"))
        acc = f"a{i}"
    steps += [
        ("const", "one", 1.0),
        ("mul", "p", acc, "z"),
        ("add", "q", "p", "one"),
        ("mul", "res", "q", "y"),
    ]
    return steps


SIN_RECIPE: List[tuple] = _build_sin_recipe(0.0)
COS_RECIPE: List[tuple] = _build_sin_recipe(_HALF_PI)

TRIG_RECIPES = {"sin": SIN_RECIPE, "cos": COS_RECIPE}


_RECIPE_OPS = {"mul": "{} * {}", "add": "{} + {}", "sub": "{} - {}",
               "floor": "_floor({})"}


def compile_recipe(recipe: List[tuple], name: str):
    """Compile a recipe into one straight-line function: the same IEEE
    double operations, in the same order, with constants embedded exactly
    (``repr`` round-trips a double)."""
    lines = [f"def {name}(x):", "    s_x = float(x)"]
    for step in recipe:
        op, dst = step[0], f"s_{step[1]}"
        if op == "const":
            lines.append(f"    {dst} = {step[2]!r}")
        elif op in _RECIPE_OPS:
            args = [f"s_{slot}" for slot in step[2:]]
            lines.append(f"    {dst} = {_RECIPE_OPS[op].format(*args)}")
        else:
            raise ValueError(f"bad recipe op {op!r}")
    lines.append("    return s_res")
    namespace = {"_floor": math.floor}
    exec(compile("\n".join(lines), f"<recipe:{name}>", "exec"), namespace)
    return namespace[name]


#: The guest ISA's architectural definitions of FSIN and FCOS.
gisa_sin = compile_recipe(SIN_RECIPE, "gisa_sin")
gisa_cos = compile_recipe(COS_RECIPE, "gisa_cos")


def fdiv64(a: float, b: float) -> float:
    """Architectural FP division: IEEE-style inf/nan on divide by zero."""
    if b != 0.0:
        return a / b
    if a == 0.0 or a != a:
        return float("nan")
    return float("inf") if a > 0 else float("-inf")


def ftrunc32(value: float) -> int:
    """Architectural double -> int32 truncation (NaN/inf -> 0, wraps)."""
    if value != value or value in (float("inf"), float("-inf")):
        return 0
    return u32(int(value))


def gisa_sqrt(x: float) -> float:
    """FSQRT is a hardware instruction on the host: IEEE sqrt. Negative
    inputs yield NaN (no trap)."""
    if x < 0:
        return float("nan")
    return math.sqrt(x)
