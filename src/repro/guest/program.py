"""Guest program images.

A :class:`GuestProgram` is what the x86 component "execs": code bytes at a
load address, optional data segments, an entry point and an initial stack.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Dict, Tuple

from repro.guest.memory import PagedMemory

DEFAULT_CODE_BASE = 0x0000_1000
DEFAULT_STACK_TOP = 0x7FFF_F000
DEFAULT_HEAP_BASE = 0x2000_0000


@dataclass
class GuestProgram:
    """An executable guest image."""

    code: bytes
    base: int = DEFAULT_CODE_BASE
    entry: int = DEFAULT_CODE_BASE
    data: Dict[int, bytes] = field(default_factory=dict)
    stack_top: int = DEFAULT_STACK_TOP
    labels: Dict[str, int] = field(default_factory=dict)

    @property
    def static_code_bytes(self) -> int:
        return len(self.code)

    def load_into(self, memory: PagedMemory) -> None:
        """Write the image into a memory (the x86 component's loader)."""
        memory.write_bytes(self.base, self.code)
        for addr, blob in self.data.items():
            memory.write_bytes(addr, blob)

    def label_addr(self, name: str) -> int:
        return self.labels[name]


def pack_u32s(values) -> bytes:
    return b"".join(struct.pack("<I", v & 0xFFFFFFFF) for v in values)


def pack_f64s(values) -> bytes:
    return b"".join(struct.pack("<d", float(v)) for v in values)


def unpack_u32s(blob: bytes) -> Tuple[int, ...]:
    return struct.unpack(f"<{len(blob) // 4}I", blob[: len(blob) // 4 * 4])
