"""Emulated operating-system interface for guest programs.

In DARCO only the x86 component interacts with the operating system; the
co-designed component models user-level code and synchronizes at system calls
(paper §V).  This module provides that operating system: a small deterministic
syscall layer sufficient for the workload suite.

Calling convention: syscall number in ``EAX``, arguments in ``EBX``, ``ECX``,
``EDX``; result returned in ``EAX``.
"""

from __future__ import annotations

from typing import Optional

from repro.guest.memory import PagedMemory
from repro.guest.program import DEFAULT_HEAP_BASE
from repro.guest.state import GuestState

SYS_EXIT = 1
SYS_WRITE = 2
SYS_READ = 3
SYS_BRK = 4
SYS_TIME = 5
SYS_RAND = 6

_LCG_A = 6364136223846793005
_LCG_C = 1442695040888963407
_LCG_MASK = (1 << 64) - 1


class GuestOS:
    """Deterministic syscall implementation.

    All sources of nondeterminism (time, randomness) are modelled with
    deterministic counters/generators so that the x86 and co-designed
    components always observe identical executions.
    """

    def __init__(self, stdin: bytes = b"", rand_seed: int = 0x5EED):
        self.stdout = bytearray()
        self.stdin = bytes(stdin)
        self.stdin_pos = 0
        self.heap_top = DEFAULT_HEAP_BASE
        self.ticks = 0
        self.rand_state = rand_seed & _LCG_MASK
        self._seed = rand_seed
        self.exit_code: Optional[int] = None
        self.syscall_count = 0

    @property
    def exited(self) -> bool:
        return self.exit_code is not None

    def execute(self, state: GuestState, memory: PagedMemory) -> None:
        """Execute the syscall selected by the architectural state."""
        self.syscall_count += 1
        number = state.gpr[0]  # EAX
        arg1, arg2, arg3 = state.gpr[3], state.gpr[1], state.gpr[2]
        if number == SYS_EXIT:
            self.exit_code = arg1
            result = 0
        elif number == SYS_WRITE:
            data = memory.read_bytes(arg2, arg3)
            self.stdout += data
            result = arg3
        elif number == SYS_READ:
            chunk = self.stdin[self.stdin_pos:self.stdin_pos + arg3]
            memory.write_bytes(arg2, chunk)
            self.stdin_pos += len(chunk)
            result = len(chunk)
        elif number == SYS_BRK:
            if arg1:
                self.heap_top = arg1
            result = self.heap_top
        elif number == SYS_TIME:
            self.ticks += 1
            result = self.ticks
        elif number == SYS_RAND:
            self.rand_state = (
                self.rand_state * _LCG_A + _LCG_C) & _LCG_MASK
            result = (self.rand_state >> 32) & 0xFFFFFFFF
        else:
            result = 0xFFFFFFFF  # ENOSYS-style failure
        state.gpr[0] = result & 0xFFFFFFFF
