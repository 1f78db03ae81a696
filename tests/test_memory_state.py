"""Property and unit tests for paged memory and architectural state."""

import struct

import pytest
from hypothesis import given, strategies as st

from repro.guest.memory import PAGE_SIZE, PagedMemory, PageFault
from repro.guest.state import GuestState


# -- paged memory ---------------------------------------------------------------


def test_demand_zero_reads_zero():
    memory = PagedMemory()
    assert memory.read_u32(0x12345) == 0
    assert memory.read_f64(0x4000) == 0.0


def test_lazy_memory_faults_on_missing_page():
    memory = PagedMemory(demand_zero=False)
    with pytest.raises(PageFault) as excinfo:
        memory.read_u32(0x5004)
    assert excinfo.value.addr == 0x5004
    assert excinfo.value.page == 0x5


def test_install_page_resolves_faults():
    memory = PagedMemory(demand_zero=False)
    image = bytes(range(256)) * 16
    memory.install_page(0x5, image)
    assert memory.read_u8(0x5003) == 3
    # Neighbouring pages still fault.
    with pytest.raises(PageFault):
        memory.read_u8(0x6000)


def test_install_page_requires_full_page():
    memory = PagedMemory(demand_zero=False)
    with pytest.raises(ValueError):
        memory.install_page(1, b"short")


def test_dirty_tracking():
    memory = PagedMemory()
    memory.read_u32(0x1000)
    assert not memory.dirty
    memory.write_u32(0x1000, 5)
    memory.write_u8(0x3000, 7)
    assert memory.dirty == {0x1, 0x3}
    memory.clear_dirty()
    assert not memory.dirty


def test_cross_page_access():
    memory = PagedMemory()
    addr = PAGE_SIZE - 2   # straddles pages 0 and 1
    memory.write_u32(addr, 0xAABBCCDD)
    assert memory.read_u32(addr) == 0xAABBCCDD
    assert memory.read_u8(PAGE_SIZE) == 0xBB  # little endian: DD CC BB AA


def test_address_wraparound_masks_to_32bit():
    memory = PagedMemory()
    memory.write_u32(0x1_0000_0010, 42)   # masked to 0x10
    assert memory.read_u32(0x10) == 42


def test_first_difference():
    a, b = PagedMemory(), PagedMemory()
    a.write_u32(0x1000, 1)
    b.write_u32(0x1000, 1)
    assert a.first_difference(b, [1]) is None
    b.write_u8(0x1802, 9)
    assert a.first_difference(b, [1]) == (1, 0x802)


@given(st.integers(0, 0xFFFFFFFF), st.integers(0, 0xFFFFFFFF))
def test_u32_roundtrip_property(addr, value):
    memory = PagedMemory()
    memory.write_u32(addr, value)
    assert memory.read_u32(addr) == value & 0xFFFFFFFF


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_f64_roundtrip_property(value):
    memory = PagedMemory()
    memory.write_f64(0x2000, value)
    assert memory.read_f64(0x2000) == value


@given(st.lists(st.integers(0, 0xFFFFFFFF), min_size=4, max_size=4))
def test_vec_roundtrip_property(lanes):
    memory = PagedMemory()
    memory.write_vec(0x3000, lanes)
    assert memory.read_vec(0x3000) == lanes


def _byte_path(memory, op, addr, value=None):
    """The accessors' semantics one byte at a time (write_u8/read_u8)."""
    size, fmt = {"f64": (8, "<d"), "vec": (16, "<4I")}[op]
    if value is None:
        raw = bytes(memory.read_u8(addr + i) for i in range(size))
        out = struct.unpack(fmt, raw)
        return out[0] if op == "f64" else list(out)
    packed = (struct.pack(fmt, value) if op == "f64"
              else struct.pack(fmt, *[v & 0xFFFFFFFF for v in value]))
    for i, byte in enumerate(packed):
        memory.write_u8(addr + i, byte)
    return None


def _outcome(memory, call):
    try:
        result, error = call(), None
    except PageFault as exc:
        result, error = None, exc.addr
    if isinstance(result, float):
        result = struct.pack("<d", result)   # NaN != NaN: compare bits
    pages = {p: memory.export_page(p) for p in sorted(memory.present_pages())}
    return result, error, sorted(memory.dirty), pages


@pytest.mark.parametrize("demand_zero", [True, False])
@pytest.mark.parametrize("op,value", [
    ("f64", -1.25e-3), ("vec", [1, 0xFFFFFFFF, 0x80000000, 7])])
def test_f64_and_vec_fast_path_match_byte_path(demand_zero, op, value):
    size = 8 if op == "f64" else 16
    fast_read = getattr(PagedMemory, f"read_{op}")
    fast_write = getattr(PagedMemory, f"write_{op}")
    for offset in (0, 8, PAGE_SIZE - size - 1, PAGE_SIZE - size,
                   PAGE_SIZE - size + 1, PAGE_SIZE - 3, PAGE_SIZE - 1):
        for second_page in (True, False):
            addr = 0x7000 + offset
            mems = []
            for _ in range(2):
                memory = PagedMemory(demand_zero=demand_zero)
                memory.install_page(0x7, bytes(range(256)) * 16)
                if second_page:
                    memory.install_page(0x8, bytes(PAGE_SIZE))
                mems.append(memory)
            fast, ref = mems
            assert (_outcome(fast, lambda: fast_read(fast, addr))
                    == _outcome(ref, lambda: _byte_path(ref, op, addr)))
            assert (_outcome(fast, lambda: fast_write(fast, addr, value))
                    == _outcome(ref, lambda: _byte_path(ref, op, addr,
                                                        value)))
            assert (_outcome(fast, lambda: fast_read(fast, addr))
                    == _outcome(ref, lambda: _byte_path(ref, op, addr)))


def test_bulk_bytes_fault_and_partial_write_like_byte_path():
    memory = PagedMemory(demand_zero=False)
    memory.install_page(0x7, bytes(PAGE_SIZE))
    with pytest.raises(PageFault) as excinfo:
        memory.write_bytes(0x8000 - 3, b"abcdef")
    assert excinfo.value.addr == 0x8000
    assert memory.read_bytes(0x8000 - 3, 3) == b"abc"
    assert memory.dirty == {0x7}
    with pytest.raises(PageFault) as excinfo:
        memory.read_bytes(0x8000 - 3, 6)
    assert excinfo.value.addr == 0x8000
    wrap = PagedMemory()
    wrap.write_bytes(0xFFFFFFFE, b"wxyz")   # wraps to address 0
    assert wrap.read_bytes(0xFFFFFFFE, 4) == b"wxyz"
    assert wrap.read_bytes(0, 2) == b"yz"
    assert wrap.dirty == {0xFFFFF, 0}


# -- architectural state -----------------------------------------------------------


def test_state_snapshot_restore_roundtrip():
    state = GuestState()
    state.set("EAX", 42)
    state.set("F3", 1.5)
    state.set("V2", [1, 2, 3, 4])
    state.set("ZF", 1)
    state.eip = 0x1234
    snap = state.snapshot()
    state.set("EAX", 0)
    state.set("ZF", 0)
    state.restore(snap)
    assert state.get("EAX") == 42
    assert state.get("F3") == 1.5
    assert state.get("V2") == [1, 2, 3, 4]
    assert state.get("ZF") == 1
    assert state.eip == 0x1234


def test_state_copy_is_independent():
    state = GuestState()
    state.set("EBX", 9)
    clone = state.copy()
    clone.set("EBX", 1)
    clone.vr[0][0] = 77
    assert state.get("EBX") == 9
    assert state.vr[0][0] == 0


def test_state_diff_reports_all_classes():
    a, b = GuestState(), GuestState()
    a.set("EAX", 1)
    a.set("F0", 2.0)
    a.set("V1", [9, 9, 9, 9])
    a.set("CF", 1)
    a.eip = 4
    diff = a.diff(b)
    assert set(diff) == {"EAX", "F0", "V1", "CF", "EIP"}
    assert a.diff(a) == {}


def test_state_diff_treats_nan_pairs_equal():
    a, b = GuestState(), GuestState()
    a.set("F1", float("nan"))
    b.set("F1", float("nan"))
    assert "F1" not in a.diff(b)


def test_state_matches_with_ignore():
    a, b = GuestState(), GuestState()
    a.set("EDX", 5)
    assert not a.matches(b)
    assert a.matches(b, ignore={"EDX"})


def test_state_set_masks_to_32bit():
    state = GuestState()
    state.set("ESI", 0x1_2345_6789)
    assert state.get("ESI") == 0x2345_6789


def test_state_unknown_register_raises():
    state = GuestState()
    with pytest.raises(KeyError):
        state.get("R15")
    with pytest.raises(KeyError):
        state.set("XMM0", 1)
