"""Tests for physical memory and the device address space."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import IllegalAddressError
from repro.gpu.memory import AddressSpace, PageFlags, PhysicalMemory

CHUNK = 1 << 16


class TestPhysicalMemory:
    def test_zero_initialised(self):
        mem = PhysicalMemory()
        assert mem.read(0x1234, 8) == b"\x00" * 8

    def test_write_read_roundtrip(self):
        mem = PhysicalMemory()
        mem.write(0x100, b"hello world")
        assert mem.read(0x100, 11) == b"hello world"

    def test_cross_chunk_boundary(self):
        mem = PhysicalMemory()
        addr = (1 << 16) - 4   # straddles the 64KB chunk boundary
        mem.write(addr, b"ABCDEFGH")
        assert mem.read(addr, 8) == b"ABCDEFGH"

    @given(st.integers(0, 1 << 47), st.binary(min_size=1, max_size=256))
    def test_roundtrip_anywhere(self, addr, data):
        mem = PhysicalMemory()
        mem.write(addr, data)
        assert mem.read(addr, len(data)) == data

    def test_typed_accessors(self):
        mem = PhysicalMemory()
        mem.write_uint(0, 4, 0xDEADBEEF)
        assert mem.read_uint(0, 4) == 0xDEADBEEF
        mem.write_int(8, 4, -123)
        assert mem.read_int(8, 4) == -123
        mem.write_f32(16, 1.5)
        assert mem.read_f32(16) == 1.5

    @given(st.integers(-(1 << 31), (1 << 31) - 1))
    def test_int32_roundtrip(self, value):
        mem = PhysicalMemory()
        mem.write_int(64, 4, value)
        assert mem.read_int(64, 4) == value

    def test_fill(self):
        mem = PhysicalMemory()
        mem.fill(0x40, 16, 0xAA)
        assert mem.read(0x40, 16) == b"\xaa" * 16

    def test_traffic_counters(self):
        mem = PhysicalMemory()
        mem.write(0, b"x" * 10)
        mem.read(0, 10)
        assert mem.bytes_written == 10
        assert mem.bytes_read == 10


def _blob(seed, size):
    return random.Random(seed).randbytes(size)


class TestCopyOnWrite:
    """Shared chunks are views of immutable payloads; stores go private."""

    def test_whole_chunk_bytes_write_shares_payload(self):
        mem = PhysicalMemory()
        payload = _blob(1, 2 * CHUNK + 100)
        mem.write(CHUNK, payload)
        assert mem._chunks[1].obj is payload
        assert mem._chunks[2].obj is payload
        assert type(mem._chunks[3]) is bytearray     # the partial tail
        assert mem.read(CHUNK, len(payload)) == payload
        assert mem.resident_bytes() == 3 * CHUNK

    def test_mutating_a_written_bytearray_leaves_memory_unchanged(self):
        mem = PhysicalMemory()
        data = bytearray(_blob(2, 2 * CHUNK))
        original = bytes(data)
        mem.write(0, data)
        mem.write(2 * CHUNK, memoryview(data))
        data[:] = bytes(len(data))
        assert mem.read(0, 2 * CHUNK) == original
        assert mem.read(2 * CHUNK, 2 * CHUNK) == original

    def test_first_store_copies_a_shared_chunk(self):
        mem = PhysicalMemory()
        payload = _blob(3, CHUNK)
        mem.write(0, payload)
        chunk = mem._chunk(0)
        assert type(chunk) is bytearray and mem._chunks[0] is chunk
        chunk[:4] = b"\xff" * 4
        assert payload == _blob(3, CHUNK)
        assert mem.read(0, 8) == b"\xff" * 4 + payload[4:8]

    #: The flat reference model spans this many chunks from address 0.
    SPAN = 4 * CHUNK

    @staticmethod
    def _ops():
        addr = st.integers(0, 4 * CHUNK - 1)
        size = st.one_of(st.integers(1, 300),
                         st.sampled_from([CHUNK, 2 * CHUNK]))
        aligned = st.builds(lambda i: i * CHUNK, st.integers(0, 3))
        seed = st.integers(0, 1 << 16)
        return st.lists(st.one_of(
            st.tuples(st.sampled_from(["bytes", "bytearray"]),
                      st.one_of(aligned, addr), size, seed),
            st.tuples(st.just("store"), addr, st.integers(1, 64), seed),
            st.tuples(st.just("fill"), st.one_of(aligned, addr), size,
                      st.integers(0, 255)),
            st.tuples(st.just("read"), addr, st.integers(1, 2 * CHUNK)),
            st.tuples(st.just("snapshot")),
            st.tuples(st.just("restore"), st.integers(0, 7)),
        ), max_size=25)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_matches_a_flat_model(self, data):
        mem = PhysicalMemory()
        flat = bytearray(self.SPAN)
        counters = [0, 0]            # bytes_read, bytes_written
        snaps = []
        for op in data.draw(self._ops()):
            kind = op[0]
            if kind in ("bytes", "bytearray", "fill"):
                _kind, addr, size, arg = op
                size = min(size, self.SPAN - addr)
                blob = (bytes([arg]) * size if kind == "fill"
                        else _blob(arg, size))
                if kind == "fill":
                    mem.fill(addr, size, arg)
                elif kind == "bytes":
                    mem.write(addr, blob)
                    if addr % CHUNK == 0 and size >= CHUNK:
                        assert mem._chunks[addr // CHUNK].obj is blob
                else:
                    mutable = bytearray(blob)
                    mem.write(addr, mutable)
                    mutable[:] = bytes(size)
                flat[addr:addr + size] = blob
                counters[1] += size
            elif kind == "store":
                # A fast-lane store: straight into ``_chunk``, counted
                # by the caller.
                _kind, addr, size, seed = op
                off = addr % CHUNK
                size = min(size, CHUNK - off)
                blob = _blob(seed, size)
                mem._chunk(addr // CHUNK)[off:off + size] = blob
                mem.bytes_written += size
                flat[addr:addr + size] = blob
                counters[1] += size
            elif kind == "read":
                _kind, addr, size = op
                size = min(size, self.SPAN - addr)
                assert mem.read(addr, size) == flat[addr:addr + size]
                counters[0] += size
            elif kind == "snapshot":
                snaps.append((mem.snapshot_chunks(), bytes(flat),
                              (mem.bytes_read, mem.bytes_written)))
            elif snaps:
                image, saved, saved_counters = snaps[op[1] % len(snaps)]
                mem.restore_chunks(image)
                mem.bytes_read, mem.bytes_written = saved_counters
                flat[:] = saved
                counters = list(saved_counters)
            assert (mem.bytes_read, mem.bytes_written) == tuple(counters)
        assert mem.read(0, self.SPAN) == flat
        for image, saved, _counters in snaps:   # snapshots never change
            mem.restore_chunks(image)
            assert mem.read(0, self.SPAN) == saved


class TestAddressSpace:
    def make(self, page_size=4096):
        return AddressSpace(PhysicalMemory(), page_size=page_size)

    def test_unmapped_faults(self):
        space = self.make()
        with pytest.raises(IllegalAddressError):
            space.translate(0x5000)

    def test_mapped_translates_identity(self):
        space = self.make()
        space.map_range(0x4000, 100)
        assert space.translate(0x4050) == 0x4050

    def test_page_granularity(self):
        """Mapping 1 byte makes the whole page accessible — the coarse
        protection behind Figure 4 case 2."""
        space = self.make()
        space.map_range(0x4000, 1)
        assert space.translate(0x4FFF) == 0x4FFF
        with pytest.raises(IllegalAddressError):
            space.translate(0x5000)

    def test_readonly_page_rejects_store(self):
        space = self.make()
        space.map_range(0x1000, 10, PageFlags(writable=False))
        assert space.translate(0x1000, is_store=False) == 0x1000
        with pytest.raises(IllegalAddressError):
            space.translate(0x1000, is_store=True)

    def test_inaccessible_page_and_bypass(self):
        """RBT pages: kernel accesses fault, BCU bypass reads work (§5.4)."""
        space = self.make()
        space.map_range(0x8000, 10, PageFlags(accessible=False))
        with pytest.raises(IllegalAddressError):
            space.translate(0x8000)
        assert space.translate(0x8000, bypass_protection=True) == 0x8000

    def test_bypass_still_requires_mapping(self):
        space = self.make()
        with pytest.raises(IllegalAddressError):
            space.translate(0x9000, bypass_protection=True)

    def test_unmap(self):
        space = self.make()
        space.map_range(0x2000, 4096)
        space.unmap_range(0x2000, 4096)
        with pytest.raises(IllegalAddressError):
            space.translate(0x2000)

    def test_multi_page_range(self):
        space = self.make()
        space.map_range(0x0, 3 * 4096)
        for page in range(3):
            assert space.is_mapped(page * 4096)
        assert not space.is_mapped(3 * 4096)

    def test_power_of_two_page_size_enforced(self):
        with pytest.raises(ValueError):
            AddressSpace(PhysicalMemory(), page_size=3000)

    def test_mapped_bytes(self):
        space = self.make()
        space.map_range(0, 2 * 4096)
        assert space.mapped_bytes() == 2 * 4096
