"""Tests for the device allocator (paper §3.1 allocation behaviour)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.driver.allocator import DeviceAllocator, MemoryRegions
from repro.errors import AllocationError
from repro.gpu.memory import AddressSpace, PhysicalMemory


def make(page_size=2 << 20, alignment=512, pow2_pad=False):
    mem = PhysicalMemory()
    space = AddressSpace(mem, page_size=page_size)
    return DeviceAllocator(mem, space, alignment=alignment,
                           pow2_pad=pow2_pad), space


class TestAlignment:
    def test_512_byte_alignment(self):
        alloc, _ = make()
        a = alloc.malloc(64)
        b = alloc.malloc(64)
        assert a.va % 512 == 0
        assert b.va % 512 == 0
        assert b.va == a.va + 512   # adjacent 512B slots (Figure 4)

    def test_padded_size(self):
        alloc, _ = make()
        assert alloc.malloc(100).padded_size == 512
        assert alloc.malloc(513).padded_size == 1024

    def test_no_overlap(self):
        alloc, _ = make()
        buffers = [alloc.malloc(100 + 37 * i) for i in range(20)]
        spans = sorted((b.va, b.va + b.padded_size) for b in buffers)
        for (s1, e1), (s2, _e2) in zip(spans, spans[1:]):
            assert e1 <= s2


class TestPageMapping:
    def test_pages_mapped_on_demand(self):
        alloc, space = make()
        buf = alloc.malloc(64)
        assert space.is_mapped(buf.va)
        # The *next* 2MB page is not mapped — the Figure 4 case 3 fault.
        assert not space.is_mapped(buf.va + (2 << 20))

    def test_small_allocations_share_a_page(self):
        alloc, space = make()
        a = alloc.malloc(64)
        b = alloc.malloc(64)
        assert space.page_of(a.va) == space.page_of(b.va)

    def test_large_allocation_spans_pages(self):
        alloc, space = make()
        buf = alloc.malloc(5 << 20)
        assert space.is_mapped(buf.va)
        assert space.is_mapped(buf.va + (4 << 20))


class TestPow2Padding:
    """Type-3 (Intel) mode: power-of-two pad + natural alignment (§5.3.3)."""

    def test_pads_to_power_of_two(self):
        alloc, _ = make(pow2_pad=True)
        buf = alloc.malloc(600)
        assert buf.padded_size == 1024
        assert buf.va % 1024 == 0

    def test_minimum_is_alignment(self):
        alloc, _ = make(pow2_pad=True)
        assert alloc.malloc(10).padded_size == 512

    def test_natural_alignment_large(self):
        alloc, _ = make(pow2_pad=True)
        alloc.malloc(512)
        big = alloc.malloc(5000)   # pads to 8192
        assert big.padded_size == 8192
        assert big.va % 8192 == 0


class TestFree:
    def test_double_free_rejected(self):
        alloc, _ = make()
        buf = alloc.malloc(64)
        alloc.free(buf)
        with pytest.raises(AllocationError):
            alloc.free(buf)

    def test_shared_page_stays_mapped(self):
        alloc, space = make()
        a = alloc.malloc(64)
        b = alloc.malloc(64)
        alloc.free(a)
        assert space.is_mapped(b.va)

    def test_live_buffers(self):
        alloc, _ = make()
        a = alloc.malloc(64)
        b = alloc.malloc(64)
        alloc.free(a)
        assert alloc.live_buffers() == [b]


def _reference_free(alloc, buffer):
    """``free`` as a scan of every buffer ever allocated: the reference
    for the per-page index."""
    buffer.freed = True
    page = alloc.space.page_size
    first = buffer.va // page
    last = (buffer.va + buffer.padded_size - 1) // page
    for pg in range(first, last + 1):
        lo, hi = pg * page, (pg + 1) * page
        shared = any(
            not b.freed and b.va < hi and lo < b.va + b.padded_size
            for b in alloc.allocations if b is not buffer)
        if not shared and hi <= alloc.cursors_snapshot()[buffer.region]:
            alloc.space.unmap_range(lo, page - 1)


class _CountingList(list):
    """An ``allocations`` list that counts the buffers iterated over."""

    examined = 0

    def __iter__(self):
        for buffer in super().__iter__():
            self.examined += 1
            yield buffer


class TestFreeCost:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.booleans(), st.integers(1, 9000),
                              st.sampled_from(["global", "internal"]),
                              st.integers(0, 1 << 16)),
                    max_size=40))
    def test_unmaps_exactly_like_a_full_scan(self, ops):
        """Random malloc/free sequences on 4 KiB pages: the mapped pages
        match an allocator whose ``free`` scans the whole history."""
        fast, fast_space = make(page_size=4096)
        ref, ref_space = make(page_size=4096)
        live = []
        for is_free, size, region, pick in ops:
            if is_free and live:
                index = pick % len(live)
                fast.free(live[index][0])
                _reference_free(ref, live.pop(index)[1])
            elif region == "internal":
                live.append((fast.malloc_internal(size),
                             ref.malloc_internal(size)))
            else:
                live.append((fast.malloc(size), ref.malloc(size)))
            assert fast_space.pages_snapshot().keys() \
                == ref_space.pages_snapshot().keys()

    @pytest.mark.parametrize("history", [100, 2000])
    def test_free_examines_no_history(self, history):
        """``free`` never walks the allocation history: after any number
        of earlier malloc/free pairs it examines no buffer in it."""
        alloc, space = make()
        for _ in range(history):
            alloc.free(alloc.malloc(4096))
        alloc.allocations = _CountingList(alloc.allocations)
        a = alloc.malloc(4096)
        b = alloc.malloc(4096)
        alloc.free(a)
        assert alloc.allocations.examined == 0
        assert space.is_mapped(b.va)
        assert alloc.allocations == [b]   # only the live buffers

    def test_restore_reindexes_live_buffers(self):
        alloc, space = make(page_size=4096)
        a = alloc.malloc(4096)
        saved = list(alloc.allocations)
        cursors = alloc.cursors_snapshot()
        alloc.free(a)
        b = alloc.malloc(4096)
        alloc.restore_allocations(saved)
        alloc.restore_cursors(cursors)
        assert alloc.live_buffers() == [a]
        # ``a`` is live again: freeing it unmaps its page; ``b`` is gone
        # from the image, so freeing it leaves ``a``'s page alone.
        space.map_range(a.va, 4096)
        alloc.free(b)
        assert space.is_mapped(a.va)
        alloc.free(a)
        assert not space.is_mapped(a.va)


class TestHostCopies:
    def test_write_read_roundtrip(self):
        alloc, _ = make()
        buf = alloc.malloc(128)
        alloc.write_buffer(buf, 16, b"payload")
        assert alloc.read_buffer(buf, 16, 7) == b"payload"

    def test_copy_bounds_enforced(self):
        alloc, _ = make()
        buf = alloc.malloc(128)
        with pytest.raises(AllocationError):
            alloc.write_buffer(buf, 510, b"xxxx")   # escapes padded size
        with pytest.raises(AllocationError):
            alloc.read_buffer(buf, -1, 4)


class TestInternalRegion:
    def test_internal_pages_inaccessible(self):
        """RBT pages must fault on normal access but allow bypass (§5.4)."""
        alloc, space = make()
        buf = alloc.malloc_internal(4096, name="rbt")
        from repro.errors import IllegalAddressError
        with pytest.raises(IllegalAddressError):
            space.translate(buf.va)
        assert space.translate(buf.va, bypass_protection=True) == buf.va

    def test_internal_region_separate(self):
        alloc, _ = make()
        regions = MemoryRegions()
        internal = alloc.malloc_internal(64)
        normal = alloc.malloc(64)
        assert internal.va < regions.constant
        assert normal.va >= regions.global_


class TestValidation:
    def test_bad_size(self):
        alloc, _ = make()
        with pytest.raises(AllocationError):
            alloc.malloc(0)

    def test_bad_region(self):
        alloc, _ = make()
        with pytest.raises(AllocationError):
            alloc.malloc(64, region="surface2d")

    def test_region_classification(self):
        regions = MemoryRegions()
        assert regions.region_of(regions.global_) == "global"
        assert regions.region_of(regions.heap) == "heap"
        assert regions.region_of(regions.local) == "local"
        assert regions.region_of(regions.constant) == "constant"
        assert regions.region_of(0) == "internal"
