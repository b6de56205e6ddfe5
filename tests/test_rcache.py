"""Tests for the L1/L2 RCaches (paper §5.5)."""

from repro.core.bounds import Bounds
from repro.core.rcache import L1RCache, L2RCache, RCacheEntry

import pytest


def entry(buffer_id, kernel_id=1, base=0x1000, size=64):
    return RCacheEntry(buffer_id=buffer_id, kernel_id=kernel_id,
                       bounds=Bounds(base_addr=base, size=size))


class TestBasics:
    def test_miss_then_hit(self):
        cache = L1RCache(entries=4)
        assert cache.lookup(1, 7) is None
        cache.fill(entry(7))
        assert cache.lookup(1, 7) is not None
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_capacity_positive(self):
        with pytest.raises(ValueError):
            L1RCache(entries=0)

    def test_unknown_policy(self):
        with pytest.raises(ValueError):
            L1RCache(entries=4, policy="random")

    def test_flush(self):
        cache = L1RCache(entries=4)
        cache.fill(entry(1))
        cache.flush()
        assert cache.lookup(1, 1) is None

    def test_refill_same_tag_no_evict(self):
        cache = L1RCache(entries=2)
        cache.fill(entry(1))
        cache.fill(entry(2))
        cache.fill(entry(1, base=0x9000))   # update in place
        assert cache.lookup(1, 2) is not None
        assert cache.lookup(1, 1).bounds.base_addr == 0x9000


class TestFifoReplacement:
    def test_evicts_oldest(self):
        cache = L1RCache(entries=2, policy="fifo")
        cache.fill(entry(1))
        cache.fill(entry(2))
        cache.lookup(1, 1)          # FIFO ignores recency
        cache.fill(entry(3))        # evicts 1, the oldest insert
        assert cache.lookup(1, 1) is None
        assert cache.lookup(1, 2) is not None
        assert cache.lookup(1, 3) is not None


class TestLruReplacement:
    def test_evicts_coldest(self):
        cache = L1RCache(entries=2, policy="lru")
        cache.fill(entry(1))
        cache.fill(entry(2))
        cache.lookup(1, 1)          # 1 becomes hot
        cache.fill(entry(3))        # evicts 2
        assert cache.lookup(1, 2) is None
        assert cache.lookup(1, 1) is not None


class TestKernelIdTagging:
    """Intra-core multi-kernel sharing relies on the kernel-ID tag (§6.2)."""

    def test_same_buffer_id_different_kernels(self):
        cache = L2RCache(entries=4)
        cache.fill(entry(5, kernel_id=1, base=0x1000))
        cache.fill(entry(5, kernel_id=2, base=0x2000))
        assert cache.lookup(1, 5).bounds.base_addr == 0x1000
        assert cache.lookup(2, 5).bounds.base_addr == 0x2000

    def test_no_cross_kernel_hit(self):
        cache = L1RCache(entries=4)
        cache.fill(entry(9, kernel_id=1))
        assert cache.lookup(2, 9) is None


class TestPartitionedFlush:
    def test_scoped_flush_drops_only_that_bank(self):
        """Regression: flush(kernel_id) on a partitioned RCache must keep
        co-resident kernels' banks (§6.2)."""
        cache = L2RCache(entries=4, partitioned=True)
        cache.fill(entry(1, kernel_id=1))
        cache.fill(entry(1, kernel_id=2))
        cache.flush(1)
        assert cache.lookup(1, 1) is None
        assert cache.lookup(2, 1) is not None

    def test_flush_none_clears_all_banks(self):
        cache = L2RCache(entries=4, partitioned=True)
        cache.fill(entry(1, kernel_id=1))
        cache.fill(entry(1, kernel_id=2))
        cache.flush()
        assert len(cache) == 0

    def test_unpartitioned_scoped_flush_clears_shared_bank(self):
        """Without partitioning there is one shared bank; a kernel-scoped
        flush cannot be selective and must clear it."""
        cache = L1RCache(entries=4)
        cache.fill(entry(1, kernel_id=1))
        cache.fill(entry(1, kernel_id=2))
        cache.flush(1)
        assert len(cache) == 0


class TestStats:
    def test_hit_rate(self):
        cache = L1RCache(entries=4)
        cache.fill(entry(1))
        for _ in range(3):
            cache.lookup(1, 1)
        cache.lookup(1, 99)
        assert cache.stats.hit_rate == pytest.approx(0.75)

    def test_vacuous_hit_rate(self):
        assert L1RCache().stats.hit_rate == 1.0

    def test_reset(self):
        cache = L1RCache()
        cache.lookup(1, 1)
        cache.stats.reset()
        assert cache.stats.accesses == 0


class TestDefaults:
    def test_paper_geometry(self):
        assert L1RCache().capacity == 4
        assert L1RCache().policy == "fifo"
        assert L2RCache().capacity == 64


#: The BCU's probe order on one bank of 4: fill every way (buffers
#: 0-3), touch the oldest, overflow with 4, then revisit 0 and 1.
_OVERFLOW = [0, 1, 2, 3, 0, 4, 0, 1]
#: FIFO ignores the hit on 0, so 4 evicts 0 and the revisits miss;
#: LRU keeps the touched 0 and evicts 1.
_FIFO_PATTERN = [False] * 4 + [True, False, False, False]
_LRU_PATTERN = [False] * 4 + [True, False, True, False]


@pytest.mark.parametrize("cls,policy,partitioned,pattern", [
    (L1RCache, "fifo", False, _FIFO_PATTERN),
    (L1RCache, "lru", False, _LRU_PATTERN),
    (L2RCache, "lru", False, _LRU_PATTERN),
    (L2RCache, "lru", True, _LRU_PATTERN),
    (L2RCache, "fifo", True, _FIFO_PATTERN),
], ids=["l1-fifo", "l1-lru", "l2-lru", "l2-lru-partitioned",
        "l2-fifo-partitioned"])
class TestBankOverflow:
    """Victim choice when a bank overflows, pinned per (level, policy,
    partitioned) combination."""

    @staticmethod
    def _lookup_or_fill(cache, kernel_id, buffer_id):   # as the BCU probes
        hit = cache.lookup(kernel_id, buffer_id) is not None
        if not hit:
            cache.fill(entry(buffer_id, kernel_id=kernel_id))
        return hit

    def test_overflow_pattern(self, cls, policy, partitioned, pattern):
        cache = cls(entries=4, policy=policy, partitioned=partitioned)
        hits = [self._lookup_or_fill(cache, 1, b) for b in _OVERFLOW]
        assert hits == pattern
        assert cache.stats.hits == sum(pattern)
        assert cache.stats.misses == len(pattern) - sum(pattern)

    def test_partitioned_banks_do_not_share_victims(self, cls, policy,
                                                    partitioned, pattern):
        """A co-resident kernel overflowing its own bank between every
        probe leaves kernel 1's pattern alone only when partitioned."""
        cache = cls(entries=4, policy=policy, partitioned=partitioned)
        hits = []
        for i, buffer_id in enumerate(_OVERFLOW):
            hits.append(self._lookup_or_fill(cache, 1, buffer_id))
            self._lookup_or_fill(cache, 2, 100 + i)
        if partitioned:
            assert hits == pattern
            assert len(cache) == 8      # two full banks of 4
        else:
            assert hits != pattern
            assert len(cache) == 4
