"""Tests for the cache and TLB timing models."""

import pytest

from repro.gpu.cache import Cache
from repro.gpu.tlb import Tlb


class TestCache:
    def test_miss_then_hit(self):
        cache = Cache(1024, 4, 128)
        assert not cache.access(0x1000)
        assert cache.access(0x1000)

    def test_same_line_hits(self):
        cache = Cache(1024, 4, 128)
        cache.access(0x1000)
        assert cache.access(0x107F)   # same 128B line

    def test_lru_eviction_within_set(self):
        # 2 lines total, 2-way: a single set.
        cache = Cache(256, 2, 128)
        cache.access(0)          # line 0
        cache.access(256)        # line 2 -> same set (2 sets? no: 1 set)
        cache.access(0)          # touch line 0
        cache.access(512)        # evicts line 2 (LRU)
        assert cache.access(0)
        assert not cache.access(256)

    def test_probe_does_not_fill(self):
        cache = Cache(1024, 4, 128)
        assert not cache.probe(0x2000)
        assert not cache.access(0x2000)   # still a miss
        assert cache.probe(0x2000)

    def test_flush(self):
        cache = Cache(1024, 4, 128)
        cache.access(0)
        cache.flush()
        assert not cache.access(0)

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            Cache(100, 4, 128)          # not divisible
        with pytest.raises(ValueError):
            Cache(1024, 4, 100)         # line not power of two

    def test_hit_rate(self):
        cache = Cache(1024, 4, 128)
        cache.access(0)
        cache.access(0)
        assert cache.stats.hit_rate == pytest.approx(0.5)

    def test_distinct_sets_do_not_conflict(self):
        cache = Cache(2 * 128 * 2, 2, 128)   # 2 sets, 2 ways
        cache.access(0)      # set 0
        cache.access(128)    # set 1
        cache.access(256)    # set 0
        cache.access(384)    # set 1
        assert cache.access(0)
        assert cache.access(128)


class TestTlb:
    def test_fully_associative_default(self):
        tlb = Tlb(64)
        assert tlb.assoc == 64
        assert tlb.num_sets == 1

    def test_miss_then_hit(self):
        tlb = Tlb(4)
        assert not tlb.access(10)
        assert tlb.access(10)

    def test_lru_within_capacity(self):
        tlb = Tlb(2)
        tlb.access(1)
        tlb.access(2)
        tlb.access(1)       # 1 hot
        tlb.access(3)       # evicts 2
        assert tlb.access(1)
        assert not tlb.access(2)

    def test_set_associative(self):
        tlb = Tlb(4, assoc=2)
        assert tlb.num_sets == 2

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            Tlb(5, assoc=2)

    def test_flush_and_reset(self):
        tlb = Tlb(4)
        tlb.access(1)
        tlb.flush()
        assert not tlb.access(1)
        tlb.reset()
        assert tlb.stats.accesses == 0
        assert tlb.state() == [()]
