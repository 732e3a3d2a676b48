"""Unit tests for caches, TLBs, and branch predictors."""

import pytest

from repro.hw.cache import BranchPredictor, Cache, Tlb


class TestCache:
    def test_first_access_misses(self):
        cache = Cache("c")
        assert cache.access(0) == cache.miss_latency

    def test_second_access_hits(self):
        cache = Cache("c")
        cache.access(0)
        assert cache.access(0) == cache.hit_latency

    def test_same_line_shares_entry(self):
        cache = Cache("c", line_size=4)
        cache.access(0)
        assert cache.access(3) == cache.hit_latency  # same 4-word line

    def test_set_index_wraps(self):
        cache = Cache("c", num_sets=64, line_size=4)
        assert cache.set_index(0) == cache.set_index(64 * 4)

    def test_lru_eviction(self):
        cache = Cache("c", num_sets=1, ways=2, line_size=1)
        cache.access(0)
        cache.access(1)
        cache.access(2)           # evicts 0 (LRU)
        assert not cache.probe(0)
        assert cache.probe(1)
        assert cache.probe(2)

    def test_touch_refreshes_lru(self):
        cache = Cache("c", num_sets=1, ways=2, line_size=1)
        cache.access(0)
        cache.access(1)
        cache.access(0)           # 1 becomes LRU
        cache.access(2)           # evicts 1
        assert cache.probe(0)
        assert not cache.probe(1)

    def test_flush_empties_everything(self):
        cache = Cache("c")
        for address in range(100):
            cache.access(address * 4)
        cache.flush()
        assert cache.occupancy() == 0
        assert cache.access(0) == cache.miss_latency

    def test_snapshot_lists_non_empty_sets_most_recent_first(self):
        cache = Cache("c", num_sets=4, ways=2, line_size=1)
        for address in (1, 5, 9, 2):   # set 1 sees tags 0, 1, 2
            cache.access(address)
        assert cache.lines_snapshot() == {1: [2, 1], 2: [0]}

    def test_restore_replaces_whatever_the_cache_held(self):
        source = Cache("c", num_sets=4, ways=2, line_size=1)
        source.access(6)
        target = Cache("c", num_sets=4, ways=2, line_size=1)
        for address in range(8):
            target.access(address)
        target.restore_lines(source.lines_snapshot())
        assert target.lines_snapshot() == {2: [1]}
        assert target.probe(6) and not target.probe(0)

    def test_stats_track_hits_and_misses(self):
        cache = Cache("c")
        cache.access(0)
        cache.access(0)
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1
        assert cache.stats.hit_rate == 0.5

    def test_bad_geometry_rejected(self):
        with pytest.raises(ValueError):
            Cache("c", num_sets=0)
        with pytest.raises(ValueError):
            Cache("c", ways=-1)

    def test_occupancy_bounded_by_capacity(self):
        cache = Cache("c", num_sets=4, ways=2, line_size=1)
        for address in range(100):
            cache.access(address)
        assert cache.occupancy() <= 4 * 2

    def test_probe_is_nondestructive(self):
        cache = Cache("c", num_sets=1, ways=2, line_size=1)
        cache.access(0)
        cache.access(1)
        cache.probe(0)            # must NOT refresh LRU
        cache.access(2)           # evicts 0 (still LRU)
        assert not cache.probe(0)


class TestTlb:
    def test_miss_then_hit(self):
        tlb = Tlb(4)
        assert tlb.lookup(1) is None
        tlb.insert(1, 42)
        assert tlb.lookup(1) == 42

    def test_lru_eviction(self):
        tlb = Tlb(2)
        tlb.insert(1, 1)
        tlb.insert(2, 2)
        tlb.lookup(1)             # refresh
        tlb.insert(3, 3)          # evicts 2
        assert tlb.lookup(2) is None
        assert tlb.lookup(1) == 1

    def test_reinsert_updates_translation(self):
        tlb = Tlb(4)
        tlb.insert(1, 10)
        tlb.insert(1, 20)
        assert tlb.lookup(1) == 20
        assert tlb.occupancy() == 1

    def test_invalidate_single(self):
        tlb = Tlb(4)
        tlb.insert(1, 10)
        tlb.insert(2, 20)
        tlb.invalidate(1)
        assert tlb.lookup(1) is None
        assert tlb.lookup(2) == 20

    def test_invalidate_all(self):
        tlb = Tlb(4)
        tlb.insert(1, 10)
        tlb.invalidate()
        assert tlb.occupancy() == 0

    def test_stats(self):
        tlb = Tlb(4)
        tlb.lookup(1)
        tlb.insert(1, 1)
        tlb.lookup(1)
        assert tlb.stats.misses == 1
        assert tlb.stats.hits == 1

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            Tlb(0)


class TestBranchPredictor:
    def test_learns_taken_branches(self):
        predictor = BranchPredictor()
        pc = 10
        predictor.update(pc, True)
        predictor.update(pc, True)
        assert predictor.predict(pc)

    def test_learns_not_taken(self):
        predictor = BranchPredictor()
        pc = 10
        predictor.update(pc, True)
        predictor.update(pc, True)
        predictor.update(pc, False)
        predictor.update(pc, False)
        assert not predictor.predict(pc)

    def test_mispredict_charges_penalty(self):
        predictor = BranchPredictor(mispredict_penalty=6)
        # Power-on state is weakly-not-taken: a taken branch mispredicts.
        assert predictor.update(10, True) == 6

    def test_correct_prediction_is_free(self):
        predictor = BranchPredictor()
        predictor.update(10, True)
        predictor.update(10, True)
        assert predictor.update(10, True) == 0

    def test_counters_saturate(self):
        predictor = BranchPredictor()
        for _ in range(10):
            predictor.update(10, True)
        predictor.update(10, False)
        assert predictor.predict(10)  # still weakly taken after one miss

    def test_flush_restores_power_on_state(self):
        predictor = BranchPredictor()
        for pc in range(50):
            predictor.update(pc, True)
        assert predictor.state_entropy_proxy() > 0
        predictor.flush()
        assert predictor.state_entropy_proxy() == 0

    def test_snapshot_lists_counters_off_their_reset_value(self):
        predictor = BranchPredictor(table_size=8)
        predictor.update(3, True)
        predictor.update(5, False)
        predictor.update(6, True)
        predictor.update(6, False)    # back to the reset value
        assert predictor.counters_snapshot() == {3: 2, 5: 0}

    def test_restore_resets_unlisted_counters(self):
        predictor = BranchPredictor(table_size=8)
        for pc in range(8):
            predictor.update(pc, True)
        predictor.restore_counters({4: 3})
        assert predictor.counters_snapshot() == {4: 3}
        assert predictor.state_entropy_proxy() == 2

    def test_stats_count(self):
        predictor = BranchPredictor()
        predictor.update(1, True)   # mispredict (weakly not-taken)
        predictor.update(1, True)   # correct now? counter=2 -> predicts taken
        assert predictor.predictions == 2
        assert predictor.mispredictions >= 1
