"""Timed microarchitectural state: caches, TLBs, branch predictors.

This module is where side channels live.  A :class:`Cache` access returns a
latency that depends on which addresses were touched before — exactly the
signal a prime+probe attacker measures (experiment E2).  The same structures
are what a hypervisor core's "forcibly clear all microarchitectural state"
control verb flushes, to break covert channels a model might set up between
its own execution phases (section 3.2, footnote 2).

The timing model is deliberately simple and deterministic:

* cache hit: ``hit_latency`` cycles,
* cache miss: ``miss_latency`` cycles (next level / DRAM),
* TLB hit: free; TLB miss: ``Mmu.WALK_COST`` extra memory touches,
* branch predicted correctly: free; mispredict: ``mispredict_penalty``.

Determinism matters: the side-channel experiments must reproduce bit-exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0


class Cache:
    """A set-associative cache with true-LRU replacement.

    Indexed by physical word address: ``set = (addr // line_size) % num_sets``.
    Several cores may share one instance (that sharing *is* the baseline
    machine's side channel; Guillotine model cores and hypervisor cores never
    share one).
    """

    def __init__(
        self,
        name: str,
        num_sets: int = 64,
        ways: int = 4,
        line_size: int = 4,
        hit_latency: int = 1,
        miss_latency: int = 20,
    ) -> None:
        if num_sets <= 0 or ways <= 0 or line_size <= 0:
            raise ValueError("cache geometry must be positive")
        self.name = name
        self.num_sets = num_sets
        self.ways = ways
        self.line_size = line_size
        self.hit_latency = hit_latency
        self.miss_latency = miss_latency
        # Per set: list of tags in LRU order (front = most recent).
        self._sets: list[list[int]] = [[] for _ in range(num_sets)]
        self.stats = CacheStats()

    def set_index(self, address: int) -> int:
        """Which set a physical address maps to (attackers compute this too)."""
        return (address // self.line_size) % self.num_sets

    def _tag(self, address: int) -> int:
        return address // (self.line_size * self.num_sets)

    def access(self, address: int) -> int:
        """Touch ``address``; returns the latency in cycles."""
        line = address // self.line_size
        lru = self._sets[line % self.num_sets]
        tag = line // self.num_sets
        if lru and lru[0] == tag:
            # Already most-recent (the common case in straight-line code):
            # reordering would be a no-op, so skip the list churn.
            self.stats.hits += 1
            return self.hit_latency
        if tag in lru:
            lru.remove(tag)
            lru.insert(0, tag)
            self.stats.hits += 1
            return self.hit_latency
        lru.insert(0, tag)
        if len(lru) > self.ways:
            lru.pop()
        self.stats.misses += 1
        return self.miss_latency

    def probe(self, address: int) -> bool:
        """Non-destructive presence check (used by tests, not by cores)."""
        return self._tag(address) in self._sets[self.set_index(address)]

    def flush(self) -> None:
        """Invalidate every line (the control bus's microarch-clear verb).

        Only the non-empty sets are visited (found by ``compress`` in C),
        so a flush costs the lines in use, not the cache's size."""
        sets = self._sets
        for index in compress(range(self.num_sets), sets):
            sets[index] = []

    def occupancy(self) -> int:
        """Total number of valid lines currently cached."""
        return sum(len(s) for s in self._sets)

    # -- checkpoint/restore (fleet migration) --------------------------------
    # Cache contents are *timing-architectural*: a migrated guest must see
    # the same hit/miss sequence as an uninterrupted one, so the tag arrays
    # (and their LRU order) ride along in checkpoints.  The snapshot holds
    # the non-empty sets only; a set it does not list is empty, as after a
    # flush.

    def lines_snapshot(self) -> dict[int, list[int]]:
        """Set index -> tags in LRU order (most recent first), for every
        non-empty set."""
        sets = self._sets
        return {index: list(sets[index])
                for index in compress(range(self.num_sets), sets)}

    def restore_lines(self, sets: dict[int, list[int]]) -> None:
        """Flush, then install a :meth:`lines_snapshot`."""
        self.flush()
        for index, tags in sets.items():
            self._sets[index] = list(tags)


class Tlb:
    """A tiny fully-associative TLB with LRU replacement.

    Holds vpn -> ppn translations.  A miss costs a page-table walk, which the
    core charges as extra memory accesses.  Flushed by the microarch-clear
    control verb and by MMU map/unmap operations (shootdown).

    Internally a dict ordered LRU-first (Python dicts preserve insertion
    order; a hit re-inserts at the back, eviction pops the front).  The
    hit/miss sequence — the timing-visible behaviour — is identical to the
    old list-scan implementation; only the Python cost changed.

    Each entry may also carry the :class:`~repro.hw.memory.PageTableEntry`
    it was filled from plus the MMU table generation at fill time.  The
    core's TLB-hit fast path uses that pair to skip the Python page walk
    while remaining exactly as authoritative as the MMU: a generation
    mismatch means the table changed since the fill, and the core falls
    back to :meth:`Mmu.translate` (see ``Core._translate``).
    """

    def __init__(self, entries: int = 16) -> None:
        if entries <= 0:
            raise ValueError("TLB must have at least one entry")
        self.capacity = entries
        #: vpn -> (ppn, pte | None, mmu generation); LRU-first dict order.
        self._entries: dict[int, tuple[int, object, int]] = {}
        self.stats = CacheStats()

    def lookup(self, vpn: int) -> int | None:
        entry = self.lookup_entry(vpn)
        return None if entry is None else entry[0]

    def lookup_entry(self, vpn: int) -> tuple[int, object, int] | None:
        """Full-entry lookup: same stats and LRU movement as :meth:`lookup`."""
        entries = self._entries
        entry = entries.pop(vpn, None)
        if entry is None:
            self.stats.misses += 1
            return None
        entries[vpn] = entry  # re-insert at MRU position
        self.stats.hits += 1
        return entry

    def insert(self, vpn: int, ppn: int, pte: object = None,
               generation: int = -1) -> None:
        entries = self._entries
        entries.pop(vpn, None)
        entries[vpn] = (ppn, pte, generation)
        if len(entries) > self.capacity:
            del entries[next(iter(entries))]  # evict LRU (front)

    def refresh_entry(self, vpn: int, ppn: int, pte: object,
                      generation: int) -> None:
        """Overwrite a present entry's payload without touching LRU order or
        stats (used after a stale-generation authority re-check)."""
        if vpn in self._entries:
            self._entries[vpn] = (ppn, pte, generation)

    def invalidate(self, vpn: int | None = None) -> None:
        """Drop one translation, or all of them when ``vpn`` is ``None``."""
        if vpn is None:
            self._entries.clear()
        else:
            self._entries.pop(vpn, None)

    def occupancy(self) -> int:
        return len(self._entries)

    # -- checkpoint/restore (fleet migration) --------------------------------
    # Only the (vpn, ppn) pairs and their LRU order are timing-visible; the
    # cached PTE and generation guard are a Python-level shortcut that is
    # re-derived after restore (a dropped guard means one authority re-check
    # through the live MMU at hit timing — cycle-identical).

    def entries_snapshot(self) -> list[tuple[int, int]]:
        return [(vpn, entry[0]) for vpn, entry in self._entries.items()]

    def restore_entries(self, pairs: list[tuple[int, int]]) -> None:
        self._entries.clear()
        for vpn, ppn in pairs:
            self._entries[int(vpn)] = (int(ppn), None, -1)


class BranchPredictor:
    """A table of 2-bit saturating counters indexed by pc.

    Mostly present as *microarchitectural state that must be clearable*: the
    paper worries about models hiding information in structures like this
    between bursts of execution.
    """

    TAKEN_THRESHOLD = 2
    #: Power-on value of every counter: weakly not-taken.
    RESET_COUNTER = 1
    #: Saturation bound of a 2-bit counter.
    MAX_COUNTER = 3

    def __init__(self, table_size: int = 256, mispredict_penalty: int = 6) -> None:
        self.table_size = table_size
        self.mispredict_penalty = mispredict_penalty
        self._counters = [self.RESET_COUNTER] * table_size
        self.predictions = 0
        self.mispredictions = 0

    def _index(self, pc: int) -> int:
        return pc % self.table_size

    def predict(self, pc: int) -> bool:
        return self._counters[self._index(pc)] >= self.TAKEN_THRESHOLD

    def update(self, pc: int, taken: bool) -> int:
        """Record the actual outcome; returns the cycle penalty (0 if the
        earlier prediction was correct)."""
        index = self._index(pc)
        predicted = self._counters[index] >= self.TAKEN_THRESHOLD
        if taken and self._counters[index] < 3:
            self._counters[index] += 1
        elif not taken and self._counters[index] > 0:
            self._counters[index] -= 1
        self.predictions += 1
        if predicted != taken:
            self.mispredictions += 1
            return self.mispredict_penalty
        return 0

    def flush(self) -> None:
        """Reset all counters to the weakly-not-taken power-on state."""
        self._counters = [self.RESET_COUNTER] * self.table_size

    # -- checkpoint/restore (fleet migration) --------------------------------
    # Counter state decides future mispredict penalties, so it is
    # timing-architectural and migrates with the guest.  The snapshot holds
    # only the counters that left their power-on value.

    def counters_snapshot(self) -> dict[int, int]:
        """Index -> counter, for every counter that is not
        :data:`RESET_COUNTER`."""
        counters = self._counters
        moved = map(self.RESET_COUNTER.__ne__, counters)
        return {index: counters[index]
                for index in compress(range(self.table_size), moved)}

    def restore_counters(self, counters: dict[int, int]) -> None:
        """Reset, then install a :meth:`counters_snapshot`."""
        self.flush()
        for index, counter in counters.items():
            self._counters[index] = counter

    def state_entropy_proxy(self) -> int:
        """Sum of counter distances from the reset value.

        Zero after a flush; the covert-channel tests use this to show that
        information really was destroyed by the microarch-clear verb.
        """
        return sum(abs(c - 1) for c in self._counters)
