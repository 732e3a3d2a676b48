"""DRAM, page tables, and the MMU with executable-region lockdown.

Two properties from section 3.2 of the paper live here:

1. **Physical separation.**  A :class:`Dram` bank belongs to a bus domain;
   cores can only reach banks their bus matrix connects them to (enforced in
   :mod:`repro.hw.bus`).  There is no "hypervisor bit" to flip — the model
   simply has no wire to hypervisor DRAM, which is why Guillotine model cores
   need no EPT.

2. **Executable-region lockdown.**  The paper: *"the MMU just tracks
   base+bound information for valid executable regions, and disallows PTE
   configurations that would enable read access to those regions or create
   new executable pages outside of those regions."*  :meth:`Mmu.lockdown`
   implements exactly that; afterwards the set of executable pages can never
   grow, executable pages can never become writable or readable, and their
   backing frames are frozen.  This is the mechanism that blocks runtime code
   injection and hence recursive self-improvement (experiment E3).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from itertools import compress

from repro.errors import LockdownViolation, MachineCheck, MemoryFault

#: Words per page.  Deliberately small so tests touch many pages cheaply.
PAGE_SIZE = 64

#: All stored words are 64-bit.
WORD_MASK = (1 << 64) - 1

#: What one all-zero page contributes to the JSON text :func:`words_digest`
#: hashes.
_ZERO_PAGE_JSON = ", ".join(["0"] * PAGE_SIZE).encode()


def words_digest(words: list[int], start: int = 0,
                 end: int | None = None) -> str:
    """``digest_of(words[start:end])`` for a list of ints: the SHA-256 of
    the JSON array text ``"[w0, w1, ...]"``
    (:func:`repro.hw.attestation.digest_of`), without building that text
    for the all-zero pages.

    The range is walked a page at a time (pages counted from index 0); a
    whole page of zeros contributes a constant fragment, so the Python
    cost follows the non-zero pages.  ``count(0)`` tests a page in C,
    comparing by identity first, several times faster than ``any()``."""
    if end is None:
        end = len(words)
    parts = []
    low = start
    while low < end:
        high = min(end, low - low % PAGE_SIZE + PAGE_SIZE)
        chunk = words[low:high]
        if chunk.count(0) == PAGE_SIZE:
            parts.append(_ZERO_PAGE_JSON)
        else:
            parts.append(", ".join(map(str, chunk)).encode())
        low = high
    return hashlib.sha256(b"[" + b", ".join(parts) + b"]").hexdigest()


class Dram:
    """A word-addressed DRAM bank.

    Addresses used throughout the simulator are *physical word addresses*
    within a bank.  Banks are named so the bus matrix and audit log can refer
    to them ("model_dram", "hv_dram", "io_dram").
    """

    #: Decoded-instruction cache bound (entries per bank).  Far above any
    #: real guest's code footprint, so eviction is a memory-safety valve,
    #: not a steady-state behaviour.
    DECODED_CAP = 4096

    #: Compiled-trace bound (traces per bank), FIFO-evicted like the
    #: decoded cache.  A victim is recompiled once its head pc runs hot
    #: again, so eviction affects Python cost only.
    TRACE_CAP = 256

    def __init__(self, name: str, size_words: int) -> None:
        if size_words <= 0 or size_words % PAGE_SIZE != 0:
            raise ValueError("DRAM size must be a positive multiple of PAGE_SIZE")
        self.name = name
        self.size = size_words
        self._words = [0] * size_words
        #: Write generation counter; attestation uses it to detect mutation.
        self.write_count = 0
        #: ECC (SECDED-style) protection.  The machine builder turns this on
        #: for hypervisor-private banks: a single flipped bit is corrected and
        #: scrubbed on read, anything worse raises :class:`MachineCheck` —
        #: detect-or-die, never silently serve corrupt hypervisor state.
        self.ecc_enabled = False
        self.ecc_corrections = 0
        self.ecc_machine_checks = 0
        #: Fault-injection state.  Both dicts are empty in normal operation,
        #: so the read path pays a single truthiness check and the simulated
        #: cycle counts are untouched (faults perturb *data*, never time).
        #: ``_corrupt`` maps address -> word as last written (pre-corruption);
        #: ``_stuck`` maps address -> ``(and_mask, or_mask)`` applied to every
        #: write (a stuck-at cell keeps reasserting itself).
        self._corrupt: dict[int, int] = {}
        self._stuck: dict[int, tuple[int, int]] = {}
        #: Physically-indexed decoded-instruction cache (local word address
        #: -> decoded Instruction).  Lives on the bank — decode is a pure
        #: function of the stored word, so every core sharing the bank may
        #: share the entry, and invalidation is exact: any write to the
        #: address (same core, sibling core, inspection bus, kill switch,
        #: guest reload) drops it.  Purely a Python-cost cache; it charges
        #: no cycles and is invisible to simulated time.  Bounded at
        #: :data:`DECODED_CAP` entries (FIFO eviction, counted in
        #: ``decoded_evictions``) so a bank-sized code footprint cannot
        #: pin a decoded object per word of DRAM.
        self.decoded: dict[int, object] = {}
        self.decoded_evictions = 0
        #: Compiled superblock traces over this bank's words (see
        #: :mod:`repro.hw.trace`).  ``_traces`` is FIFO-ordered by
        #: registration token; ``_trace_index`` maps each covered local
        #: word address to the traces spanning it, so the invalidation
        #: hooks below (the exact same sites that drop decoded entries)
        #: can kill every trace a write might have stale-ified.  Like the
        #: decoded cache this is Python-cost state: invisible to simulated
        #: time, shared by every core that executes from the bank.
        self._traces: dict[int, object] = {}
        self._trace_index: dict[int, list] = {}
        self._trace_seq = 0
        self.traces_compiled = 0
        self.trace_invalidations = 0
        self.trace_evictions = 0

    @property
    def num_frames(self) -> int:
        return self.size // PAGE_SIZE

    def cache_decoded(self, address: int, instruction: object) -> None:
        """Insert one decoded instruction, evicting FIFO at the cap.

        Runs only on decode misses, so the hit path never pays for the
        bound; eviction order does not affect correctness (a victim is
        simply re-decoded on its next fetch) or simulated time."""
        decoded = self.decoded
        if len(decoded) >= self.DECODED_CAP and address not in decoded:
            decoded.pop(next(iter(decoded)))
            self.decoded_evictions += 1
        decoded[address] = instruction

    # -- compiled traces (repro.hw.trace) -------------------------------------

    def register_trace(self, trace) -> None:
        """Admit a freshly compiled trace, FIFO-evicting at the cap."""
        if len(self._traces) >= self.TRACE_CAP:
            victim = self._traces[next(iter(self._traces))]
            self._kill_trace(victim)
            self.trace_evictions += 1
        token = self._trace_seq
        self._trace_seq += 1
        trace.token = token
        self._traces[token] = trace
        index = self._trace_index
        for address in range(trace.start, trace.start + trace.length):
            index.setdefault(address, []).append(trace)
        self.traces_compiled += 1

    def _kill_trace(self, trace) -> None:
        """Mark a trace dead and unlink it; a mid-flight execution sees
        ``alive`` go false and bails before its next fused instruction."""
        trace.alive = False
        self._traces.pop(trace.token, None)
        index = self._trace_index
        for address in range(trace.start, trace.start + trace.length):
            spanning = index.get(address)
            if spanning is not None:
                try:
                    spanning.remove(trace)
                except ValueError:
                    pass
                if not spanning:
                    del index[address]

    def invalidate_traces(self, address: int) -> None:
        """Kill every trace spanning ``address`` (a word was mutated)."""
        spanning = self._trace_index.get(address)
        if spanning:
            for trace in list(spanning):
                self._kill_trace(trace)
                self.trace_invalidations += 1

    def invalidate_all_traces(self) -> None:
        """Kill every trace over this bank (bulk reload / fault churn)."""
        if self._traces:
            self.trace_invalidations += len(self._traces)
            for trace in list(self._traces.values()):
                self._kill_trace(trace)

    def read(self, address: int) -> int:
        if not 0 <= address < self.size:
            raise MemoryFault(
                f"physical read outside {self.name} (addr={address})", address
            )
        if self._corrupt or self._stuck:
            return self._read_faulted(address)
        return self._words[address]

    def _read_faulted(self, address: int) -> int:
        """Read path while any injected fault is live on this bank."""
        word = self._words[address]
        if address in self._stuck:
            if self.ecc_enabled:
                self.ecc_machine_checks += 1
                raise MachineCheck(
                    f"{self.name}: uncorrectable stuck-at fault at word "
                    f"{address}"
                )
            return word
        original = self._corrupt.get(address)
        if original is None:
            return word
        if self.ecc_enabled:
            flipped = bin(word ^ original).count("1")
            if flipped <= 1:
                # SECDED: correct the single-bit error and scrub the word.
                self._words[address] = original
                del self._corrupt[address]
                self.decoded.pop(address, None)
                if self._trace_index:
                    self.invalidate_traces(address)
                self.ecc_corrections += 1
                return original
            self.ecc_machine_checks += 1
            raise MachineCheck(
                f"{self.name}: uncorrectable {flipped}-bit error at word "
                f"{address}"
            )
        return word

    def read_range(self, start: int, count: int) -> list[int]:
        """Read ``count`` consecutive words (mailbox payload marshalling).

        Semantically ``[self.read(start + i) for i in range(count)]``, and
        literally that while any injected fault is live; the fault-free
        path is a plain list slice, skipping per-word call overhead."""
        if start < 0 or start + count > self.size:
            raise MemoryFault(
                f"physical read outside {self.name} (addr={start})", start
            )
        if self._corrupt or self._stuck:
            return [self.read(start + offset) for offset in range(count)]
        return self._words[start:start + count]

    def write_range(self, start: int, values: list[int]) -> None:
        """Write consecutive words; equivalent to per-word :meth:`write`.

        The fault-free path batches the bounds check and the write-count
        bump (one generation tick per word, exactly like the loop), and
        only touches the decoded cache when it has entries."""
        if start < 0 or start + len(values) > self.size:
            raise MemoryFault(
                f"physical write outside {self.name} (addr={start})", start
            )
        if self._corrupt or self._stuck:
            for offset, value in enumerate(values):
                self.write(start + offset, value)
            return
        self._words[start:start + len(values)] = [
            value & WORD_MASK for value in values
        ]
        self.write_count += len(values)
        if self.decoded:
            for offset in range(len(values)):
                self.decoded.pop(start + offset, None)
        if self._trace_index:
            for offset in range(len(values)):
                self.invalidate_traces(start + offset)

    def write(self, address: int, value: int) -> None:
        if not 0 <= address < self.size:
            raise MemoryFault(
                f"physical write outside {self.name} (addr={address})", address
            )
        value &= WORD_MASK
        if self._stuck:
            masks = self._stuck.get(address)
            if masks is not None:
                value = (value & masks[0]) | masks[1]
        if self._corrupt:
            # Overwriting a soft error clears it.
            self._corrupt.pop(address, None)
        self._words[address] = value
        self.write_count += 1
        if self.decoded:
            # Self-modifying code: the stale decode must never be served.
            self.decoded.pop(address, None)
        if self._trace_index:
            self.invalidate_traces(address)

    # -- fault injection (repro.faults) ---------------------------------------

    def inject_bit_flip(self, address: int, bit: int) -> None:
        """Flip one stored bit in place — a soft error / SEU.

        The pre-fault word is remembered so ECC banks can model single-bit
        correction; a second flip at the same address upgrades the error to
        uncorrectable.
        """
        if not 0 <= address < self.size:
            raise MemoryFault(f"bit flip outside {self.name}", address)
        if not 0 <= bit < 64:
            raise ValueError("bit must be in [0, 64)")
        original = self._words[address]
        self._corrupt.setdefault(address, original)
        self._words[address] = original ^ (1 << bit)
        self.decoded.pop(address, None)
        # Traces never coexist with injected faults on their bank:
        # compilation refuses a faulted bank, and arming a fault kills
        # everything compiled while it was clean.
        self.invalidate_all_traces()

    def inject_stuck_bit(self, address: int, bit: int, value: int = 0) -> None:
        """Wedge one cell: the bit reads (and rewrites) as ``value`` forever
        — until :meth:`clear_faults` repairs the bank."""
        if not 0 <= address < self.size:
            raise MemoryFault(f"stuck-at fault outside {self.name}", address)
        if not 0 <= bit < 64:
            raise ValueError("bit must be in [0, 64)")
        if value not in (0, 1):
            raise ValueError("stuck-at value must be 0 or 1")
        if value:
            masks = (WORD_MASK, 1 << bit)
        else:
            masks = (WORD_MASK ^ (1 << bit), 0)
        self._stuck[address] = masks
        self._words[address] = (self._words[address] & masks[0]) | masks[1]
        self.decoded.pop(address, None)
        self.invalidate_all_traces()

    def clear_faults(self) -> None:
        """Repair the bank: restore soft-error words, release stuck cells."""
        for address, original in self._corrupt.items():
            self._words[address] = original
            self.decoded.pop(address, None)
        self._corrupt.clear()
        self._stuck.clear()
        # Repair changes stored words; anything compiled over them is stale.
        self.invalidate_all_traces()

    @property
    def faulted(self) -> bool:
        return bool(self._corrupt or self._stuck)

    def load_words(self, address: int, words: list[int]) -> None:
        """Bulk-load ``words`` starting at ``address`` (program loading)."""
        end = address + len(words)
        if address < 0 or end > self.size:
            raise MemoryFault(f"bulk load outside {self.name}", address)
        self._words[address:end] = [word & WORD_MASK for word in words]
        if self._corrupt or self._stuck:
            for target in range(address, end):
                self._corrupt.pop(target, None)
                masks = self._stuck.get(target)
                if masks is not None:
                    self._words[target] = (
                        self._words[target] & masks[0]
                    ) | masks[1]
        self.write_count += 1
        # Guest (re)load / forensic restore / kill-switch zeroing: drop every
        # decoded instruction for the bank rather than tracking the range.
        self.decoded.clear()
        self.invalidate_all_traces()

    def load_sparse(self, words: dict[int, int]) -> None:
        """Replace the whole bank with ``words`` (address -> word); every
        address not listed reads 0.

        Exactly ``load_words(0, image)`` of the full image (soft errors
        cleared, stuck-at cells re-asserted, one write generation, decoded
        cache and traces dropped) at the cost of the listed words."""
        image = [0] * self.size
        for address, word in words.items():
            if not 0 <= address < self.size:
                raise MemoryFault(f"bulk load outside {self.name}", address)
            image[address] = word & WORD_MASK
        for address, (and_mask, or_mask) in self._stuck.items():
            image[address] = (image[address] & and_mask) | or_mask
        self._words = image
        self._corrupt.clear()
        self.write_count += 1
        self.decoded.clear()
        self.invalidate_all_traces()

    def nonzero_words(self) -> list[tuple[int, int]]:
        """``(address, word)`` for every non-zero word, ascending.

        Each page is tested whole in C (``count(0)``), and only the pages
        holding a non-zero word are walked word by word."""
        words = self._words
        found: list[tuple[int, int]] = []
        for base in range(0, self.size, PAGE_SIZE):
            page = words[base:base + PAGE_SIZE]
            if page.count(0) != PAGE_SIZE:
                found += zip(compress(range(base, base + PAGE_SIZE), page),
                             filter(None, page))
        return found

    def digest(self, start: int = 0, length: int | None = None) -> str:
        """``digest_of(self.snapshot(start, length))``, hashing all-zero
        pages from a constant (:func:`words_digest`)."""
        if length is None:
            length = self.size - start
        if start < 0 or start + length > self.size:
            raise MemoryFault(f"digest outside {self.name}", start)
        return words_digest(self._words, start, start + length)

    def scrub(self) -> None:
        """Zero the bank and every derived cache/counter (machine reuse).

        A pooled machine released by one tenant must present factory-fresh
        DRAM to the next lease: stored words, injected faults, the decoded
        cache, compiled traces, and *all* telemetry counters are tenant
        state and are wiped together.  (``ecc_enabled`` is configuration
        and survives.)"""
        self._words = [0] * self.size
        self.write_count = 0
        self.ecc_corrections = 0
        self.ecc_machine_checks = 0
        self._corrupt.clear()
        self._stuck.clear()
        self.decoded.clear()
        self.decoded_evictions = 0
        self.invalidate_all_traces()
        self._traces.clear()
        self._trace_index.clear()
        self._trace_seq = 0
        self.traces_compiled = 0
        self.trace_invalidations = 0
        self.trace_evictions = 0

    def snapshot(self, start: int = 0, length: int | None = None) -> list[int]:
        """Copy a region out (used by the inspection bus and attestation)."""
        if length is None:
            length = self.size - start
        if start < 0 or start + length > self.size:
            raise MemoryFault(f"snapshot outside {self.name}", start)
        return self._words[start : start + length]


@dataclass(frozen=True)
class PageTableEntry:
    """Mapping of one virtual page to one physical frame with permissions."""

    ppn: int
    readable: bool = True
    writable: bool = True
    executable: bool = False

    @property
    def perm_bits(self) -> int:
        return (
            (0b100 if self.readable else 0)
            | (0b010 if self.writable else 0)
            | (0b001 if self.executable else 0)
        )

    @staticmethod
    def from_bits(ppn: int, bits: int) -> "PageTableEntry":
        return PageTableEntry(
            ppn=ppn,
            readable=bool(bits & 0b100),
            writable=bool(bits & 0b010),
            executable=bool(bits & 0b001),
        )


@dataclass(frozen=True)
class ExecRegion:
    """Base+bound description of the locked executable region (in vpns)."""

    base_vpn: int
    bound_vpn: int  # inclusive

    def contains(self, vpn: int) -> bool:
        return self.base_vpn <= vpn <= self.bound_vpn


class Mmu:
    """Per-core MMU: a single-level page table plus lockdown state.

    A real Guillotine MMU would use multi-level tables; one level keeps the
    walk-cost model simple (a fixed number of memory touches per miss) while
    preserving every property the paper cares about.
    """

    #: DRAM touches charged for a page-table walk on TLB miss.
    WALK_COST = 2

    def __init__(self, name: str = "mmu") -> None:
        self.name = name
        self._table: dict[int, PageTableEntry] = {}
        #: Bumped on every table mutation (map/unmap/lockdown/protect).
        #: TLB entries record the generation they were filled at; the core's
        #: TLB-hit fast path only trusts a cached PTE whose generation still
        #: matches, so authority changes that skip a TLB shootdown (direct
        #: ``mmu.map`` during program load, lockdown, weight protection) are
        #: re-checked against the live table exactly as before.
        self.generation = 0
        self._exec_region: ExecRegion | None = None
        #: Executable-page contents hash-frozen at lockdown (vpn -> ppn).
        self._locked_exec: dict[int, int] = {}
        #: Weight-containing pages frozen by :meth:`protect_weights`
        #: (vpn -> ppn).  Section 4: Guillotine prevents model cores from
        #: "reading, modifying, and creating executable pages or
        #: weight-containing pages" — the anti-weight-theft sibling of the
        #: executable lockdown.
        self._weight_region: ExecRegion | None = None
        self._locked_weights: dict[int, int] = {}

    # -- mapping -------------------------------------------------------------

    def map(self, vpn: int, entry: PageTableEntry) -> None:
        """Install or replace a PTE, subject to lockdown rules."""
        if vpn < 0 or entry.ppn < 0:
            raise MemoryFault(f"negative page number (vpn={vpn}, ppn={entry.ppn})")
        self._check_lockdown(vpn, entry)
        self.generation += 1
        self._table[vpn] = entry

    def unmap(self, vpn: int) -> None:
        if self.locked and self._exec_region.contains(vpn):
            raise LockdownViolation(
                f"cannot unmap locked executable page vpn={vpn}"
            )
        if vpn in self._locked_weights:
            raise LockdownViolation(
                f"cannot unmap protected weight page vpn={vpn}"
            )
        self.generation += 1
        self._table.pop(vpn, None)

    def lookup(self, vpn: int) -> PageTableEntry | None:
        return self._table.get(vpn)

    def translate(self, vaddr: int, *, write: bool = False,
                  execute: bool = False) -> int:
        """Translate a virtual word address; raises :class:`MemoryFault` on
        unmapped pages or permission violations."""
        vpn, offset = divmod(vaddr, PAGE_SIZE)
        entry = self._table.get(vpn)
        if entry is None:
            raise MemoryFault(f"unmapped virtual address {vaddr}", vaddr)
        if execute:
            if not entry.executable:
                raise MemoryFault(f"execute of non-executable page {vpn}", vaddr)
        elif write:
            if not entry.writable:
                raise MemoryFault(f"write to read-only page {vpn}", vaddr)
        elif not entry.readable:
            raise MemoryFault(f"read of unreadable page {vpn}", vaddr)
        return entry.ppn * PAGE_SIZE + offset

    # -- lockdown -------------------------------------------------------------

    @property
    def locked(self) -> bool:
        return self._exec_region is not None

    @property
    def exec_region(self) -> ExecRegion | None:
        return self._exec_region

    def executable_vpns(self) -> set[int]:
        """The set of currently executable virtual pages."""
        return {vpn for vpn, e in self._table.items() if e.executable}

    def lockdown(self, base_vpn: int, bound_vpn: int) -> None:
        """Freeze the executable region to ``[base_vpn, bound_vpn]``.

        After this call:

        * every executable page inside the region becomes execute-only
          (no read, no write) — the paper's defence against a model reading
          or rewriting its own code/weights;
        * pages outside the region can never become executable;
        * the region itself can never be unmapped or remapped.

        Only the control bus invokes this (a hypervisor-core privilege).
        """
        if self.locked:
            raise LockdownViolation("MMU already locked down")
        if base_vpn > bound_vpn:
            raise ValueError("base_vpn must be <= bound_vpn")
        self.generation += 1
        region = ExecRegion(base_vpn, bound_vpn)
        # Any executable page outside the region is a configuration error.
        for vpn, entry in self._table.items():
            if entry.executable and not region.contains(vpn):
                raise LockdownViolation(
                    f"executable page vpn={vpn} outside lockdown region"
                )
        self._exec_region = region
        # Demote in-region executable pages to execute-only, record frames.
        for vpn in list(self._table):
            entry = self._table[vpn]
            if region.contains(vpn) and entry.executable:
                self._table[vpn] = PageTableEntry(
                    ppn=entry.ppn, readable=False, writable=False, executable=True
                )
                self._locked_exec[vpn] = entry.ppn
        # Reject pre-existing writable/readable aliases of locked frames.
        locked_frames = set(self._locked_exec.values())
        for vpn, entry in self._table.items():
            if vpn in self._locked_exec:
                continue
            if entry.ppn in locked_frames and (entry.readable or entry.writable):
                self._exec_region = None
                self._locked_exec.clear()
                raise LockdownViolation(
                    f"vpn={vpn} aliases code frame ppn={entry.ppn}; "
                    "unmap it before lockdown"
                )

    # -- weight-page protection (section 4) -----------------------------------

    @property
    def weights_protected(self) -> bool:
        return self._weight_region is not None

    @property
    def weight_region(self) -> ExecRegion | None:
        return self._weight_region

    def protect_weights(self, base_vpn: int, bound_vpn: int) -> None:
        """Freeze the weight-containing region ``[base_vpn, bound_vpn]``.

        Weight pages stay *readable* (the inference computation needs them)
        but become immutable: no writes, no remapping, no unmapping, and no
        writable alias may ever target their frames.  Combined with the
        port discipline — which screens anything weight-shaped on the way
        out — this is the simulation's rendering of the paper's defence
        against weight modification and theft.
        """
        if self.weights_protected:
            raise LockdownViolation("weight region already protected")
        if base_vpn > bound_vpn:
            raise ValueError("base_vpn must be <= bound_vpn")
        self.generation += 1
        region = ExecRegion(base_vpn, bound_vpn)
        for vpn in range(base_vpn, bound_vpn + 1):
            entry = self._table.get(vpn)
            if entry is None:
                raise LockdownViolation(
                    f"weight page vpn={vpn} is not mapped"
                )
            if entry.executable:
                raise LockdownViolation(
                    f"weight page vpn={vpn} must not be executable"
                )
        self._weight_region = region
        for vpn in range(base_vpn, bound_vpn + 1):
            entry = self._table[vpn]
            self._table[vpn] = PageTableEntry(
                ppn=entry.ppn, readable=True, writable=False,
                executable=False,
            )
            self._locked_weights[vpn] = entry.ppn
        # Reject pre-existing writable aliases of weight frames.
        frames = set(self._locked_weights.values())
        for vpn, entry in self._table.items():
            if vpn in self._locked_weights:
                continue
            if entry.ppn in frames and entry.writable:
                self._weight_region = None
                self._locked_weights.clear()
                raise LockdownViolation(
                    f"vpn={vpn} is a writable alias of weight frame "
                    f"ppn={entry.ppn}; unmap it before protecting"
                )

    def _check_lockdown(self, vpn: int, entry: PageTableEntry) -> None:
        if self.weights_protected:
            if vpn in self._locked_weights:
                raise LockdownViolation(
                    f"PTE update for protected weight page vpn={vpn}"
                )
            if entry.ppn in self._locked_weights.values() and entry.writable:
                raise LockdownViolation(
                    f"vpn={vpn} would writably alias weight frame "
                    f"ppn={entry.ppn}"
                )
        if not self.locked:
            return
        region = self._exec_region
        assert region is not None
        if region.contains(vpn):
            if vpn in self._locked_exec:
                # Locked executable page: any change is a violation.
                raise LockdownViolation(
                    f"PTE update for locked executable page vpn={vpn}"
                )
            # An in-region vpn that was *not* executable at lockdown time may
            # be remapped as data, but may never become executable: pointing
            # a fresh exec-only PTE at an attacker-written frame would be
            # code injection with extra steps.
            if entry.executable:
                raise LockdownViolation(
                    f"in-region page vpn={vpn} was not executable at lockdown"
                )
        else:
            if entry.executable:
                raise LockdownViolation(
                    f"new executable page vpn={vpn} outside locked region"
                )
        # Aliasing defence: no mapping anywhere may grant read or write
        # access to a physical frame that backs locked executable code.
        if entry.ppn in self._locked_exec.values() and (
            entry.readable or entry.writable
        ):
            raise LockdownViolation(
                f"vpn={vpn} aliases locked code frame ppn={entry.ppn}"
            )

    # -- introspection for attestation / tests -------------------------------

    def table_snapshot(self) -> dict[int, PageTableEntry]:
        return dict(self._table)

    # -- checkpoint/restore (fleet migration) ---------------------------------

    def restore_translation(
        self,
        table: dict[int, PageTableEntry],
        exec_region: tuple[int, int] | None,
        weight_region: tuple[int, int] | None,
    ) -> None:
        """Replace the whole translation state from a checkpoint snapshot.

        The snapshot is replayed through the normal privileged interfaces:
        entries are mapped while the MMU is unlocked, then
        :meth:`lockdown` / :meth:`protect_weights` are re-issued for the
        checkpointed regions.  Because the snapshot was taken from an MMU
        that already satisfied the lockdown invariants, the re-issued calls
        re-derive the locked-frame bookkeeping and cannot fail; anything
        else would mean the checkpoint was forged, and the
        :class:`LockdownViolation` propagates to the caller.
        """
        self._exec_region = None
        self._locked_exec.clear()
        self._weight_region = None
        self._locked_weights.clear()
        self._table.clear()
        self.generation += 1
        for vpn in sorted(table):
            self.map(vpn, table[vpn])
        if exec_region is not None:
            self.lockdown(exec_region[0], exec_region[1])
        if weight_region is not None:
            self.protect_weights(weight_region[0], weight_region[1])
