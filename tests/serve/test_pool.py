"""Machine-reuse hygiene: a scrubbed pooled machine is indistinguishable
from a never-leased one, on every interpreter engine.

This is the regression test for the serve layer's scariest failure mode:
tenant state — DRAM contents, TLB/cache/predictor state, decoded and
trace caches, audit-log records, even the cycle counter — surviving a
release and leaking into the next tenant's lease.
"""

from __future__ import annotations

import pytest

from repro.hw.machine import ENGINES, machine_fingerprint
from repro.serve.pool import MachinePool
from repro.serve.service import ServiceConfig, _execute
from repro.serve.workload import build_program


def _run(machine, profile, *, engine, seed=1234):
    config = ServiceConfig(engine=engine)
    return _execute(machine, build_program(profile, seed), config)


@pytest.mark.parametrize("engine", ENGINES)
class TestScrubHygiene:
    def test_faulted_guest_leaves_no_trace_after_release(self, engine):
        pool = MachinePool(1, engine)
        machine = pool.machines[0]
        pristine = machine_fingerprint(machine)

        index, leased = pool.lease()
        leased.log.record("serve", "serve.lease", tenant="tenant-99-victim")
        outcome, reason, _ = _run(leased, "crasher", engine=engine)
        assert (outcome, reason) == ("contained", "fault")
        # The run left observable dirt; the fingerprint must see it.
        assert machine_fingerprint(leased) != pristine

        pool.release(index)
        assert machine_fingerprint(machine) == pristine
        assert len(machine.log) == 0

    def test_budget_killed_guest_leaves_no_trace_after_release(self, engine):
        pool = MachinePool(1, engine)
        machine = pool.machines[0]
        pristine = machine_fingerprint(machine)

        index, leased = pool.lease()
        outcome, reason, cycles = _run(leased, "spinner", engine=engine)
        assert (outcome, reason) == ("contained", "budget")
        assert cycles >= ServiceConfig().budget_cycles
        if engine == "trace":
            # The spin loop ran fused, so the scrub must clear a live
            # compiled trace, not just heat counters.
            assert leased.model_cores[0].trace_steps > 0

        pool.release(index)
        assert machine_fingerprint(machine) == pristine

    def test_next_tenant_runs_exactly_like_on_a_fresh_machine(self, engine):
        """Cycle counts after a hostile predecessor match a cold machine —
        the reuse cannot even perturb *timing*, let alone content."""
        reference = MachinePool(1, engine).machines[0]
        _, _, reference_cycles = _run(reference, "batcher", engine=engine)

        pool = MachinePool(1, engine)
        index, machine = pool.lease()
        _run(machine, "crasher", engine=engine)
        pool.release(index)
        index, machine = pool.lease()
        outcome, _, cycles = _run(machine, "batcher", engine=engine)
        assert outcome == "completed"
        assert cycles == reference_cycles


class TestPoolDiscipline:
    def test_lease_is_lowest_index_first_and_bounded(self):
        pool = MachinePool(2)
        first, _ = pool.lease()
        second, _ = pool.lease()
        assert (first, second) == (0, 1)
        assert pool.lease() is None
        assert pool.busy == 2
        pool.release(1)
        assert pool.lease()[0] == 1

    def test_release_of_an_unleased_machine_is_refused(self):
        pool = MachinePool(1)
        with pytest.raises(ValueError):
            pool.release(0)

    def test_counters_track_leases_and_scrubs(self):
        pool = MachinePool(1)
        index, _ = pool.lease()
        pool.release(index)
        index, _ = pool.lease()
        pool.release(index)
        assert pool.leases == 2
        assert pool.scrubs == 2
