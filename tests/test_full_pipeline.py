"""End-to-end integration: generator -> manager -> decisions -> accounting.

Exercises the whole public API the way a downstream user would: generate
a workload, drive the PowerManager period by period, read each
decision's placement and frequencies, and account power by hand —
cross-checking the numbers against the replay engine's for the same
traces and approach.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    ManagerConfig,
    PowerManager,
    ProposedApproach,
    ReplayConfig,
    XEON_E5410,
    generate_datacenter_traces,
    refine_trace_set,
    replay,
)
from repro.traces.datacenter import DatacenterTraceConfig

SAMPLES_PER_PERIOD = 120  # 10 minutes at 5-second samples
NUM_SERVERS = 8


@pytest.fixture(scope="module")
def fine_traces():
    coarse, _ = generate_datacenter_traces(
        DatacenterTraceConfig(num_vms=10, num_clusters=3, duration_s=2 * 3600.0, seed=63)
    )
    return refine_trace_set(
        coarse, 5.0, sigma=0.05, rng=np.random.default_rng(63), cap=4.0
    )


class TestManualLoopMatchesEngine:
    def test_power_accounting_consistent(self, fine_traces):
        """Driving PowerManager by hand reproduces the engine's energy."""
        tperiod_s = SAMPLES_PER_PERIOD * fine_traces.period_s

        # --- manual loop --------------------------------------------------
        manager = PowerManager(
            ManagerConfig(
                n_cores=8,
                freq_levels_ghz=(2.0, 2.3),
                max_servers=NUM_SERVERS,
                default_reference=4.0,
            )
        )
        name_to_row = {n: i for i, n in enumerate(fine_traces.names)}
        matrix = fine_traces.matrix
        periods = fine_traces.num_samples // SAMPLES_PER_PERIOD

        manual_energy = 0.0
        previous = None
        total_migrations = 0
        for period in range(1, periods):
            window = fine_traces.slice(
                (period - 1) * SAMPLES_PER_PERIOD, period * SAMPLES_PER_PERIOD
            )
            decision = manager.decide(window)
            total_migrations += decision.placement.migrations_from(previous)
            previous = decision.placement

            start = period * SAMPLES_PER_PERIOD
            stop = start + SAMPLES_PER_PERIOD
            for server, members in decision.placement.by_server().items():
                freq_ghz = decision.frequencies[server].freq_ghz
                rows = [name_to_row[vm] for vm in members]
                demand = matrix[rows, start:stop].sum(axis=0)
                for sample in demand:
                    manual_energy += (
                        XEON_E5410.power_w(float(sample), freq_ghz)
                        * fine_traces.period_s
                    )

        # --- engine -----------------------------------------------------
        approach = ProposedApproach(
            8, (2.0, 2.3), max_servers=NUM_SERVERS, default_reference=4.0
        )
        result = replay(
            fine_traces,
            XEON_E5410,
            NUM_SERVERS,
            approach,
            ReplayConfig(tperiod_s=tperiod_s),
        )

        # The engine's ProposedApproach uses a multi-window cost horizon
        # while PowerManager is single-window, so placements can differ;
        # energies must agree to within a few percent and migrations be
        # of the same order.
        assert manual_energy == pytest.approx(result.energy_j, rel=0.08)
        assert total_migrations <= result.num_periods * len(fine_traces.names)

    def test_decisions_keep_fleet_feasible(self, fine_traces):
        """At every period each decision respects server capacity."""
        manager = PowerManager(
            ManagerConfig(
                n_cores=8,
                freq_levels_ghz=(2.0, 2.3),
                max_servers=NUM_SERVERS,
                default_reference=4.0,
            )
        )
        periods = fine_traces.num_samples // SAMPLES_PER_PERIOD
        for period in range(1, periods):
            window = fine_traces.slice(
                (period - 1) * SAMPLES_PER_PERIOD, period * SAMPLES_PER_PERIOD
            )
            decision = manager.decide(window)
            references = decision.predicted_references
            assert decision.placement.num_servers <= NUM_SERVERS
            for server, members in decision.placement.by_server().items():
                committed = sum(references[vm] for vm in members)
                assert committed <= XEON_E5410.max_capacity + 1e-9
                assert decision.frequencies[server].freq_ghz in XEON_E5410.freq_levels_ghz
