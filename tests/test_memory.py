"""Per-layer memory probes: traced peaks of the two largest kernels.

``tracemalloc`` counts the buffers numpy allocates, so these are byte
counts, the same on any box.  Each probe divides a traced peak by the
size of what the layer must hold anyway:

* trace synthesis: ``synthesize_population``'s peak over its output, so
  1.0 means the fine matrix is the only full-size buffer;
* the decide pipeline: the state a warm exact ``PowerManager`` keeps
  between periods, and one more decide's peak above it, in N×N float64
  units (the Eqn-1 assembly's temporaries were the peak's largest term;
  full-size horizon parts and the allocator's reindex cache were most of
  the kept state).

The bounds sit between the readings before and after the kernels were
changed to hold less (see docs/performance.md).
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.core.manager import ManagerConfig, PowerManager
from repro.infrastructure.server import XEON_E5410
from repro.traces.synthesis import synthesize_population
from repro.traces.trace import ReferenceSpec, TraceSet

#: Synthesis read 2.02 with a full-size copy of the per-window scale.
SYNTHESIS_MAX_PEAK_VS_OUTPUT = 1.10

DECIDE_VMS = 700
DECIDE_WINDOW_SAMPLES = 120
DECIDE_HORIZON = 3
DECIDE_WARM_DECIDES = 5
#: Warm decide transient bounds, N² float64 units: peak references read
#: 4.14 with the numerator / quotient / select assembly and 2.14 without
#: it; p90 through the p2 marker fold read 5.64, then 3.75 while the new
#: window's marker part (3.25 N²) was reduced beside a full horizon.
DECIDE_MAX_TRANSIENT = {"peak": 3.5, "p90-p2": 3.2}
#: Warm peak-reference decider's kept state, N² float64 units: 6.06 with
#: N×N horizon parts and the allocator's cross-period reindex cache, 2.56
#: with condensed parts and no cache.
DECIDE_MAX_RETAINED = 3.0


def synthesis_peak_vs_output(num_vms: int, num_windows: int, factor: int) -> float:
    """Traced peak of one population refinement over its output bytes."""
    means = np.random.default_rng(num_vms).uniform(0.0, 3.5, (num_vms, num_windows))
    rng = np.random.default_rng(1)
    tracemalloc.start()
    try:
        fine = synthesize_population(means, 5.0 * factor, 5.0, sigma=0.35, rng=rng)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / fine.nbytes


def decide_memory(
    num_vms: int, reference: ReferenceSpec, horizon_mode: str
) -> tuple[float, float]:
    """A warm exact decider's kept state and one more decide's traced
    peak above it, both in N² float64s.

    Tracing starts before the manager is built, so every buffer it keeps
    across periods counts in the steady state; the windows are drawn
    before, so they count in neither.
    """
    rng = np.random.default_rng(num_vms)
    names = [f"vm{i:04d}" for i in range(num_vms)]
    windows = [
        TraceSet.from_matrix(
            rng.uniform(0.0, 2.0, (num_vms, DECIDE_WINDOW_SAMPLES)), names, 5.0
        )
        for _ in range(DECIDE_WARM_DECIDES + 1)
    ]
    tracemalloc.start()
    try:
        manager = PowerManager(
            ManagerConfig(
                n_cores=XEON_E5410.n_cores,
                freq_levels_ghz=XEON_E5410.freq_levels_ghz,
                reference=reference,
                default_reference=4.0,
                horizon_periods=DECIDE_HORIZON,
                horizon_mode=horizon_mode,
            )
        )
        for window in windows[:-1]:
            manager.decide(window)
        steady, _peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        manager.decide(windows[-1])
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    unit = num_vms * num_vms * 8
    return steady / unit, (peak - steady) / unit


def test_synthesis_fills_only_its_output():
    ratio = synthesis_peak_vs_output(200, 48, 60)
    assert ratio <= SYNTHESIS_MAX_PEAK_VS_OUTPUT, (
        f"synthesize_population peaked at {ratio:.2f}x its output, "
        f"bound {SYNTHESIS_MAX_PEAK_VS_OUTPUT}x"
    )


@pytest.mark.parametrize(
    ("label", "reference", "horizon_mode"),
    [("peak", ReferenceSpec(), "exact"), ("p90-p2", ReferenceSpec(90.0), "p2")],
    ids=["peak", "p90-p2"],
)
def test_warm_exact_decide_transient(label, reference, horizon_mode):
    _retained, transient = decide_memory(DECIDE_VMS, reference, horizon_mode)
    bound = DECIDE_MAX_TRANSIENT[label]
    assert transient <= bound, (
        f"warm {label} decide at N={DECIDE_VMS} peaked {transient:.2f} N² float64 "
        f"above steady state, bound {bound}"
    )


def test_warm_exact_decider_retained_state():
    retained, _transient = decide_memory(DECIDE_VMS, ReferenceSpec(), "exact")
    assert retained <= DECIDE_MAX_RETAINED, (
        f"warm peak-reference decider at N={DECIDE_VMS} keeps {retained:.2f} N² "
        f"float64 between decides, bound {DECIDE_MAX_RETAINED}"
    )
