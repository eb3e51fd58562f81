"""Correlation-aware VM allocation for energy-efficient datacenters.

A faithful, self-contained reproduction of Kim, Ruggiero, Atienza and
Lederberger, *"Correlation-Aware Virtual Machine Allocation for
Energy-Efficient Datacenters"*, DATE 2013 — the correlation cost metric
(Eqn 1), the weighted per-server cost (Eqn 2), the First-Fit-Decreasing
correlation-aware allocator (Fig 2, Eqn 3), the aggressive-yet-safe v/f
controller (Eqn 4), the BFD and PCP baselines, and every substrate the
evaluation needs (trace synthesis, datacenter workload generation, server
power/DVFS models, a web-search cluster model with a fork-join queueing
simulator, and a trace-replay consolidation engine).

Quickstart::

    import numpy as np
    from repro import (
        DatacenterTraceConfig, generate_datacenter_traces, refine_trace_set,
        ProposedApproach, BfdApproach, ReplayConfig, replay, XEON_E5410,
    )

    coarse, _ = generate_datacenter_traces(DatacenterTraceConfig(seed=1))
    fine = refine_trace_set(coarse, fine_period_s=5.0,
                            rng=np.random.default_rng(1), cap=4.0)
    approach = ProposedApproach(n_cores=8, freq_levels_ghz=(2.0, 2.3),
                                max_servers=20)
    result = replay(fine, XEON_E5410, 20, approach, ReplayConfig())
    print(result.avg_power_w, result.max_violation_pct)

See ``examples/`` for complete scenarios and ``benchmarks/`` for the
harnesses regenerating every table and figure of the paper.
"""

from repro.analysis.stats import PSquarePercentile, RunningMax, pearson, percentile
from repro.baselines import (
    PcpConfig,
    best_fit_decreasing,
    first_fit_decreasing,
    peak_clustering_placement,
)
from repro.core import (
    AllocationConfig,
    CapacityError,
    CorrelationAwareAllocator,
    CostMatrix,
    ManagerConfig,
    Placement,
    PowerManager,
    StreamingCostMatrix,
    correlation_aware_frequency,
    estimate_active_servers,
    peak_sum_frequency,
    prospective_server_cost,
    server_correlation_cost,
)
from repro.infrastructure import (
    DvfsPowerModel,
    FrequencyLadder,
    OPTERON_6174,
    ServerSpec,
    UtilizationTrackingPolicy,
    XEON_E5410,
)
from repro.prediction import (
    EwmaPredictor,
    LastValuePredictor,
    MaxOverHistoryPredictor,
    MovingAveragePredictor,
)
from repro.sim import (
    BfdApproach,
    FfdApproach,
    PcpApproach,
    ProposedApproach,
    ReplayConfig,
    ReplayResult,
    comparison_rows,
    normalized_power,
    replay,
)
from repro.traces import (
    DatacenterTraceConfig,
    ReferenceSpec,
    TraceSet,
    UtilizationTrace,
    generate_datacenter_traces,
    refine_trace_set,
    select_top_utilization,
    synthesize_fine_grained,
)
from repro.workloads import (
    CosineClients,
    ForkJoinQueueingSimulator,
    QueueingConfig,
    Region,
    SimCluster,
    SineClients,
    WebSearchCluster,
    WebSearchClusterConfig,
)

__version__ = "0.8.0"

__all__ = [
    "__version__",
    # analysis
    "percentile",
    "pearson",
    "RunningMax",
    "PSquarePercentile",
    # traces
    "UtilizationTrace",
    "TraceSet",
    "ReferenceSpec",
    "synthesize_fine_grained",
    "refine_trace_set",
    "DatacenterTraceConfig",
    "generate_datacenter_traces",
    "select_top_utilization",
    # infrastructure
    "ServerSpec",
    "DvfsPowerModel",
    "FrequencyLadder",
    "UtilizationTrackingPolicy",
    "XEON_E5410",
    "OPTERON_6174",
    # core
    "CostMatrix",
    "StreamingCostMatrix",
    "Placement",
    "server_correlation_cost",
    "prospective_server_cost",
    "AllocationConfig",
    "CorrelationAwareAllocator",
    "CapacityError",
    "correlation_aware_frequency",
    "peak_sum_frequency",
    "estimate_active_servers",
    "PowerManager",
    "ManagerConfig",
    # baselines
    "best_fit_decreasing",
    "first_fit_decreasing",
    "peak_clustering_placement",
    "PcpConfig",
    # prediction
    "LastValuePredictor",
    "MovingAveragePredictor",
    "EwmaPredictor",
    "MaxOverHistoryPredictor",
    # sim
    "ProposedApproach",
    "BfdApproach",
    "FfdApproach",
    "PcpApproach",
    "ReplayConfig",
    "ReplayResult",
    "replay",
    "comparison_rows",
    "normalized_power",
    # workloads
    "SineClients",
    "CosineClients",
    "WebSearchCluster",
    "WebSearchClusterConfig",
    "ForkJoinQueueingSimulator",
    "QueueingConfig",
    "Region",
    "SimCluster",
]
