"""Scale-out application workloads (the paper's Setup-1 substrate).

The paper's first testbed runs two CloudSuite web-search clusters (one
Tomcat front-end plus two Nutch index-serving nodes each) on Xen, driving
them with Faban clients whose population follows sine/cosine waves.  This
subpackage simulates that stack:

* :mod:`repro.workloads.clients` — client-population load shapes,
* :mod:`repro.workloads.websearch` — the cluster model mapping client
  count to per-ISN CPU demand (with the load imbalance of Fig 1/4),
* :mod:`repro.workloads.queueing` — a fork-join processor-sharing
  discrete-event simulator producing the response-time distributions of
  Fig 5,
* :mod:`repro.workloads.requests` — the request-level workload catalog
  (open-loop Poisson, Zipf key popularity, closed-loop clients;
  lognormal / Pareto / bimodal "ETC-style" service laws) under a
  versioned RNG stream contract,
* :mod:`repro.workloads.dispatch` — a pick-one-backend dispatch layer
  (random, round-robin, join-shortest-queue) over the same
  processor-sharing regions, scoring tail-latency SLOs.
"""

from repro.workloads.clients import (
    ClientLoad,
    CosineClients,
    FlashCrowdClients,
    SineClients,
    TraceClients,
)
from repro.workloads.websearch import WebSearchCluster, WebSearchClusterConfig
from repro.workloads.queueing import (
    ForkJoinQueueingSimulator,
    QueueingConfig,
    QueueingResult,
    Region,
    SimCluster,
)
from repro.workloads.requests import (
    WORKLOAD_LAYOUTS,
    BimodalService,
    ClosedLoopClients,
    LognormalService,
    ParetoService,
    PoissonArrivals,
    RequestStream,
    ServiceDistribution,
    ZipfKeyArrivals,
)
from repro.workloads.dispatch import (
    DISPATCH_POLICIES,
    DispatchConfig,
    DispatchResult,
    RequestDispatchSimulator,
)

__all__ = [
    "ClientLoad",
    "SineClients",
    "CosineClients",
    "FlashCrowdClients",
    "TraceClients",
    "WebSearchCluster",
    "WebSearchClusterConfig",
    "ForkJoinQueueingSimulator",
    "QueueingConfig",
    "QueueingResult",
    "Region",
    "SimCluster",
    "WORKLOAD_LAYOUTS",
    "RequestStream",
    "ServiceDistribution",
    "LognormalService",
    "ParetoService",
    "BimodalService",
    "PoissonArrivals",
    "ZipfKeyArrivals",
    "ClosedLoopClients",
    "DISPATCH_POLICIES",
    "DispatchConfig",
    "DispatchResult",
    "RequestDispatchSimulator",
]
