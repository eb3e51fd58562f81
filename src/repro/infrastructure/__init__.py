"""Datacenter hardware model: servers, power and DVFS.

The paper assumes homogeneous servers, each with ``Ncore`` cores and a
small discrete ladder of voltage/frequency levels (the two testbeds use
AMD Opteron 6174 at 1.9/2.1 GHz and Intel Xeon E5410 at 2.0/2.3 GHz), and
uses the virtualized-server power model of Pedram & Hwang (ICPPW 2010).
This subpackage provides those substrates:

* :class:`~repro.infrastructure.server.ServerSpec` — capacity in
  cores-at-fmax units and the two testbeds' presets,
* :class:`~repro.infrastructure.power.DvfsPowerModel` — idle + dynamic
  power with voltage-squared frequency scaling, plus calibrated presets,
* :class:`~repro.infrastructure.dvfs.FrequencyLadder` and the generic
  scaling policies shared by the proposed scheme and the baselines.
"""

from repro.infrastructure.power import (
    DvfsPowerModel,
    OPTERON_6174_POWER,
    XEON_E5410_POWER,
)
from repro.infrastructure.server import ServerSpec, OPTERON_6174, XEON_E5410
from repro.infrastructure.dvfs import (
    FrequencyLadder,
    StaticVfSetting,
    UtilizationTrackingPolicy,
)

__all__ = [
    "ServerSpec",
    "DvfsPowerModel",
    "FrequencyLadder",
    "StaticVfSetting",
    "UtilizationTrackingPolicy",
    "XEON_E5410",
    "OPTERON_6174",
    "XEON_E5410_POWER",
    "OPTERON_6174_POWER",
]
