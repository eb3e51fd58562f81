"""Server capacity model.

The paper assumes a homogeneous fleet where each server has ``Ncore``
cores and a discrete frequency ladder.  Capacity is expressed in
cores-at-fmax: running at frequency ``f`` a server can serve
``Ncore * f / fmax`` of demand, which is the capacity check behind both
the allocator's ``Rem_i`` bookkeeping and the violation metric of
Table II.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.infrastructure.dvfs import FrequencyLadder
from repro.infrastructure.power import (
    DvfsPowerModel,
    OPTERON_6174_POWER,
    XEON_E5410_POWER,
)

__all__ = ["ServerSpec", "XEON_E5410", "OPTERON_6174"]


@dataclass(frozen=True)
class ServerSpec:
    """Immutable description of a server model.

    Parameters
    ----------
    name:
        Human-readable model name.
    n_cores:
        Number of physical cores (the paper's ``Ncore``).
    freq_levels_ghz:
        Supported frequency levels; must match the power model's operating
        points.
    power_model:
        The :class:`DvfsPowerModel` used for energy accounting.
    """

    name: str
    n_cores: int
    freq_levels_ghz: tuple[float, ...]
    power_model: DvfsPowerModel

    def __post_init__(self) -> None:
        if self.n_cores <= 0:
            raise ValueError("a server needs at least one core")
        levels = tuple(sorted(self.freq_levels_ghz))
        if not levels:
            raise ValueError("need at least one frequency level")
        object.__setattr__(self, "freq_levels_ghz", levels)
        missing = [f for f in levels if f not in self.power_model.frequencies_ghz]
        if missing:
            raise ValueError(
                f"frequency levels {missing} are not operating points of the power model"
            )

    @property
    def fmax_ghz(self) -> float:
        """Maximum frequency level."""
        return self.freq_levels_ghz[-1]

    @property
    def fmin_ghz(self) -> float:
        """Minimum frequency level."""
        return self.freq_levels_ghz[0]

    @property
    def ladder(self) -> FrequencyLadder:
        """The server's frequency ladder."""
        return FrequencyLadder(self.freq_levels_ghz)

    def capacity_at(self, freq_ghz: float) -> float:
        """Serveable demand (cores-at-fmax) when running at ``freq_ghz``."""
        if freq_ghz not in self.freq_levels_ghz:
            raise ValueError(
                f"{freq_ghz} GHz is not a level of {self.name} (valid: {self.freq_levels_ghz})"
            )
        return self.n_cores * freq_ghz / self.fmax_ghz

    @property
    def max_capacity(self) -> float:
        """Capacity at ``fmax`` — the allocator's per-bin budget ``Cap_i``."""
        return float(self.n_cores)

    def busy_fraction(self, demand_cores: float, freq_ghz: float) -> float:
        """Busy fraction at ``freq_ghz`` for a demand in cores-at-fmax.

        Saturates at 1.0: demand beyond capacity queues up (a QoS
        violation) rather than consuming nonexistent cycles.
        """
        if demand_cores < 0:
            raise ValueError("demand must be non-negative")
        capacity = self.capacity_at(freq_ghz)
        if capacity == 0:
            return 1.0
        return min(demand_cores / capacity, 1.0)

    def power_w(self, demand_cores: float, freq_ghz: float, active: bool = True) -> float:
        """Server power for a demand in cores-at-fmax at ``freq_ghz``."""
        busy = self.busy_fraction(demand_cores, freq_ghz)
        return self.power_model.power_w(busy, freq_ghz, active=active)


#: Setup-2 fleet member: Intel Xeon E5410, 8 cores, 2.0 / 2.3 GHz.
XEON_E5410 = ServerSpec(
    name="Intel Xeon E5410",
    n_cores=8,
    freq_levels_ghz=(2.0, 2.3),
    power_model=XEON_E5410_POWER,
)

#: Setup-1 testbed: DELL PowerEdge R815 with AMD Opteron 6174, used with
#: 8 cores and 1.9 / 2.1 GHz in the paper's web-search experiments.
OPTERON_6174 = ServerSpec(
    name="AMD Opteron 6174 (PowerEdge R815)",
    n_cores=8,
    freq_levels_ghz=(1.9, 2.1),
    power_model=OPTERON_6174_POWER,
)
