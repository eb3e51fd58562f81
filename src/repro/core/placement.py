"""Placement value type shared by the proposed allocator and the baselines.

A placement is an immutable assignment of VM ids to server indices plus
the number of servers it was computed for.  Keeping it a plain value type
(rather than mutating per-server state inside the allocators) makes
every allocator a pure function of its inputs, which the property-based
tests exploit heavily.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from collections.abc import Mapping

__all__ = ["Placement"]


@dataclass(frozen=True)
class Placement:
    """An assignment of VMs to servers.

    Parameters
    ----------
    assignment:
        ``{vm_id: server_index}`` with ``0 <= server_index < num_servers``.
    num_servers:
        The fleet size the placement addresses (indices beyond the active
        range are legal targets that simply stay empty).
    """

    assignment: Mapping[str, int]
    num_servers: int

    def __post_init__(self) -> None:
        if self.num_servers < 1:
            raise ValueError("a placement needs at least one server")
        frozen = MappingProxyType(dict(self.assignment))
        for vm_id, index in frozen.items():
            if not 0 <= index < self.num_servers:
                raise ValueError(
                    f"{vm_id} assigned to server {index}, outside [0, {self.num_servers})"
                )
        object.__setattr__(self, "assignment", frozen)

    def __getstate__(self) -> dict[str, object]:
        """Pickle support: a mappingproxy cannot be pickled directly.

        The scenario-sweep runner ships placements across process
        boundaries inside :class:`~repro.sim.results.ReplayResult`.
        """
        return {"assignment": dict(self.assignment), "num_servers": self.num_servers}

    def __setstate__(self, state: dict[str, object]) -> None:
        object.__setattr__(self, "assignment", MappingProxyType(dict(state["assignment"])))
        object.__setattr__(self, "num_servers", state["num_servers"])

    @property
    def vm_ids(self) -> tuple[str, ...]:
        """All placed VM ids."""
        return tuple(self.assignment)

    @property
    def num_vms(self) -> int:
        """Number of placed VMs."""
        return len(self.assignment)

    def server_of(self, vm_id: str) -> int:
        """Server index hosting ``vm_id``."""
        try:
            return self.assignment[vm_id]
        except KeyError:
            raise KeyError(f"{vm_id!r} is not placed") from None

    def vms_on(self, server_index: int) -> tuple[str, ...]:
        """VM ids hosted on one server (insertion order)."""
        if not 0 <= server_index < self.num_servers:
            raise ValueError(f"server index {server_index} out of range")
        return tuple(vm for vm, s in self.assignment.items() if s == server_index)

    def by_server(self) -> dict[int, tuple[str, ...]]:
        """``{server_index: (vm_ids...)}`` for the *active* servers only."""
        grouped: dict[int, list[str]] = {}
        for vm, server in self.assignment.items():
            grouped.setdefault(server, []).append(vm)
        return {server: tuple(vms) for server, vms in sorted(grouped.items())}

    @property
    def active_servers(self) -> tuple[int, ...]:
        """Indices of servers hosting at least one VM, ascending."""
        return tuple(sorted(set(self.assignment.values())))

    @property
    def num_active_servers(self) -> int:
        """Number of servers hosting at least one VM."""
        return len(set(self.assignment.values()))

    def validate_capacity(
        self, references: Mapping[str, float], capacity: float
    ) -> None:
        """Raise unless every server's committed reference fits ``capacity``.

        This is the bin-packing feasibility invariant; allocators call it
        before returning and the tests call it on every generated input.
        """
        for server, vms in self.by_server().items():
            committed = sum(references[vm] for vm in vms)
            if committed > capacity * (1 + 1e-9):
                raise ValueError(
                    f"server {server} over-committed: {committed:.4f} > {capacity:.4f}"
                )

    def migrations_from(self, previous: Placement | None) -> int:
        """VMs whose host changed relative to ``previous``.

        VMs absent from ``previous`` (newly arrived) do not count as
        migrations; the replay engine reports this as a secondary cost
        metric of each consolidation approach.
        """
        if previous is None:
            return 0
        moved = 0
        for vm, server in self.assignment.items():
            old = previous.assignment.get(vm)
            if old is not None and old != server:
                moved += 1
        return moved
