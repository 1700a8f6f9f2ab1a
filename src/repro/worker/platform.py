"""Platform plugins: how a worker discovers its resources.

Paper section 2.3: "Upon startup, a worker gets its platform from the
user ... The worker then calls an associated platform plugin.  That
plugin determines the available resources, such as number of
processing cores and amount of RAM."
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, Optional

from repro.util.errors import ConfigurationError


@dataclass
class PlatformInfo:
    """Resources a platform plugin detected."""

    name: str
    cores: int
    nodes: int = 1
    ram_mb: int = 1024
    interconnect: str = "shared-memory"


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask, so cpusets count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


class SMPPlatform:
    """A shared-memory machine: one node, several cores."""

    name = "smp"

    def __init__(self, cores: Optional[int] = None, ram_mb: int = 4096) -> None:
        if cores is not None and cores < 1:
            raise ConfigurationError(f"cores must be >= 1, got {cores}")
        self._cores = cores
        self._ram_mb = ram_mb

    def detect(self) -> PlatformInfo:
        """Detect (or accept user-specified) resources."""
        cores = self._cores if self._cores is not None else usable_cpus()
        return PlatformInfo(
            name=self.name,
            cores=cores,
            nodes=1,
            ram_mb=self._ram_mb,
            interconnect="shared-memory",
        )


class MPISimPlatform:
    """A simulated message-passing cluster: nodes x cores_per_node.

    Stands in for OpenMPI on a real cluster; the product is what
    matters to workload matching.
    """

    name = "mpi"

    def __init__(
        self,
        nodes: int,
        cores_per_node: int,
        interconnect: str = "infiniband",
        ram_mb_per_node: int = 32768,
    ) -> None:
        if nodes < 1 or cores_per_node < 1:
            raise ConfigurationError(
                f"invalid cluster shape {nodes} x {cores_per_node}"
            )
        self.nodes = nodes
        self.cores_per_node = cores_per_node
        self.interconnect = interconnect
        self.ram_mb_per_node = ram_mb_per_node

    def detect(self) -> PlatformInfo:
        """Report the cluster allocation as one resource pool."""
        return PlatformInfo(
            name=self.name,
            cores=self.nodes * self.cores_per_node,
            nodes=self.nodes,
            ram_mb=self.ram_mb_per_node * self.nodes,
            interconnect=self.interconnect,
        )


#: Platform name -> factory, as user-selectable plugins.
PLATFORM_REGISTRY: Dict[str, type] = {
    SMPPlatform.name: SMPPlatform,
    MPISimPlatform.name: MPISimPlatform,
}
