"""Copernicus servers: command queues, matching, heartbeats, recovery."""

from repro.server.queue import CommandQueue
from repro.server.matching import WorkerCapabilities, build_workload
from repro.server.fairshare import (
    FairSharePolicy,
    FairShareScheduler,
    TenantLedger,
    TenantPolicy,
)
from repro.server.heartbeat import HeartbeatMonitor
from repro.server.health import (
    HealthPolicy,
    HealthRegistry,
    HealthState,
    WorkerHealth,
)
from repro.server.lease import (
    Lease,
    LeasePolicy,
    LeaseTracker,
    estimate_command_seconds,
)
from repro.server.server import CopernicusServer
from repro.server.wal import (
    JournalState,
    ProjectJournal,
    ServerJournal,
    WriteAheadLog,
)

__all__ = [
    "CommandQueue",
    "WorkerCapabilities",
    "build_workload",
    "FairSharePolicy",
    "FairShareScheduler",
    "TenantLedger",
    "TenantPolicy",
    "HeartbeatMonitor",
    "HealthPolicy",
    "HealthRegistry",
    "HealthState",
    "WorkerHealth",
    "Lease",
    "LeasePolicy",
    "LeaseTracker",
    "estimate_command_seconds",
    "CopernicusServer",
    "JournalState",
    "ProjectJournal",
    "ServerJournal",
    "WriteAheadLog",
]
