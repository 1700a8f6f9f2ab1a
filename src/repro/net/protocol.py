"""Typed request/response messages for the overlay network."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, List


class MessageType(enum.Enum):
    """Every request kind spoken on the overlay."""

    #: Worker presents its platform/resources/executables to its server.
    WORKER_ANNOUNCE = "worker_announce"
    #: Worker asks for a workload matching its capabilities.
    WORKLOAD_REQUEST = "workload_request"
    #: Server hands a workload (list of commands) to a worker.
    WORKLOAD_ASSIGN = "workload_assign"
    #: Worker returns finished (or checkpointed) command output.
    COMMAND_RESULT = "command_result"
    #: Worker liveness signal; never forwarded past the nearest server.
    HEARTBEAT = "heartbeat"
    #: Client submits a new project to a server.
    PROJECT_SUBMIT = "project_submit"
    #: Client queries project status.
    PROJECT_STATUS = "project_status"
    #: Server-to-server transfer of command results toward the
    #: project's origin server.
    RESULT_FORWARD = "result_forward"
    #: Server-to-server: ask whether peers hold queued commands.
    COMMAND_FETCH = "command_fetch"
    #: Generic acknowledgement / response wrapper.
    RESPONSE = "response"


@dataclass
class Message:
    """One request travelling the overlay.

    Attributes
    ----------
    type:
        The request kind.
    src / dst:
        Endpoint names.  ``dst`` may be a specific server or the
        wildcard ``"*"`` meaning "first server with available
        commands" (the paper's routing mode for workload requests).
    payload:
        Wire-format body (see :mod:`repro.util.serialization`).
    headers:
        Out-of-band metadata riding with the request — notably the
        distributed-tracing context (:mod:`repro.obs.trace` writes
        ``trace_id``/``span_id`` here), kept separate from the payload
        so handlers never confuse telemetry with application data.
    hops:
        Endpoint names traversed so far (appended by the transport).
    attempt:
        0-based delivery attempt; > 0 marks a retransmission, so
        receivers with side effects can deduplicate.
    """

    type: MessageType
    src: str
    dst: str
    payload: Dict[str, Any] = field(default_factory=dict)
    headers: Dict[str, Any] = field(default_factory=dict)
    hops: List[str] = field(default_factory=list)
    attempt: int = 0


#: Wildcard destination: route to the first server with available commands.
ANY_SERVER = "*"
