"""repro.service: the concurrent multi-session query service.

An asyncio TCP front door (:class:`MirrorService`) over one shared,
thread-safe :class:`~repro.core.mirror.MirrorDBMS`: per-connection
:class:`~repro.service.session.Session` temp namespaces, token-bucket
rate limiting, a global admission controller bounding in-flight
queries, a pre-execution :class:`~repro.service.guard.QueryGuard`, and
deadline/cancellation checkpoints threaded into the MIL interpreter
loop.  ``ServiceThread`` embeds the event loop for synchronous
callers; ``ServiceClient`` / ``AsyncServiceClient`` are the client
library.  Every wire op is one row of :data:`repro.service.ops.OPS`,
which both the server and the clients read.
"""

from repro.service.admission import (
    AdmissionController,
    AdmissionReject,
    TokenBucket,
)
from repro.service.client import (
    AsyncServiceClient,
    ServiceClient,
    ServiceError,
    session_ref,
)
from repro.service.guard import GuardLimits, GuardRejection, QueryGuard
from repro.service.protocol import BATResult, ProtocolError
from repro.service.server import MirrorService, ServiceConfig, ServiceThread
from repro.service.session import Session, SessionNamespace

__all__ = [
    "AdmissionController",
    "AdmissionReject",
    "AsyncServiceClient",
    "BATResult",
    "GuardLimits",
    "GuardRejection",
    "MirrorService",
    "ProtocolError",
    "QueryGuard",
    "ServiceClient",
    "ServiceConfig",
    "ServiceError",
    "ServiceThread",
    "Session",
    "SessionNamespace",
    "TokenBucket",
    "session_ref",
]
