"""repro.gateway — the HTTP serving front door for rule mining.

One gateway process owns:

* an **admission controller** (per-client token buckets, bounded
  in-flight work, queue-depth backpressure) that sheds overload with
  ``429`` + ``Retry-After`` before any work is queued;
* a **dispatcher** over N worker *processes* — the fleet's only
  scheduler.  Each worker is a ``python -m repro.gateway.worker``
  subprocess that mines one job at a time on its main thread through
  the job core :func:`~repro.service.run_job`;
* the **shared on-disk result cache** — job ids are the same content
  addresses the in-process service computes, so HTTP submissions,
  in-process ``mine()`` calls and sibling gateway processes all
  deduplicate against one another; jobs live in the service's
  :class:`~repro.service.JobTable`, and a :class:`GatewayJob` is a
  :class:`~repro.service.Job` with the fleet's extra fields.

Typical serving setup (the CLI's ``serve --port`` does exactly this)::

    from repro.gateway import Gateway, GatewayClient

    with Gateway(cache_dir="~/.repro-cache", workers=4, port=8080) as gw:
        client = GatewayClient(gw.url)
        job = client.submit("cybersecurity", "llama3", "rag", "zero_shot")
        payload = client.result(job["job_id"])   # archive-format run dict
"""

from repro.gateway.admission import (
    AdmissionController,
    AdmissionPolicy,
    Decision,
    TokenBucket,
)
from repro.gateway.client import (
    GatewayClient,
    GatewayClientError,
    GatewayError,
    GatewayRejectedError,
)
from repro.gateway.dispatcher import (
    Dispatcher,
    DispatcherDraining,
    DispatchQueueFull,
    GatewayJob,
)
from repro.gateway.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    parse_submit,
)
from repro.gateway.server import (
    Gateway,
    GatewayJobFailed,
    GatewayRejected,
    UnknownDatasetError,
)

# NOTE: repro.gateway.worker is deliberately not imported here — it is
# the ``python -m repro.gateway.worker`` subprocess entrypoint, and
# importing it at package-init time would re-execute it under runpy.

__all__ = [
    "AdmissionController",
    "AdmissionPolicy",
    "Decision",
    "Dispatcher",
    "DispatcherDraining",
    "DispatchQueueFull",
    "Gateway",
    "GatewayClient",
    "GatewayClientError",
    "GatewayError",
    "GatewayJob",
    "GatewayJobFailed",
    "GatewayRejected",
    "GatewayRejectedError",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "TokenBucket",
    "UnknownDatasetError",
    "parse_submit",
]
