"""Async degraded-read serving over the batched decode pipeline.

The request path this package adds on top of the offline machinery::

    client ──> BlobService ──> CoalescingScheduler ──> DecodePipeline
                  │                    │                    │
                  │ admission,         │ group by erasure   │ plan cache,
                  │ deadlines,         │ pattern; flush on  │ fused batch,
                  │ retry/backoff,     │ size-or-deadline   │ compiled kernels
                  │ fallback           ▼                    ▼
                  └──────────────> BlobStore  <──── recovered regions

- :mod:`repro.service.server` — :class:`BlobService`, the asyncio
  front-end (get / put / degraded_get);
- :mod:`repro.service.scheduler` — :class:`CoalescingScheduler`,
  batching live degraded reads per erasure pattern;
- :mod:`repro.service.store` — :class:`BlobStore` + transient
  :class:`FaultInjector`;
- :mod:`repro.service.config` — :class:`ServiceConfig` knobs;
- :mod:`repro.service.metrics` — :class:`ServiceMetrics` /
  :class:`LatencyHistogram`;
- :mod:`repro.service.net` — the JSON-lines TCP wire
  (``ppm serve`` / ``ppm loadgen --connect``);
- :mod:`repro.service.loadgen` — the seeded closed-loop load
  generator;
- :mod:`repro.service.errors` — the request-failure vocabulary.

When :attr:`ServiceConfig.repair` is set, the service also runs a
background :class:`repro.repair.RepairManager` beside the request
path: it scrubs stripes for silent corruption and heals them through
the *same* pipeline at background priority (see :mod:`repro.repair`
and ``docs/REPAIR.md``).

Lint rule PPM009 bans blocking calls (``time.sleep``, synchronous
I/O) in this package: everything slow runs off-loop.
"""

from __future__ import annotations

from .config import ServiceConfig
from .errors import (
    BatchDecodeError,
    BlockUnavailableError,
    DeadlineExceeded,
    NodeFault,
    ServiceClosedError,
    ServiceError,
    ServiceOverloadError,
)
from .loadgen import (
    build_request_schedule,
    corrupt_store,
    damage_store,
    run_loadgen,
    run_loadgen_multi,
)
from .metrics import LatencyHistogram, ServiceMetrics
from .net import (
    Client,
    ClientPool,
    LocalClient,
    TcpClient,
    connect,
    serve,
)
from .scheduler import CoalescingScheduler
from .server import BlobService
from .store import BlobStore, FaultInjector

__all__ = [
    "BlobService",
    "BlobStore",
    "Client",
    "ClientPool",
    "CoalescingScheduler",
    "FaultInjector",
    "LatencyHistogram",
    "LocalClient",
    "ServiceConfig",
    "ServiceMetrics",
    "TcpClient",
    "connect",
    "serve",
    "run_loadgen",
    "run_loadgen_multi",
    "build_request_schedule",
    "corrupt_store",
    "damage_store",
    "ServiceError",
    "ServiceClosedError",
    "ServiceOverloadError",
    "DeadlineExceeded",
    "NodeFault",
    "BatchDecodeError",
    "BlockUnavailableError",
]
