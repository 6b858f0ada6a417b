"""The serving layer: a concurrent market-administrator bank service.

The paper's market administrator is one logical party; this package is
the shape that party takes when it must serve heavy traffic —
:class:`~repro.service.shard.ShardedBank` holds the books (one DEC book
beside the PPMSpbs book),
:class:`~repro.service.batcher.VerificationBatcher` coalesces and
parallelizes the crypto, :class:`~repro.service.server.MarketService`
runs the accept→admit→batch→apply loop with
:class:`~repro.service.admission.AdmissionController` shedding
overload, :mod:`~repro.service.workers` fans verification across a
persistent process pool, :mod:`~repro.service.frontend` serves the
whole thing over TCP (length-prefixed :mod:`repro.net.wire` frames),
and :mod:`~repro.service.loadgen` drives the stack — in-process, over
real sockets or through any :mod:`~repro.service.gateway` — from the
workload layer and reports latency SLOs.

See ``docs/service.md`` for the architecture and the knobs, and
``docs/storage.md`` for the journal/checkpoint format — one
:class:`~repro.service.journal.Journal` over a
:class:`~repro.service.storage.Storage` (memory or a directory).
"""

from repro.service.admission import AdmissionController, AdmissionDecision, TokenBucket
from repro.service.journal import (
    DEFAULT_SEGMENT_RECORDS,
    Checkpoint,
    Journal,
    JournalError,
    JournalMaintenance,
    JournalRecord,
)
from repro.service.storage import DirectoryStorage, MemoryStorage, Storage
from repro.service.batcher import (
    DepositJob,
    DepositOutcome,
    VerificationBatcher,
    WithdrawJob,
    WithdrawOutcome,
)
from repro.service.frontend import DispatchCore, ServiceClient, ServiceFrontend
from repro.service.gateway import InProcessGateway, SocketGateway
from repro.service.loadgen import (
    BankIssuer,
    LoadReport,
    OfflineIssuer,
    Request,
    WireIssuer,
    mint_deposit_traffic,
    run_trace,
)
from repro.service.server import MarketService, RequestFailure
from repro.service.shard import ShardedBank
from repro.service.workers import (
    InlineBackend,
    PooledBackend,
    VerificationBackend,
    make_backend,
)

__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "TokenBucket",
    "Journal",
    "Storage",
    "MemoryStorage",
    "DirectoryStorage",
    "JournalMaintenance",
    "DEFAULT_SEGMENT_RECORDS",
    "JournalRecord",
    "JournalError",
    "Checkpoint",
    "VerificationBatcher",
    "DepositJob",
    "WithdrawJob",
    "DepositOutcome",
    "WithdrawOutcome",
    "ShardedBank",
    "MarketService",
    "RequestFailure",
    "LoadReport",
    "Request",
    "BankIssuer",
    "OfflineIssuer",
    "WireIssuer",
    "mint_deposit_traffic",
    "run_trace",
    "InProcessGateway",
    "SocketGateway",
    "ServiceFrontend",
    "DispatchCore",
    "ServiceClient",
    "VerificationBackend",
    "InlineBackend",
    "PooledBackend",
    "make_backend",
]
