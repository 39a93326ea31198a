"""repro.serve — the experiment service daemon and its client.

A long-running HTTP JSON service over the experiment engine: a
priority job queue that deduplicates concurrent identical submissions
onto one computation (:mod:`repro.serve.queue`), a bounded worker pool
with the sweep layer's fault/retry discipline
(:mod:`repro.serve.executor`), graceful SIGTERM drain with a durable
queued-job journal (:mod:`repro.serve.journal`), and stdlib HTTP
endpoints plus a urllib client (:mod:`repro.serve.server`,
:mod:`repro.serve.client`).  See ``docs/SERVING.md``.

Fleet mode shards the service across N instances: jobs route by spec
digest over a consistent-hash ring (:mod:`repro.serve.ring`) — via the
multiplexed :class:`~repro.serve.router.ShardRouter` front end or
client-side :class:`~repro.serve.client.ShardedClient` — and shards
share finished payloads through a content-addressed result store
(:mod:`repro.serve.store`), so dedup and byte-identity hold fleet-wide.
:mod:`repro.serve.fleet` launches the whole topology.
"""

from repro.serve.chaos import CHAOS_LOG_ENV, log_computation
from repro.serve.client import (
    DEFAULT_URL,
    SHARDS_ENV,
    URL_ENV,
    ServeClient,
    ShardedClient,
    resolve_shards,
    resolve_url,
    submit_with_backoff,
)
from repro.serve.executor import (
    DEFAULT_WORKERS,
    JOB_HOOK_ENV,
    WORKERS_ENV,
    WorkerPool,
)
from repro.serve.fleet import (
    Fleet,
    FleetSupervisor,
    InProcessFleet,
    ShardProcess,
)
from repro.serve.jobs import (
    Job,
    JobSpec,
    JobState,
    execute_spec,
    normalize_spec,
    spec_digest,
)
from repro.serve.journal import JOB_JOURNAL_NAME, JobJournal
from repro.serve.queue import (
    DEFAULT_MAX_QUEUED,
    DEFAULT_RETRY_AFTER_S,
    JobQueue,
)
from repro.serve.ring import (
    DEFAULT_RING_REPLICAS,
    HashRing,
    VersionedRing,
    moved_keys,
)
from repro.serve.router import (
    DEFAULT_EJECT_AFTER,
    DEFAULT_HEARTBEAT_S,
    DEFAULT_HEARTBEAT_TIMEOUT_S,
    EJECT_AFTER_ENV,
    HEARTBEAT_S_ENV,
    HEARTBEAT_TIMEOUT_ENV,
    ShardRouter,
    resolve_heartbeat,
)
from repro.serve.server import (
    DEFAULT_HOST,
    DEFAULT_PORT,
    DIR_ENV,
    HOST_ENV,
    PORT_ENV,
    QUEUE_MAX_ENV,
    ExperimentServer,
)
from repro.serve.store import (
    STORE_DIR_ENV,
    STORE_MAX_MB_ENV,
    STORE_URL_ENV,
    FileResultStore,
    HTTPResultStore,
    ResultStore,
    resolve_store,
    store_max_bytes,
)

__all__ = [
    "CHAOS_LOG_ENV",
    "DEFAULT_EJECT_AFTER",
    "DEFAULT_HEARTBEAT_S",
    "DEFAULT_HEARTBEAT_TIMEOUT_S",
    "DEFAULT_HOST",
    "DEFAULT_MAX_QUEUED",
    "DEFAULT_PORT",
    "DEFAULT_RETRY_AFTER_S",
    "DEFAULT_RING_REPLICAS",
    "DEFAULT_URL",
    "DEFAULT_WORKERS",
    "DIR_ENV",
    "EJECT_AFTER_ENV",
    "ExperimentServer",
    "FileResultStore",
    "Fleet",
    "FleetSupervisor",
    "HEARTBEAT_S_ENV",
    "HEARTBEAT_TIMEOUT_ENV",
    "HOST_ENV",
    "HTTPResultStore",
    "HashRing",
    "InProcessFleet",
    "JOB_HOOK_ENV",
    "JOB_JOURNAL_NAME",
    "Job",
    "JobJournal",
    "JobQueue",
    "JobSpec",
    "JobState",
    "PORT_ENV",
    "QUEUE_MAX_ENV",
    "ResultStore",
    "SHARDS_ENV",
    "STORE_DIR_ENV",
    "STORE_MAX_MB_ENV",
    "STORE_URL_ENV",
    "ServeClient",
    "ShardProcess",
    "ShardRouter",
    "ShardedClient",
    "URL_ENV",
    "VersionedRing",
    "WORKERS_ENV",
    "WorkerPool",
    "execute_spec",
    "log_computation",
    "moved_keys",
    "normalize_spec",
    "resolve_heartbeat",
    "resolve_shards",
    "resolve_store",
    "resolve_url",
    "spec_digest",
    "store_max_bytes",
    "submit_with_backoff",
]
