"""repro.serve — the experiment service daemon and its client.

A long-running HTTP JSON service over the experiment engine: a
priority job queue that deduplicates concurrent identical submissions
onto one computation (:mod:`repro.serve.queue`), a bounded worker pool
with the sweep layer's fault/retry discipline
(:mod:`repro.serve.executor`), graceful SIGTERM drain with a durable
queued-job journal (:mod:`repro.serve.journal`), and stdlib HTTP
endpoints plus a urllib client (:mod:`repro.serve.server`,
:mod:`repro.serve.client`).  See ``docs/SERVING.md``.

Fleet mode shards the service across N instances behind one front
end, the multiplexed :class:`~repro.serve.router.ShardRouter`: jobs
route by spec digest over a consistent-hash ring
(:mod:`repro.serve.ring`), and shards share finished payloads through
one content-addressed result-store directory
(:class:`~repro.serve.store.FileResultStore`), so dedup and
byte-identity hold fleet-wide.  Only workers write the store; no HTTP
endpoint accepts store bytes.  :mod:`repro.serve.fleet` launches the
whole topology.
"""

from repro.serve.client import (
    DEFAULT_URL,
    ServeClient,
    submit_with_backoff,
)
from repro.serve.executor import (
    DEFAULT_WORKERS,
    JOB_HOOK_ENV,
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
    ShardRouter,
)
from repro.serve.server import (
    DEFAULT_HOST,
    DEFAULT_PORT,
    ExperimentServer,
)
from repro.serve.store import (
    STORE_MAX_MB_ENV,
    FileResultStore,
    store_max_bytes,
)

__all__ = [
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
    "ExperimentServer",
    "FileResultStore",
    "Fleet",
    "FleetSupervisor",
    "HashRing",
    "InProcessFleet",
    "JOB_HOOK_ENV",
    "JOB_JOURNAL_NAME",
    "Job",
    "JobJournal",
    "JobQueue",
    "JobSpec",
    "JobState",
    "STORE_MAX_MB_ENV",
    "ServeClient",
    "ShardProcess",
    "ShardRouter",
    "VersionedRing",
    "WorkerPool",
    "execute_spec",
    "moved_keys",
    "normalize_spec",
    "spec_digest",
    "store_max_bytes",
    "submit_with_backoff",
]
