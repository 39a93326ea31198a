"""Fleet launcher: N serve shards + a shared store + one router.

Two launchers with the same shape:

- :class:`Fleet` — each shard is a real ``repro-cli serve`` *process*
  (spawned with ``--port 0``, base URL parsed from the startup banner),
  all given one shared :class:`~repro.serve.store.FileResultStore`
  directory with ``--store-dir``, fronted by an in-process
  :class:`~repro.serve.router.ShardRouter`.  This is what
  ``repro-cli fleet``, ``repro-cli loadgen`` and the identity tests
  run: true process isolation, real SIGTERM drains, per-shard metrics.
- :class:`InProcessFleet` — each shard is an
  :class:`~repro.serve.server.ExperimentServer` *in this process*.
  Cheap enough for unit tests.  Caveat: the obs registry is
  process-global, so module-level counters from all shards land in the
  most recently started shard's registry — assert fleet-wide counters
  through the router's ``/metrics`` (which aggregates per shard) or
  use the subprocess :class:`Fleet`.

Shards restart in place: :meth:`Fleet.restart_shard` SIGTERMs one
shard (it drains — in-flight jobs finish, queued jobs journal) and
relaunches it on the *same* port and state directory, so the ring
placement is unchanged and the journal restores.  If another process
has taken the port meanwhile, the relaunch fails with a
:class:`~repro.errors.ServeError` and the journal stays on disk.  This
is the seam the mid-run fault tests pull.

Self-healing: with ``supervise=True`` a :class:`FleetSupervisor`
thread polls the shard processes, notices crashes (SIGKILL included —
:meth:`ShardProcess.kill` leaves the corpse visible), and restarts
each dead shard on its original port under the sweep layer's
:class:`~repro.sim.parallel.FaultPolicy` exponential backoff.  Because
the URL is unchanged, the router's heartbeat monitor rejoins the shard
to the ring on its first healthy probe; the supervisor also nudges the
ring directly so recovery does not wait a full heartbeat period.
Membership is elastic at runtime via :meth:`Fleet.add_shard` /
:meth:`Fleet.remove_shard` (:class:`InProcessFleet` mirrors ``add_shard``).
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.errors import ServeError
from repro.obs import metrics as _metrics
from repro.serve.router import (
    DEFAULT_EJECT_AFTER,
    DEFAULT_HEARTBEAT_S,
    DEFAULT_HEARTBEAT_TIMEOUT_S,
    ShardRouter,
)
from repro.serve.server import ExperimentServer
from repro.serve.store import FileResultStore
from repro.sim.parallel import FaultPolicy

#: Seconds to wait for a shard banner / drain before giving up.
_STARTUP_TIMEOUT_S = 30.0
_DRAIN_TIMEOUT_S = 60.0

#: Seconds an exited shard's log copier may take to reach EOF.
_LOG_JOIN_TIMEOUT_S = 5.0


def _repo_pythonpath(existing: str) -> str:
    """``existing`` with the directory that holds :mod:`repro` in front."""
    import repro

    src = str(Path(repro.__file__).resolve().parents[1])
    return src + (os.pathsep + existing if existing else "")


class ShardProcess:
    """One ``repro-cli serve`` child process.

    The child's stdout and stderr share one pipe.  After the startup
    banner a daemon thread copies that pipe to ``shard.log`` in the
    state directory (appending across restarts), so a chatty shard —
    ``REPRO_SERVE_LOG`` access lines, tracebacks of clients that hung
    up — never fills the pipe and blocks on its own output.  The
    thread owns the pipe: it closes it at EOF, after the process
    exits.
    """

    def __init__(
        self,
        index: int,
        state_dir: Path,
        store_dir: Path,
        workers: int = 2,
        port: int = 0,
        extra_env: Optional[Dict[str, str]] = None,
    ) -> None:
        self.index = index
        self.state_dir = Path(state_dir)
        self.store_dir = Path(store_dir)
        self.workers = workers
        self.port = port
        self.extra_env = dict(extra_env or {})
        self.process: Optional[subprocess.Popen] = None
        self.url: Optional[str] = None
        self._log_copier: Optional[threading.Thread] = None

    @property
    def log_path(self) -> Path:
        """Where the copier appends the shard's stdout and stderr."""
        return self.state_dir / "shard.log"

    def start(self) -> "ShardProcess":
        """Spawn the daemon and parse its base URL from the banner.

        Restarting over a dead process (a crash corpse left by
        :meth:`kill`) is allowed; restarting a live shard is an error.
        """
        if self.process is not None:
            if self.process.poll() is None:
                raise ServeError(f"shard {self.index} already running")
            self.process = None
            self._join_log_copier()
        self.state_dir.mkdir(parents=True, exist_ok=True)
        env = dict(os.environ)
        env.update(self.extra_env)
        env["PYTHONPATH"] = _repo_pythonpath(env.get("PYTHONPATH", ""))
        self.process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--port", str(self.port),
                "--workers", str(self.workers),
                "--dir", str(self.state_dir),
                "--store-dir", str(self.store_dir),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            errors="replace",
            env=env,
        )
        banner: List[str] = []
        try:
            self.url = self._await_banner(banner)
        finally:
            # Started on failure too: the copier drains a shard that
            # printed no banner and closes the pipe of one that died.
            self._log_copier = threading.Thread(
                target=_copy_log,
                args=(self.process.stdout, banner, self.log_path),
                name=f"shard-{self.index}-log",
                daemon=True,
            )
            self._log_copier.start()
        # Remember the bound port so a restart lands on the same URL
        # (ring placement must survive the bounce).
        self.port = int(self.url.rsplit(":", 1)[1])
        return self

    def _await_banner(self, banner: List[str]) -> str:
        assert self.process is not None and self.process.stdout is not None
        deadline = time.monotonic() + _STARTUP_TIMEOUT_S
        while time.monotonic() < deadline:
            if self.process.poll() is not None:
                raise ServeError(
                    f"shard {self.index} exited during startup "
                    f"(rc={self.process.returncode}): "
                    + "".join(banner)[-500:]
                )
            line = self.process.stdout.readline()
            if not line:
                continue
            banner.append(line)
            if line.startswith("repro-serve listening on "):
                return line.split("repro-serve listening on ", 1)[1].strip()
        raise ServeError(
            f"shard {self.index} printed no banner within "
            f"{_STARTUP_TIMEOUT_S:g}s: " + "".join(banner)[-500:]
        )

    def terminate(self, timeout_s: float = _DRAIN_TIMEOUT_S) -> int:
        """SIGTERM the shard and wait for its graceful drain."""
        if self.process is None:
            return 0
        process, self.process = self.process, None
        if process.poll() is None:
            process.send_signal(signal.SIGTERM)
        try:
            process.wait(timeout=timeout_s)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait(timeout=10.0)
        self._join_log_copier()
        return process.returncode or 0

    def _join_log_copier(self) -> None:
        """Wait for an exited shard's log copier to reach EOF."""
        if self._log_copier is not None:
            self._log_copier.join(timeout=_LOG_JOIN_TIMEOUT_S)
            self._log_copier = None

    def kill(self) -> None:
        """SIGKILL the shard — no drain, no journal flush beyond what
        the queue already wrote.

        Unlike :meth:`terminate` this *keeps* ``self.process`` (the
        corpse), so :attr:`alive` turns false while the supervisor can
        still see the crash and restart in place.
        """
        if self.process is None or self.process.poll() is not None:
            return
        self.process.kill()
        self.process.wait(timeout=10.0)

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.poll() is None

    @property
    def crashed(self) -> bool:
        """The process exited without :meth:`terminate` reaping it."""
        return self.process is not None and self.process.poll() is not None


def _copy_log(pipe, head: List[str], path: Path) -> None:
    """Append ``head`` and then the pipe's lines to ``path`` until EOF.

    Closes the pipe at EOF; if the log cannot be opened the pipe is
    still drained, so the shard never blocks on a full pipe.
    """
    try:
        with open(path, "a", buffering=1) as log:
            log.writelines(head)
            for line in pipe:
                log.write(line)
    except OSError:
        for _line in pipe:
            pass
    finally:
        pipe.close()


class Fleet:
    """N shard processes + shared file store + in-process router."""

    def __init__(
        self,
        shards: int = 2,
        root: Optional[str] = None,
        workers: int = 2,
        router_host: str = "127.0.0.1",
        router_port: int = 0,
        extra_env: Optional[Dict[str, str]] = None,
        supervise: bool = False,
        policy: Optional[FaultPolicy] = None,
        heartbeat_s: float = DEFAULT_HEARTBEAT_S,
        heartbeat_timeout_s: float = DEFAULT_HEARTBEAT_TIMEOUT_S,
        eject_after: int = DEFAULT_EJECT_AFTER,
    ) -> None:
        if shards < 1:
            raise ServeError("fleet needs at least one shard")
        if root is None:
            import tempfile

            root = tempfile.mkdtemp(prefix="repro-fleet-")
        self.root = Path(root)
        self.store_dir = self.root / "store"
        self.shard_count = shards
        self.workers = workers
        self.extra_env = dict(extra_env or {})
        self.router_host = router_host
        self.router_port = router_port
        self.heartbeat_s = heartbeat_s
        self.heartbeat_timeout_s = heartbeat_timeout_s
        self.eject_after = eject_after
        self.shards: List[ShardProcess] = []
        self.router: Optional[ShardRouter] = None
        self.supervisor: Optional[FleetSupervisor] = None
        self._supervise = supervise
        self._policy = policy

    def start(self) -> "Fleet":
        """Launch every shard, then the router over their URLs."""
        try:
            for index in range(self.shard_count):
                shard = ShardProcess(
                    index,
                    state_dir=self.root / f"shard{index}",
                    store_dir=self.store_dir,
                    workers=self.workers,
                    extra_env=self.extra_env,
                )
                self.shards.append(shard.start())
            self.router = ShardRouter(
                [s.url for s in self.shards if s.url],
                host=self.router_host,
                port=self.router_port,
                heartbeat_s=self.heartbeat_s,
                heartbeat_timeout_s=self.heartbeat_timeout_s,
                eject_after=self.eject_after,
            ).start()
            if self._supervise:
                self.supervisor = FleetSupervisor(
                    self, policy=self._policy
                ).start()
        except BaseException:
            self.stop()
            raise
        return self

    @property
    def url(self) -> str:
        """The router base URL clients should use."""
        if self.router is None:
            raise ServeError("fleet is not running")
        return self.router.url

    @property
    def shard_urls(self) -> List[str]:
        return [s.url for s in self.shards if s.url is not None]

    def restart_shard(self, index: int) -> ShardProcess:
        """Drain one shard (SIGTERM) and relaunch it on the same port.

        The journal in the shard's state directory restores its queued
        jobs; the URL is unchanged so ring placement is stable and the
        router keeps routing to it without a rebuild.
        """
        shard = self.shards[index]
        shard.terminate()
        return shard.start()

    def kill_shard(self, index: int, force: bool = False) -> None:
        """Take one shard down (degraded-fleet and chaos tests).

        Default is a graceful SIGTERM drain that also forgets the
        process, so the supervisor treats it as deliberate; ``force``
        SIGKILLs instead, leaving the crash visible for the supervisor
        to heal.
        """
        if force:
            self.shards[index].kill()
        else:
            self.shards[index].terminate()

    def add_shard(self) -> ShardProcess:
        """Grow the fleet by one shard and join it to the live ring."""
        index = len(self.shards)
        shard = ShardProcess(
            index,
            state_dir=self.root / f"shard{index}",
            store_dir=self.store_dir,
            workers=self.workers,
            extra_env=self.extra_env,
        )
        shard.start()
        self.shards.append(shard)
        if self.router is not None and shard.url:
            self.router.add_shard(shard.url)
        return shard

    def remove_shard(self, index: int) -> None:
        """Shrink the fleet: leave the ring first, then drain the shard.

        Ordering matters — once the shard is out of the ring no new
        digest routes to it, so the SIGTERM drain finishes its
        in-flight work without racing new arrivals.
        """
        shard = self.shards[index]
        if self.router is not None and shard.url:
            try:
                self.router.remove_shard(shard.url)
            except ServeError:
                pass  # e.g. last ring node; still drain the process
        shard.terminate()

    def stop(self) -> Dict[str, Any]:
        """Stop the supervisor and router, then drain shards in
        reverse start order."""
        if self.supervisor is not None:
            self.supervisor.stop()
            self.supervisor = None
        if self.router is not None:
            self.router.stop()
            self.router = None
        codes = [shard.terminate() for shard in reversed(self.shards)]
        self.shards = []
        return {"shard_exit_codes": list(reversed(codes))}

    def __enter__(self) -> "Fleet":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.stop()
        return False


class FleetSupervisor:
    """Daemon thread healing crashed shard processes.

    Polls every :class:`ShardProcess`; a corpse (``poll() is not
    None``) is restarted on its original port under the
    :class:`~repro.sim.parallel.FaultPolicy` retry discipline — the
    same ``backoff_s * 2**(attempt-1)`` schedule the sweep layer uses,
    up to ``max_retries + 1`` consecutive attempts per shard before
    giving up on it.  A deliberate :meth:`ShardProcess.terminate`
    clears the process handle, so drained shards are never resurrected.

    Successful restarts count ``serve.fleet.restarts`` and nudge the
    router to rejoin the shard immediately instead of waiting for the
    next heartbeat.
    """

    def __init__(
        self,
        fleet: "Fleet",
        policy: Optional[FaultPolicy] = None,
        poll_s: float = 0.25,
    ) -> None:
        self.fleet = fleet
        self.policy = policy if policy is not None else FaultPolicy.from_env()
        self.poll_s = poll_s
        self.restarts = 0
        self._attempts: Dict[int, int] = {}
        self._given_up: set = set()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def start(self) -> "FleetSupervisor":
        if self._thread is not None:
            return self
        self._thread = threading.Thread(
            target=self._run, name="fleet-supervisor", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None

    def _run(self) -> None:
        while not self._stop.wait(self.poll_s):
            for shard in list(self.fleet.shards):
                if shard.index in self._given_up or not shard.crashed:
                    continue
                self._revive(shard)

    def _revive(self, shard: ShardProcess) -> None:
        attempt = self._attempts.get(shard.index, 0) + 1
        if attempt > self.policy.max_retries + 1:
            self._given_up.add(shard.index)
            _metrics.counter_add("serve.fleet.abandoned")
            return
        self._attempts[shard.index] = attempt
        backoff = self.policy.backoff_s * (2 ** (attempt - 1))
        if self._stop.wait(backoff):
            return
        try:
            shard.start()
        except ServeError:
            return  # corpse persists; next poll retries, backed off
        self._attempts.pop(shard.index, None)
        self.restarts += 1
        _metrics.counter_add("serve.fleet.restarts")
        router = self.fleet.router
        if router is not None and shard.url:
            try:
                router.add_shard(shard.url)
            except ServeError:
                pass  # heartbeat rejoin remains the fallback path


class InProcessFleet:
    """N :class:`ExperimentServer` shards in this process + a router.

    For unit tests that need a fleet topology without process spawns.
    All shards share one :class:`FileResultStore`.  See the module
    docstring for the obs-registry caveat.
    """

    def __init__(
        self,
        shards: int = 2,
        root: Optional[str] = None,
        workers: int = 1,
        heartbeat_s: float = DEFAULT_HEARTBEAT_S,
        heartbeat_timeout_s: float = DEFAULT_HEARTBEAT_TIMEOUT_S,
        eject_after: int = DEFAULT_EJECT_AFTER,
    ) -> None:
        if shards < 1:
            raise ServeError("fleet needs at least one shard")
        if root is None:
            import tempfile

            root = tempfile.mkdtemp(prefix="repro-fleet-")
        self.root = Path(root)
        self.store = FileResultStore(self.root / "store")
        self.shard_count = shards
        self.workers = workers
        self.heartbeat_s = heartbeat_s
        self.heartbeat_timeout_s = heartbeat_timeout_s
        self.eject_after = eject_after
        self.servers: List[ExperimentServer] = []
        self.router: Optional[ShardRouter] = None
        self._lock = threading.Lock()

    def start(self) -> "InProcessFleet":
        try:
            for index in range(self.shard_count):
                server = ExperimentServer(
                    port=0,
                    workers=self.workers,
                    state_dir=str(self.root / f"shard{index}"),
                    store=self.store,
                )
                server.start()
                self.servers.append(server)
            self.router = ShardRouter(
                [server.url for server in self.servers],
                heartbeat_s=self.heartbeat_s,
                heartbeat_timeout_s=self.heartbeat_timeout_s,
                eject_after=self.eject_after,
            ).start()
        except BaseException:
            self.stop()
            raise
        return self

    def add_shard(self) -> ExperimentServer:
        """Grow the fleet by one in-process shard, joined to the ring."""
        index = len(self.servers)
        server = ExperimentServer(
            port=0,
            workers=self.workers,
            state_dir=str(self.root / f"shard{index}"),
            store=self.store,
        )
        server.start()
        self.servers.append(server)
        if self.router is not None:
            self.router.add_shard(server.url)
        return server

    @property
    def url(self) -> str:
        if self.router is None:
            raise ServeError("fleet is not running")
        return self.router.url

    @property
    def shard_urls(self) -> List[str]:
        return [server.url for server in self.servers]

    def stop(self) -> None:
        if self.router is not None:
            self.router.stop()
            self.router = None
        # Reverse order unwinds the nested registry installs correctly.
        for server in reversed(self.servers):
            server.drain()
        self.servers = []

    def __enter__(self) -> "InProcessFleet":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.stop()
        return False
