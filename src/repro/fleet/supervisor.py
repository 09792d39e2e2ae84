"""Replica lifecycle: spawn, readiness, liveness, kill.

Each replica is one ``repro serve`` subprocess — the *unchanged* single
-process service — wired into the fleet purely through its flags:

* ``--cache-dir``  → the fleet's one shared cache directory, so a stage
  result computed by any replica (or any of its pool workers) is a disk
  hit for every other: the store's atomic writes let processes share
  one tree without locks;
* ``--workers``    → per-replica engine pool size, when configured.

Liveness is ``Popen.poll()``-based: a killed replica reads as dead on
the very next routing decision, no health-check loop required.  Stdout
and stderr land in per-replica log files in the cache directory.

Crash recovery: the front door's supervision loop polls
:meth:`ReplicaSupervisor.maybe_restart`, which respawns replicas that
died *unexpectedly* (exponential backoff per index).  A replica taken
down through :meth:`kill` is *decommissioned* — it is never respawned,
so failure-injection tests keep their "dead stays dead" semantics; use
:meth:`crash` to simulate an unexpected death the loop should heal.
"""

from __future__ import annotations

import os
import shutil
import socket
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import IO, Any, Dict, List, Optional

from repro.fleet.config import FleetConfig

#: Seconds a replica has to answer ``/healthz`` after it is spawned.
STARTUP_TIMEOUT_S = 180.0

#: First restart delay for a crashed replica, doubled per consecutive
#: attempt and capped at 30 s.
RESTART_BACKOFF_S = 0.5


def free_port(host: str = "127.0.0.1") -> int:
    """An OS-assigned free TCP port (bind-and-release)."""
    with socket.socket() as sock:
        sock.bind((host, 0))
        return sock.getsockname()[1]


def _repo_pythonpath() -> str:
    """``sys.path`` root of the ``repro`` package, prepended to the
    child's ``PYTHONPATH`` so replicas import the same build."""
    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    existing = os.environ.get("PYTHONPATH", "")
    return f"{src}{os.pathsep}{existing}" if existing else src


@dataclass
class Replica:
    """One serve subprocess and its coordinates."""

    index: int
    host: str
    port: int
    proc: subprocess.Popen
    log_path: str
    log_file: Optional[IO[bytes]] = field(default=None, repr=False)

    @property
    def alive(self) -> bool:
        return self.proc.poll() is None

    @property
    def addr(self) -> str:
        return f"{self.host}:{self.port}"

    def as_dict(self) -> Dict[str, Any]:
        return {"index": self.index, "port": self.port,
                "pid": self.proc.pid, "alive": self.alive}


class ReplicaSupervisor:
    """Spawns and owns the fleet's ``repro serve`` subprocesses."""

    def __init__(self, model_path: str, config: FleetConfig):
        self.model_path = model_path
        self.config = config
        self.replicas: List[Replica] = []
        self.restarts = 0
        #: The directory every replica caches in; a temporary one the
        #: supervisor owns (made in :meth:`start`) when not configured.
        self.cache_dir: Optional[str] = config.cache_dir
        self._owns_cache_dir = config.cache_dir is None
        self._no_restart: set = set()          # decommissioned indices
        # index → (consecutive restart attempts, earliest next attempt)
        self._backoff: Dict[int, tuple] = {}

    # -- lifecycle ----------------------------------------------------------
    def start(self) -> List[Replica]:
        """Spawn every replica and block until all answer ``/healthz``
        (or raise after :data:`STARTUP_TIMEOUT_S`, tearing down
        spawned processes)."""
        if self.cache_dir is None:
            self.cache_dir = tempfile.mkdtemp(prefix="repro-fleet-")
        os.makedirs(self.cache_dir, exist_ok=True)
        try:
            for index in range(self.config.replicas):
                self.replicas.append(self._spawn(index))
            deadline = time.time() + STARTUP_TIMEOUT_S
            for replica in self.replicas:
                self._await_ready(replica, deadline)
        except BaseException:
            self.stop()
            raise
        return self.replicas

    def _spawn(self, index: int) -> Replica:
        port = free_port(self.config.host)
        env = dict(os.environ)
        env["PYTHONPATH"] = _repo_pythonpath()
        argv = [sys.executable, "-m", "repro", "serve", self.model_path,
                "--host", self.config.host, "--port", str(port),
                "--cache-dir", self.cache_dir]
        if self.config.workers is not None:
            argv += ["--workers", str(self.config.workers)]
        log_path = os.path.join(self.cache_dir, f"replica{index}.log")
        log_file = open(log_path, "ab")
        proc = subprocess.Popen(
            argv, env=env, stdout=log_file, stderr=subprocess.STDOUT,
            stdin=subprocess.DEVNULL)
        return Replica(index=index, host=self.config.host, port=port,
                       proc=proc, log_path=log_path, log_file=log_file)

    def _await_ready(self, replica: Replica, deadline: float) -> None:
        import http.client

        while time.time() < deadline:
            if not replica.alive:
                raise RuntimeError(
                    f"replica {replica.index} exited with code "
                    f"{replica.proc.returncode} during startup "
                    f"(log: {replica.log_path})")
            try:
                conn = http.client.HTTPConnection(replica.host,
                                                  replica.port, timeout=5)
                try:
                    conn.request("GET", "/healthz")
                    if conn.getresponse().status == 200:
                        return
                finally:
                    conn.close()
            except OSError:
                pass
            time.sleep(0.2)
        raise RuntimeError(
            f"replica {replica.index} not ready within "
            f"{STARTUP_TIMEOUT_S}s (log: {replica.log_path})")

    def kill(self, index: int) -> None:
        """Hard-kill and *decommission* one replica: the supervision
        loop will never respawn it (dead stays dead)."""
        self._no_restart.add(index)
        replica = self.replicas[index]
        if replica.alive:
            replica.proc.kill()
            replica.proc.wait(timeout=30)

    def crash(self, index: int) -> None:
        """Hard-kill one replica *without* decommissioning it — an
        unexpected crash :meth:`maybe_restart` is expected to heal."""
        replica = self.replicas[index]
        if replica.alive:
            replica.proc.kill()
            replica.proc.wait(timeout=30)

    def restart(self, index: int) -> Replica:
        """Respawn one dead replica in place and block until ready.

        The replacement listens on a *fresh* OS-assigned port (the old
        one may sit in TIME_WAIT or have been reclaimed), shares the
        fleet's cache directory, and appends to its log file.
        """
        old = self.replicas[index]
        if old.log_file is not None:
            try:
                old.log_file.close()
            except OSError:
                pass
            old.log_file = None
        replica = self._spawn(index)
        # Counted before it is published: /healthz counts the respawned
        # process alive from here on, and ``restarts`` must not lag it.
        self.restarts += 1
        self.replicas[index] = replica
        self._await_ready(replica, time.time() + STARTUP_TIMEOUT_S)
        return replica

    def maybe_restart(self) -> List[tuple]:
        """Respawn every unexpectedly-dead replica whose backoff window
        has elapsed; returns ``[(index, old_port), ...]`` for each one
        actually restarted.

        Backoff is exponential per index (:data:`RESTART_BACKOFF_S`
        doubling per consecutive attempt, capped at 30s) and resets once a
        restarted replica is seen alive again — a crash-looping replica
        can't hog the supervision loop.
        """
        restarted: List[tuple] = []
        now = time.monotonic()
        for index, replica in enumerate(self.replicas):
            if replica.alive:
                self._backoff.pop(index, None)
                continue
            if index in self._no_restart:
                continue
            attempts, next_at = self._backoff.get(index, (0, 0.0))
            if now < next_at:
                continue
            delay = min(30.0, RESTART_BACKOFF_S * (2 ** attempts))
            self._backoff[index] = (attempts + 1, now + delay)
            old_port = replica.port
            self.restart(index)
            restarted.append((index, old_port))
        return restarted

    def alive(self) -> List[Replica]:
        return [r for r in self.replicas if r.alive]

    def stop(self) -> None:
        for replica in self.replicas:
            if replica.alive:
                replica.proc.terminate()
        deadline = time.time() + 30
        for replica in self.replicas:
            try:
                replica.proc.wait(timeout=max(0.1,
                                              deadline - time.time()))
            except subprocess.TimeoutExpired:
                replica.proc.kill()
                replica.proc.wait(timeout=10)
            if replica.log_file is not None:
                try:
                    replica.log_file.close()
                except OSError:
                    pass
                replica.log_file = None
        if self._owns_cache_dir and self.cache_dir \
                and os.path.isdir(self.cache_dir):
            shutil.rmtree(self.cache_dir, ignore_errors=True)
            self.cache_dir = None
