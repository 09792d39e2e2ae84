"""Starting the program's processes and observing them from outside.

Peak memory is read from ``/proc/<pid>/status`` (``VmHWM``, the
kernel's high-water mark of the resident set) for the process and its
descendants, while the process is still alive — the child waits for the
parent's go before it exits.  The host snapshot records what makes a
noisy set of runs traceable to the machine: core count, load average
and hypervisor steal ticks.
"""

from __future__ import annotations

import os
import platform
import queue
import signal
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CHILD = os.path.join(ROOT, "perfbench", "child.py")


def child_env() -> Dict[str, str]:
    """The caller's environment minus any ``REPRO_*`` setting (so the
    program runs at its defaults: serial engine, no disk cache), with
    the program's sources importable."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONUNBUFFERED"] = "1"
    return env


def _children(pid: int) -> List[int]:
    kids: List[int] = []
    try:
        for tid in os.listdir(f"/proc/{pid}/task"):
            with open(f"/proc/{pid}/task/{tid}/children") as fh:
                kids.extend(int(k) for k in fh.read().split())
    except OSError:
        pass
    return kids


def _hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def tree_peak_rss_mb(pid: int) -> float:
    """Sum of peak resident sets over a process and its descendants."""
    total, todo = 0, [pid]
    while todo:
        current = todo.pop()
        total += _hwm_kb(current)
        todo.extend(_children(current))
    return total / 1024.0


def host_snapshot() -> Dict[str, Any]:
    steal = total = 0
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        ticks = [int(x) for x in fields[1:]]
        total = sum(ticks)
        steal = ticks[7] if len(ticks) > 7 else 0
    except (OSError, ValueError):
        pass
    return {"time": time.time(), "loadavg": list(os.getloadavg()),
            "steal_ticks": steal, "total_ticks": total}


def environment() -> Dict[str, Any]:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {"nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy_version,
            "machine": platform.machine()}


class ChildError(RuntimeError):
    pass


class Child:
    """One program process (``perfbench/child.py``)."""

    def __init__(self, workload: str, inputs_path: str, out_path: str,
                 log_path: str, *, model: Optional[str] = None,
                 trace: bool = False, setup_only: bool = False):
        self.out_path = out_path
        args = [sys.executable, CHILD, workload, "--inputs", inputs_path,
                "--out", out_path, "--trace", str(int(trace))]
        if model:
            args += ["--model", model]
        if setup_only:
            args.append("--setup-only")
        self._log = open(log_path, "ab")
        self.launch = time.time()
        args += ["--launch", repr(self.launch)]
        self.proc = subprocess.Popen(
            args, cwd=ROOT, env=child_env(), stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, stderr=self._log)
        self._lines: "queue.Queue[Optional[str]]" = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        for raw in self.proc.stdout:
            self._lines.put(raw.decode("utf-8", "replace").rstrip("\n"))
        self._lines.put(None)

    def expect(self, prefix: str, timeout: float) -> str:
        """The first stdout line starting with ``prefix``."""
        deadline = time.time() + timeout
        while True:
            remaining = deadline - time.time()
            if remaining <= 0:
                raise ChildError(f"no {prefix!r} line within {timeout}s")
            try:
                line = self._lines.get(timeout=remaining)
            except queue.Empty:
                continue
            if line is None:
                raise ChildError(f"program exited ({self.proc.wait()}) "
                                 f"before printing {prefix!r}")
            if line.startswith(prefix):
                return line

    def peak_rss_mb(self) -> float:
        return tree_peak_rss_mb(self.proc.pid)

    def finish(self, timeout: float) -> Dict[str, Any]:
        """Wait for DONE, read peak RSS, let the child exit, load its
        outputs."""
        self.expect("DONE", timeout)
        rss = self.peak_rss_mb()
        self.proc.stdin.close()
        self._wait(30)
        out = self.load()
        out["peak_rss_mb"] = rss
        return out

    def interrupt(self, timeout: float = 60) -> Dict[str, Any]:
        """SIGINT (the server's shutdown), then the outputs."""
        self.proc.send_signal(signal.SIGINT)
        self._wait(timeout)
        return self.load()

    def load(self) -> Dict[str, Any]:
        import json

        with open(self.out_path, "r", encoding="utf-8") as fh:
            return json.load(fh)

    def _wait(self, timeout: float) -> None:
        try:
            code = self.proc.wait(timeout)
        except subprocess.TimeoutExpired:
            self.kill()
            raise ChildError(f"program did not exit within {timeout}s")
        finally:
            self._log.close()
        if code != 0:
            raise ChildError(f"program exited with code {code}")

    def kill(self) -> None:
        """Stop the process if still running and reap it."""
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        if self.proc.stdin and not self.proc.stdin.closed:
            self.proc.stdin.close()
        if not self._log.closed:
            self._log.close()
