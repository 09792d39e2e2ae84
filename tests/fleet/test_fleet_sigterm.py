"""SIGTERM stops ``repro fleet`` cleanly: the front door stops its
replicas and removes its temporary cache directory before exiting 0."""

import glob
import json
import os
import signal
import subprocess
import sys
import time
import urllib.request

import repro


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def _wait_gone(pid: int, timeout: float) -> bool:
    deadline = time.time() + timeout
    while time.time() < deadline:
        if not _alive(pid):
            return True
        time.sleep(0.1)
    return not _alive(pid)


def test_sigterm_stops_replicas_and_removes_cache_dir(artifact, tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ, TMPDIR=str(tmp_path),
               PYTHONPATH=os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "fleet", artifact,
         "--replicas", "2", "--port", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env)
    pids = []
    try:
        banner = proc.stdout.readline()        # printed once replicas answer
        assert "fleet front door on http://" in banner, banner
        url = banner.split()[4]
        with urllib.request.urlopen(url + "/v1/fleet", timeout=60) as resp:
            doc = json.load(resp)
        pids = [r["pid"] for r in doc["replicas"]]
        assert len(pids) == 2 and all(_alive(pid) for pid in pids)
        assert glob.glob(str(tmp_path / "repro-fleet-*"))

        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=60) == 0, proc.stdout.read()
        # Replicas are children of the fleet, reaped by it before exit.
        assert not [pid for pid in pids if not _wait_gone(pid, 5)]
        assert not glob.glob(str(tmp_path / "repro-fleet-*"))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)
        for pid in pids:
            if _alive(pid):
                os.kill(pid, signal.SIGKILL)
        proc.stdout.close()
