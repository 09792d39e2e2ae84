"""Threaded load generator and client for the detection service.

:class:`ServeClient` is a minimal JSON client over one keep-alive
connection.  :func:`run_load` drives ``POST /v1/check`` with
single-sample requests from N closed-loop clients (``concurrency=1`` is
sequential dispatch: no request can coalesce with another) and reports
client-side latency quantiles (p50/p99), wall-clock throughput, and
error counts.  ``repro obs``, the CI smokes and the tests use both.

Stdlib-only (``http.client`` over keep-alive connections, one per
worker thread).
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an ascending-sorted sequence."""
    if not sorted_values:
        return 0.0
    rank = max(0, min(len(sorted_values) - 1,
                      round(q / 100.0 * (len(sorted_values) - 1))))
    return sorted_values[rank]


class ServeClient:
    """Minimal JSON client over one keep-alive connection."""

    def __init__(self, host: str, port: int, timeout: float = 60.0):
        self._conn = http.client.HTTPConnection(host, port, timeout=timeout)

    def request(self, method: str, path: str,
                payload: Optional[Dict[str, Any]] = None,
                ) -> Tuple[int, Dict[str, Any]]:
        status, _headers, parsed = self.request_full(method, path, payload)
        return status, parsed

    def request_full(self, method: str, path: str,
                     payload: Optional[Dict[str, Any]] = None,
                     headers: Optional[Dict[str, str]] = None,
                     ) -> Tuple[int, Dict[str, str], Any]:
        """Like :meth:`request` but also returns the response headers
        (lower-cased names) — e.g. ``X-Repro-Trace``.  Non-JSON bodies
        (Prometheus text) come back as ``str``."""
        body = None if payload is None else json.dumps(payload)
        send_headers = dict(headers or {})
        if body is not None:
            send_headers.setdefault("Content-Type", "application/json")
        self._conn.request(method, path, body=body, headers=send_headers)
        response = self._conn.getresponse()
        data = response.read()
        resp_headers = {k.lower(): v for k, v in response.getheaders()}
        content_type = resp_headers.get("content-type", "")
        if not data:
            parsed: Any = {}
        elif "json" in content_type:
            parsed = json.loads(data)
        else:
            parsed = data.decode("utf-8", errors="replace")
        return response.status, resp_headers, parsed

    def check(self, source: str, name: str = "input.c",
              ) -> Tuple[int, Dict[str, Any]]:
        return self.request("POST", "/v1/check",
                            {"name": name, "source": source})

    def metrics(self) -> Dict[str, Any]:
        status, payload = self.request("GET", "/metrics")
        if status != 200:
            raise RuntimeError(f"/metrics answered {status}")
        return payload

    def metrics_text(self) -> str:
        """Prometheus text exposition of /metrics."""
        status, _headers, body = self.request_full(
            "GET", "/metrics?format=prometheus")
        if status != 200:
            raise RuntimeError(f"/metrics answered {status}")
        return body if isinstance(body, str) else json.dumps(body)

    def trace(self, trace_id: str) -> Tuple[int, Dict[str, Any]]:
        return self.request("GET", f"/v1/trace/{trace_id}")

    def close(self) -> None:
        self._conn.close()


def _worker(host: str, port: int, jobs: List[Tuple[str, str]],
            latencies: List[float], failures: List[Tuple[int, str]],
            lock: threading.Lock, timeout: float) -> None:
    client = ServeClient(host, port, timeout=timeout)
    try:
        for name, source in jobs:
            start = time.perf_counter()
            try:
                status, payload = client.check(source, name)
            except Exception as exc:       # connection-level failure
                with lock:
                    failures.append((0, f"{type(exc).__name__}: {exc}"))
                continue
            elapsed = time.perf_counter() - start
            with lock:
                if status == 200:
                    latencies.append(elapsed)
                else:
                    failures.append((status,
                                     str(payload.get("error", ""))))
    finally:
        client.close()


def run_load(host: str, port: int, sources: Sequence[Tuple[str, str]], *,
             concurrency: int = 1, timeout: float = 60.0) -> Dict[str, Any]:
    """Send every ``(name, source)`` once, spread over ``concurrency``
    closed-loop clients; returns latency/throughput stats.

    ``concurrency=1`` is the sequential-dispatch baseline.
    """
    if concurrency < 1:
        raise ValueError("concurrency must be >= 1")
    lanes: List[List[Tuple[str, str]]] = [[] for _ in range(concurrency)]
    for i, job in enumerate(sources):
        lanes[i % concurrency].append(job)
    latencies: List[float] = []
    failures: List[Tuple[int, str]] = []
    lock = threading.Lock()
    threads = [threading.Thread(target=_worker,
                                args=(host, port, lane, latencies,
                                      failures, lock, timeout))
               for lane in lanes if lane]
    start = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - start
    ordered = sorted(latencies)
    return {
        "requests": len(sources),
        "concurrency": concurrency,
        "ok": len(latencies),
        "failed": len(failures),
        "failures": failures[:10],
        "wall_sec": round(wall, 4),
        "throughput_rps": round(len(latencies) / wall, 2) if wall else 0.0,
        "latency_p50_ms": round(percentile(ordered, 50) * 1000, 2),
        "latency_p99_ms": round(percentile(ordered, 99) * 1000, 2),
        "latency_mean_ms": round(
            sum(ordered) / len(ordered) * 1000, 2) if ordered else 0.0,
    }
