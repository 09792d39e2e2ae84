"""Open-loop load generator: one process, one event loop, a fixed
schedule over a few keep-alive connections.

Each request has a due time.  The generator sends it then, or as soon as
a connection is free, and times it from the due time, so a stall also
charges the requests queued behind it.  How late each send was is kept
separately as a check on the generator itself.
"""

from __future__ import annotations

import asyncio
import json
import time
from typing import Any, Dict, List, Sequence, Tuple


class _Conn:
    def __init__(self, host: str, port: int):
        self.host, self.port = host, port
        self.reader = self.writer = None

    async def open(self) -> None:
        self.reader, self.writer = await asyncio.open_connection(
            self.host, self.port)

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self.writer = None

    async def post(self, path: str, body: bytes, bench_id: str,
                   ) -> Tuple[int, bytes]:
        if self.writer is None:
            await self.open()
        head = (f"POST {path} HTTP/1.1\r\nHost: {self.host}\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"X-Bench-Id: {bench_id}\r\n\r\n")
        self.writer.write(head.encode("latin-1") + body)
        await self.writer.drain()
        status_line = await self.reader.readline()
        if not status_line:
            raise ConnectionError("server closed the connection")
        status = int(status_line.split()[1])
        length, keep = 0, True
        while True:
            line = await self.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _sep, value = line.decode("latin-1").partition(":")
            name = name.strip().lower()
            if name == "content-length":
                length = int(value.strip())
            elif name == "connection":
                keep = value.strip().lower() != "close"
        payload = await self.reader.readexactly(length) if length else b""
        if not keep:
            await self.close()
        return status, payload


def request_body(request: Dict[str, Any]) -> Tuple[str, bytes]:
    """(path, JSON body) for one scheduled request."""
    items = [{"name": n, "source": s} for n, s, _label in request["sources"]]
    if request["kind"] == "analyze":
        return "/v1/analyze", json.dumps(items[0]).encode()
    if request["kind"] == "bulk":
        return "/v1/check", json.dumps({"sources": items}).encode()
    return "/v1/check", json.dumps(items[0]).encode()


async def _run(host: str, port: int, schedule: Sequence[Dict[str, Any]],
               connections: int, timeout: float) -> List[Dict[str, Any]]:
    free: "asyncio.Queue[_Conn]" = asyncio.Queue()
    conns = [_Conn(host, port) for _ in range(connections)]
    for conn in conns:
        await conn.open()
        free.put_nowait(conn)
    bodies = [request_body(r) for r in schedule]
    results: List[Dict[str, Any]] = [{} for _ in schedule]

    async def send(i: int, conn: _Conn, due: float, sent: float) -> None:
        path, body = bodies[i]
        try:
            status, payload = await asyncio.wait_for(
                conn.post(path, body, schedule[i]["id"]), timeout)
        except (asyncio.TimeoutError, ConnectionError, OSError,
                ValueError, IndexError, asyncio.IncompleteReadError) as exc:
            await conn.close()           # reopened on next use
            status, payload = 0, repr(exc).encode()
        results[i] = {"due": due, "sent": sent, "done": time.time(),
                      "status": status, "body": payload.decode("utf-8",
                                                               "replace")}
        free.put_nowait(conn)

    tasks = []
    start = time.time() + 0.05
    for i, request in enumerate(schedule):
        due = start + request["due_s"]
        delay = due - time.time()
        if delay > 0:
            await asyncio.sleep(delay)
        conn = await free.get()
        tasks.append(asyncio.create_task(send(i, conn, due, time.time())))
    await asyncio.gather(*tasks)
    for conn in conns:
        await conn.close()
    return results


def run_schedule(host: str, port: int, schedule: Sequence[Dict[str, Any]],
                 connections: int, timeout: float = 30.0,
                 ) -> List[Dict[str, Any]]:
    """Send every scheduled request; one result dict per request with
    wall-clock ``due``/``sent``/``done``, HTTP ``status`` (0 for a
    transport failure or timeout) and the response ``body``."""
    return asyncio.run(_run(host, port, schedule, connections, timeout))
