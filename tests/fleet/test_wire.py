"""The shared HTTP dialect, driven identically against both services.

``repro serve`` and the fleet front door read requests with the same
reader (:mod:`repro.serve.http`), so each protocol refusal answers the
same status from both.  The front door relays replica replies
byte-for-byte: a request through it returns exactly the bytes the
replica sends when asked directly under the same trace id.
"""

import json
import socket

import pytest

from repro.fleet import BackgroundFleet, FleetConfig
from repro.serve import BackgroundServer, ServeConfig

_MAX_BODY = 4096
_TRACE = "0123456789abcdef"

_SOURCE = """#include <mpi.h>
int main(int argc, char** argv) {
  int rank; int buf[4]; MPI_Status st;
  MPI_Init(&argc, &argv);
  MPI_Comm_rank(MPI_COMM_WORLD, &rank);
  if (rank == 0) { MPI_Send(buf, 4, MPI_INT, 1, 5, MPI_COMM_WORLD); }
  if (rank == 1) { MPI_Recv(buf, 4, MPI_INT, 0, 5, MPI_COMM_WORLD, &st); }
  MPI_Finalize();
  return 0;
}
"""


@pytest.fixture(scope="module", params=["serve", "fleet"])
def ports(request, artifact):
    """``(front port, port of the replica that answers)``; for the
    single-process service both are the server itself."""
    if request.param == "serve":
        config = ServeConfig(port=0, max_body_bytes=_MAX_BODY)
        with BackgroundServer(artifact, config) as server:
            yield server.port, server.port
    else:
        config = FleetConfig(port=0, replicas=1, max_body_bytes=_MAX_BODY,
                             request_timeout_s=600.0)
        with BackgroundFleet(artifact, config) as fleet:
            yield fleet.port, fleet.door.supervisor.replicas[0].port


def _exchange(port, request, timeout):
    """Send one raw request; read until the server closes."""
    with socket.create_connection(("127.0.0.1", port),
                                  timeout=timeout) as sock:
        sock.sendall(request)
        chunks = []
        while True:
            data = sock.recv(65536)
            if not data:
                break
            chunks.append(data)
    head, _sep, body = b"".join(chunks).partition(b"\r\n\r\n")
    status_line, *lines = head.decode("latin-1").split("\r\n")
    headers = {}
    for line in lines:
        name, _sep, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return int(status_line.split()[1]), headers, body


def _post(path, payload):
    body = json.dumps(payload).encode("utf-8")
    return (f"POST {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n"
            f"X-Repro-Trace: {_TRACE}\r\n"
            f"Content-Length: {len(body)}\r\n\r\n").encode("latin-1") + body


_MANY_HEADERS = b"".join(b"X-%d: y\r\n" % i for i in range(200))

# Refused requests also ask for Connection: close, so a service that
# wrongly accepts one answers and hangs up instead of idling.
_CLOSE = b"Host: t\r\nConnection: close\r\n"

#: (request, expected status, expected body text, relayed by the fleet)
_CASES = {
    "too_many_headers": (
        b"GET /healthz HTTP/1.1\r\n" + _CLOSE + _MANY_HEADERS + b"\r\n",
        400, b"too many headers", False),
    "chunked": (
        b"POST /v1/check HTTP/1.1\r\n" + _CLOSE
        + b"Transfer-Encoding: chunked\r\n\r\n"
        b"f\r\n{\"source\": \"x\"}\r\n0\r\n\r\n",
        400, b"Transfer-Encoding is not supported", False),
    "negative_content_length": (
        b"POST /v1/check HTTP/1.1\r\n" + _CLOSE
        + b"Content-Length: -1\r\n\r\n",
        400, b"Content-Length", False),
    "oversized_body": (
        b"POST /v1/check HTTP/1.1\r\n" + _CLOSE
        + b"Content-Length: %d\r\n\r\n" % (_MAX_BODY + 1),
        413, b"payload_too_large", False),
    "check": (_post("/v1/check", {"name": "a.c", "source": _SOURCE}),
              200, b'"results"', True),
    "analyze": (_post("/v1/analyze", {"name": "a.c", "source": _SOURCE}),
                200, b'"verdict"', True),
    "replica_bad_request": (
        _post("/v1/analyze", {"name": "a.c", "source": _SOURCE,
                              "nprocs": 99}),
        400, b"'nprocs' must be an integer", True),
}


@pytest.mark.parametrize("case", sorted(_CASES))
def test_shared_reader_and_relay(ports, case):
    front, replica = ports
    request, status, text, relayed = _CASES[case]
    # A refusal comes before any body is read, so it is quick; an
    # oversized body the service wrongly accepts times out waiting here.
    timeout = 600 if relayed else 30
    got, headers, body = _exchange(front, request, timeout)
    assert got == status, body
    assert text in body
    if relayed:
        assert headers["x-repro-trace"] == _TRACE
        direct, direct_headers, direct_body = _exchange(replica, request,
                                                        timeout)
        assert direct == status
        assert direct_headers["x-repro-trace"] == _TRACE
        assert body == direct_body
