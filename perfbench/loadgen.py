"""The serve workloads' load generator: one client, one open connection.

The loop is closed with zero think time.  A unit's POSTs are written to
the connection in one go (HTTP/1.1 pipelining), then its result GETs
likewise, and the next unit starts when the last result has arrived.
Writing a scan at once is how a caller submits a temperature scan, and
it makes the server admit the whole scan before its next scheduling
step: sent one by one, each POST waits behind a sweep step, and whether
a scan lands in one batch or several depends on timing, which made
throughput swing by about 15% between runs.  With ``nproc`` = 2 a single
connection keeps the numbers about the server, not the OS scheduler.
Units go in blocks, each timed right after a run of the reference kernel
in this process, while the server waits for the block's first request.
Responses are kept raw and checked after the window.
"""

from __future__ import annotations

import hashlib
import json
import socket
from array import array
from itertools import chain
from time import perf_counter, sleep

from .workloads import N_TENANTS


class Client:
    """A keep-alive HTTP/1.1 connection to the server on loopback."""

    def __init__(self, port: int, keep_spans: bool = False) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=120)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = self.sock.makefile("rb")
        self.jobs_sent = 0
        self.spans: "list[tuple] | None" = [] if keep_spans else None

    def pipeline(self, requests: "list[tuple]") -> "tuple[float, list]":
        """Send ``(method, path, payload)`` requests in one write.

        Returns the send time and, per request, ``(status, body, time
        the response was read)``.
        """
        data = []
        for method, path, payload in requests:
            body = b"" if payload is None else json.dumps(payload).encode()
            head = f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Length: {len(body)}\r\n\r\n"
            data.append(head.encode("latin-1") + body)
        start = perf_counter()
        self.sock.sendall(b"".join(data))
        replies = []
        for method, path, _ in requests:
            status, body = self._read_response()
            done = perf_counter()
            replies.append((status, body, done))
            if self.spans is not None:
                self.spans.append((f"{method} {path}", start, done, None, None))
        return start, replies

    def _read_response(self) -> "tuple[int, bytes]":
        line = self.reader.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        status = int(line.split()[1])
        length = 0
        while (line := self.reader.readline()) not in (b"\r\n", b""):
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        return status, self.reader.read(length)

    def close(self) -> None:
        self.reader.close()
        self.sock.close()


def connect_healthy(port: int, keep_spans: bool = False, timeout_s: float = 60.0) -> Client:
    """Poll ``/v1/healthz`` until it answers 200; returns the connection."""
    deadline = perf_counter() + timeout_s
    while True:
        try:
            client = Client(port, keep_spans)
        except OSError:
            client = None
        if client is not None:
            try:
                if client.pipeline([("GET", "/v1/healthz", None)])[1][0][0] == 200:
                    return client
            except OSError:
                pass
            client.close()
        if perf_counter() > deadline:
            raise RuntimeError(f"server on port {port} never became healthy")
        sleep(0.001)


def closed_loop(client: Client, units, n_units: int, reference, units_per_block: int = 1):
    """Run ``n_units`` units in blocks of ``units_per_block``.

    Returns one record per job, in submission order, with the index of
    its block; one ``{"seconds", "kernel_s"}`` record per block, the
    block's time and that of the reference run before it; and the
    window's wall time.  A job's latency runs from its unit's POST write
    to its result; its admission time, to its 202.
    """
    jobs: "list[dict]" = []
    blocks: "list[dict]" = []
    start = perf_counter()
    for unit in range(n_units):
        if unit % units_per_block == 0:
            if blocks:
                blocks[-1]["seconds"] = perf_counter() - block_start
            blocks.append({"kernel_s": reference.time()})
            block_start = perf_counter()
        posts = []
        for payload in next(units):
            posts.append({**payload, "tenant": f"tenant-{client.jobs_sent % N_TENANTS}"})
            client.jobs_sent += 1
        sent, replies = client.pipeline([("POST", "/v1/jobs", p) for p in posts])
        records = []
        for payload, (status, body, t) in zip(posts, replies):
            record = {
                "payload": payload, "admit_s": t - sent, "post": status,
                "block": len(blocks) - 1,
            }
            if status == 202:
                record["id"] = json.loads(body)["id"]
            records.append(record)
        admitted = [r for r in records if "id" in r]
        _, results = client.pipeline(
            [("GET", f"/v1/jobs/{r['id']}/result", None) for r in admitted]
        )
        for record, (status, body, t) in zip(admitted, results):
            record.update(get=status, body=body, latency_s=t - sent)
        jobs.extend(records)
    blocks[-1]["seconds"] = perf_counter() - block_start
    return jobs, blocks, perf_counter() - start


def check(record: dict) -> bool:
    """A job succeeded: 202, then 200 with a lattice matching its sha256.

    Sets ``record["sha256"]`` and drops the raw body.
    """
    if record["post"] != 202 or record.get("get") != 200:
        return False
    result = json.loads(record.pop("body"))["result"]
    lattice = array("f", chain.from_iterable(result["lattice"]))
    record["sha256"] = result["lattice_sha256"]
    return hashlib.sha256(lattice.tobytes()).hexdigest() == record["sha256"]


def digest(jobs: "list[dict]") -> str:
    """sha256 over the ordered per-job ``lattice_sha256`` values."""
    return hashlib.sha256("\n".join(job["sha256"] for job in jobs).encode()).hexdigest()
