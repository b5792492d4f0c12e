"""The repro.serve wire protocol: JSON schemas + a stdlib HTTP/1.1 layer.

Two concerns live here, deliberately separated from the service logic in
:mod:`repro.serve.app`:

1. **Schemas.** :func:`config_from_wire` turns a whitelisted JSON object
   into a frozen :class:`~repro.api.SimulationConfig` (unknown fields
   are a 400, never a silent drop), and :func:`result_to_wire`
   serialises a :class:`~repro.sched.job.JobResult` losslessly — spin
   values are exact ±1 floats and Python's JSON encoder round-trips
   floats bit-exactly, so a result fetched over HTTP is *bit-identical*
   to the in-process ``repro.submit()`` result (the acceptance gate in
   ``benchmarks/bench_serve.py``).  ``lattice_sha256`` rides along for
   cheap integrity checks.

2. **HTTP plumbing.** A minimal, dependency-free asyncio HTTP/1.1
   codec: :func:`read_http_request` parses one request from a stream
   (keep-alive aware), :func:`http_response` renders a JSON response,
   and :func:`encode_chunk` / :data:`LAST_CHUNK` frame the chunked
   ``/stream`` endpoint.  The client half (:func:`http_request`,
   :func:`stream_frames`) exists so tests, benchmarks and the harness
   can exercise the server over real sockets without any third-party
   HTTP library — the package depends on numpy only.

The protocol is versioned by :data:`PROTOCOL_VERSION`; responses carry
it so clients can detect schema drift.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
from dataclasses import dataclass, field
from urllib.parse import parse_qsl, urlsplit

import numpy as np

__all__ = [
    "LAST_CHUNK",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "Request",
    "config_from_wire",
    "encode_chunk",
    "http_request",
    "http_response",
    "read_http_request",
    "result_to_wire",
    "stream_frames",
]

#: Versioned wire-protocol identifier; every JSON response carries it.
PROTOCOL_VERSION = "repro.serve/v1"

#: Config fields a tenant may set over the wire.  Pool/telemetry-owning
#: fields (grid, telemetry, record_trace, ...) are the
#: scheduler's — :class:`~repro.sched.job.JobSpec` would reject them
#: anyway, but rejecting unknown keys here gives a 400 with the field
#: name instead of a late validation error.
_CONFIG_FIELDS = frozenset(
    {
        "shape", "temperature", "beta", "field", "updater", "dtype",
        "backend", "seed", "block_shape", "initial", "fused",
    }
)
_MODEL_FIELDS = frozenset({"couplings", "disorder_seed", "field"})

_STATUS_TEXT = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

#: Terminating frame of a chunked response body.
LAST_CHUNK = b"0\r\n\r\n"

_MAX_HEADER_BYTES = 64 * 1024
_MAX_BODY_BYTES = 16 * 1024 * 1024


class ProtocolError(ValueError):
    """A malformed request; maps to an HTTP 400 with the message."""


# -- schemas ------------------------------------------------------------------


def config_from_wire(payload: object) -> "object":
    """Build a :class:`~repro.api.SimulationConfig` from a JSON object.

    Accepts exactly the whitelisted scalar fields plus an optional
    ``model`` sub-object (couplings / disorder_seed / field).
    JSON lists become tuples (``shape``/``block_shape``) or a float32
    spin array (``initial``); anything else is passed through to the
    config's own validation.  Unknown keys raise :class:`ProtocolError`.
    """
    from ..api import ModelSpec, SimulationConfig

    if not isinstance(payload, dict):
        raise ProtocolError(
            f"config must be a JSON object, got {type(payload).__name__}"
        )
    unknown = set(payload) - _CONFIG_FIELDS - {"model"}
    if unknown:
        raise ProtocolError(
            f"unknown config field(s): {sorted(unknown)}; "
            f"allowed: {sorted(_CONFIG_FIELDS | {'model'})}"
        )
    kwargs = dict(payload)
    model = kwargs.pop("model", None)
    if model is not None:
        if not isinstance(model, dict):
            raise ProtocolError(
                f"model must be a JSON object, got {type(model).__name__}"
            )
        unknown = set(model) - _MODEL_FIELDS
        if unknown:
            raise ProtocolError(
                f"unknown model field(s): {sorted(unknown)}; "
                f"allowed: {sorted(_MODEL_FIELDS)}"
            )
        try:
            kwargs["model"] = ModelSpec(**model)
        except (TypeError, ValueError) as exc:
            raise ProtocolError(f"invalid model spec: {exc}") from exc
    for key in ("shape", "block_shape"):
        if isinstance(kwargs.get(key), list):
            kwargs[key] = tuple(kwargs[key])
    if isinstance(kwargs.get("initial"), list):
        kwargs["initial"] = np.asarray(kwargs["initial"], dtype=np.float32)
    backend = kwargs.get("backend")
    if backend is not None and backend not in ("numpy", "tpu"):
        raise ProtocolError(
            f"backend must be 'numpy', 'tpu' or omitted, got {backend!r}"
        )
    try:
        return SimulationConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"invalid config: {exc}") from exc


def result_to_wire(result) -> dict:
    """Serialise a :class:`~repro.sched.job.JobResult` losslessly to JSON.

    Spins are exact ±1.0 float32 values and the scalar observables
    round-trip bit-exactly through Python's JSON float encoding, so the
    wire result equals the in-process result to the last bit.
    """
    lattice = np.ascontiguousarray(np.asarray(result.lattice, dtype=np.float32))
    return {
        "magnetization": float(result.magnetization),
        "energy": float(result.energy),
        "sweeps": int(result.sweeps),
        "lattice": lattice.tolist(),
        "lattice_sha256": hashlib.sha256(lattice.tobytes()).hexdigest(),
    }


# -- server-side HTTP ---------------------------------------------------------


@dataclass
class Request:
    """One parsed HTTP request (method, split target, headers, raw body)."""

    method: str
    path: str
    query: dict = field(default_factory=dict)
    headers: dict = field(default_factory=dict)
    body: bytes = b""

    def json(self) -> object:
        """The body decoded as JSON (:class:`ProtocolError` when invalid)."""
        if not self.body:
            raise ProtocolError("request body must be a JSON object")
        try:
            return json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ProtocolError(f"invalid JSON body: {exc}") from exc

    @property
    def keep_alive(self) -> bool:
        return self.headers.get("connection", "").lower() != "close"


async def read_http_request(reader: asyncio.StreamReader) -> Request | None:
    """Parse one HTTP/1.1 request off ``reader``; None on clean EOF."""
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise ProtocolError("truncated HTTP request head") from exc
    except asyncio.LimitOverrunError as exc:
        raise ProtocolError("HTTP request head too large") from exc
    if len(head) > _MAX_HEADER_BYTES:
        raise ProtocolError("HTTP request head too large")
    lines = head.decode("latin-1").split("\r\n")
    try:
        method, target, _version = lines[0].split(" ", 2)
    except ValueError as exc:
        raise ProtocolError(f"malformed request line: {lines[0]!r}") from exc
    headers: dict = {}
    for line in lines[1:]:
        if not line:
            continue
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    split = urlsplit(target)
    body = b""
    length = headers.get("content-length")
    if length is not None:
        try:
            n = int(length)
        except ValueError as exc:
            raise ProtocolError(f"bad Content-Length: {length!r}") from exc
        if n < 0 or n > _MAX_BODY_BYTES:
            raise ProtocolError(f"unacceptable Content-Length: {n}")
        if n:
            body = await reader.readexactly(n)
    return Request(
        method=method.upper(),
        path=split.path,
        query=dict(parse_qsl(split.query)),
        headers=headers,
        body=body,
    )


def http_response(
    status: int,
    payload: object = None,
    headers: dict | None = None,
    chunked: bool = False,
) -> bytes:
    """Render a response head (+ JSON body unless ``chunked``).

    JSON payloads get the protocol version stamped in; chunked heads
    carry ``Transfer-Encoding: chunked`` and the caller streams the body
    with :func:`encode_chunk` / :data:`LAST_CHUNK`.
    """
    text = _STATUS_TEXT.get(status, "Unknown")
    lines = [f"HTTP/1.1 {status} {text}"]
    extra = dict(headers or {})
    body = b""
    if chunked:
        extra.setdefault("Content-Type", "application/x-ndjson")
        extra["Transfer-Encoding"] = "chunked"
    else:
        if payload is None:
            payload = {}
        if isinstance(payload, dict):
            payload = {"protocol": PROTOCOL_VERSION, **payload}
        body = (json.dumps(payload) + "\n").encode("utf-8")
        extra.setdefault("Content-Type", "application/json")
        extra["Content-Length"] = str(len(body))
    for name, value in extra.items():
        lines.append(f"{name}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


def encode_chunk(payload: dict) -> bytes:
    """Frame one NDJSON line as an HTTP chunk (the ``/stream`` format)."""
    data = (json.dumps(payload) + "\n").encode("utf-8")
    return f"{len(data):x}\r\n".encode("latin-1") + data + b"\r\n"


# -- client-side HTTP (tests / benchmarks / harness) --------------------------


async def _read_response_head(reader) -> tuple[int, dict]:
    head = await reader.readuntil(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split(" ", 2)[1])
    headers: dict = {}
    for line in lines[1:]:
        if not line:
            continue
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return status, headers


async def _read_chunks(reader):
    """Yield decoded chunk payloads until the terminating chunk."""
    while True:
        size_line = await reader.readuntil(b"\r\n")
        size = int(size_line.strip(), 16)
        if size == 0:
            await reader.readuntil(b"\r\n")
            return
        data = await reader.readexactly(size)
        await reader.readexactly(2)  # trailing CRLF
        yield data


async def http_request(
    host: str,
    port: int,
    method: str,
    path: str,
    payload: dict | None = None,
    headers: dict | None = None,
) -> tuple[int, dict, object]:
    """One request/response round trip; returns (status, headers, body).

    The body is JSON-decoded when the response carries a JSON content
    type, raw bytes otherwise.  Opens and closes its own connection —
    simple and race-free for tests; sustained load uses many of these
    concurrently.
    """
    reader, writer = await asyncio.open_connection(host, port)
    try:
        body = b""
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
        lines = [
            f"{method} {path} HTTP/1.1",
            f"Host: {host}:{port}",
            "Connection: close",
            f"Content-Length: {len(body)}",
        ]
        for name, value in (headers or {}).items():
            lines.append(f"{name}: {value}")
        writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body)
        await writer.drain()
        status, resp_headers = await _read_response_head(reader)
        if resp_headers.get("transfer-encoding") == "chunked":
            chunks = [chunk async for chunk in _read_chunks(reader)]
            raw = b"".join(chunks)
        elif "content-length" in resp_headers:
            raw = await reader.readexactly(int(resp_headers["content-length"]))
        else:
            raw = await reader.read()
        content_type = resp_headers.get("content-type", "")
        decoded: object = raw
        if "json" in content_type and raw:
            decoded = json.loads(raw.decode("utf-8"))
        return status, resp_headers, decoded
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def stream_frames(host: str, port: int, path: str) -> list[dict]:
    """Consume a chunked ``/stream`` response into its NDJSON frames.

    Returns the decoded frames in arrival order; raises
    :class:`ProtocolError` when the endpoint answered a non-streaming
    (error) response.
    """
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(
            (
                f"GET {path} HTTP/1.1\r\nHost: {host}:{port}\r\n"
                "Connection: close\r\n\r\n"
            ).encode("latin-1")
        )
        await writer.drain()
        status, headers = await _read_response_head(reader)
        if headers.get("transfer-encoding") != "chunked":
            raise ProtocolError(
                f"expected a chunked stream, got status {status} "
                f"({headers.get('content-type', 'no content type')})"
            )
        frames: list[dict] = []
        buffer = b""
        async for chunk in _read_chunks(reader):
            buffer += chunk
            while b"\n" in buffer:
                line, buffer = buffer.split(b"\n", 1)
                if line.strip():
                    frames.append(json.loads(line.decode("utf-8")))
        return frames
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
