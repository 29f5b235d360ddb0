"""Wire protocol of the Triangle K-Core query service.

One place defines what travels over the socket so the server
(:mod:`repro.service.server`), the handlers
(:mod:`repro.service.handlers`) and the typed client
(:mod:`repro.service.client`) can never disagree:

* the **service schema tag** (``repro.service/1``) and the error-code
  vocabulary;
* the **response envelope**: every JSON body carries ``"version"`` — the
  authoritative graph's monotonically increasing
  :attr:`~repro.graph.undirected.Graph.version` at answer time — so a
  client can assert read-your-writes ordering across requests;
* a minimal, strict **HTTP/1.1 codec**: an asyncio request parser with
  hard header/body limits and a response renderer.  The service speaks
  plain HTTP so any client works, but only the small subset it needs
  (no chunked bodies, no multipart, no TLS).

Malformed input is rejected with :class:`ProtocolError` carrying the
right status code; the connection stays alive unless the framing itself
is unrecoverable.
"""

from __future__ import annotations

import asyncio
import json
import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from ..exceptions import ReproError

#: Version tag for service payloads; bump on wire-schema changes.
SERVICE_SCHEMA = "repro.service/1"

# Error codes (the machine-readable half of every error payload).
ERR_BAD_REQUEST = "bad_request"
ERR_NOT_FOUND = "not_found"
ERR_METHOD_NOT_ALLOWED = "method_not_allowed"
ERR_PAYLOAD_TOO_LARGE = "payload_too_large"
ERR_RATE_LIMITED = "rate_limited"
ERR_OVERLOADED = "overloaded"
ERR_TIMED_OUT = "timed_out"
ERR_SHUTTING_DOWN = "shutting_down"
ERR_INTERNAL = "internal"
ERR_STALE = "stale_replica"  # min_version fence not reached in time

#: Hard framing limits (strict: exceeding them is a protocol error).
MAX_REQUEST_LINE_BYTES = 8192
MAX_HEADER_BYTES = 16384
MAX_BODY_BYTES = 8 * 1024 * 1024

_STATUS_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class ServiceError(ReproError):
    """A request that cannot be answered, as an HTTP status + error code.

    Raised by handlers and converted to a JSON error payload by the
    server; also raised client-side (see
    :class:`repro.service.client.ServiceClientError`).
    """

    def __init__(
        self,
        status: int,
        code: str,
        message: str,
        *,
        retry_after: Optional[float] = None,
    ) -> None:
        super().__init__(message)
        self.status = status
        self.code = code
        self.message = message
        self.retry_after = retry_after


class ProtocolError(ServiceError):
    """The HTTP framing itself is invalid (bad request line, huge body)."""

    def __init__(self, status: int, message: str) -> None:
        code = {
            413: ERR_PAYLOAD_TOO_LARGE,
            431: ERR_BAD_REQUEST,
        }.get(status, ERR_BAD_REQUEST)
        super().__init__(status, code, message)


def error_payload(
    code: str, message: str, *, version: Optional[int] = None
) -> Dict[str, object]:
    """The JSON body of every error response."""
    payload: Dict[str, object] = {
        "error": {"code": code, "message": message},
        "schema": SERVICE_SCHEMA,
    }
    if version is not None:
        payload["version"] = version
    return payload


# --------------------------------------------------------------------- #
# HTTP request parsing (server side)
# --------------------------------------------------------------------- #


@dataclass
class HttpRequest:
    """One parsed request: method, split target, headers, raw body."""

    method: str
    path: str
    query: Dict[str, List[str]]
    headers: Dict[str, str]
    body: bytes
    #: Raw request target as received (for logging / fuzz assertions).
    target: str = ""

    def param(self, name: str, default: Optional[str] = None) -> Optional[str]:
        """First value of query parameter ``name`` (or ``default``)."""
        values = self.query.get(name)
        return values[0] if values else default

    def json_body(self) -> object:
        """Decode the body as JSON, raising 400-grade errors on garbage."""
        if not self.body:
            raise ServiceError(400, ERR_BAD_REQUEST, "request body is empty")
        try:
            return json.loads(self.body.decode("utf-8"))
        except UnicodeDecodeError as error:
            raise ServiceError(
                400, ERR_BAD_REQUEST, f"body is not UTF-8: {error}"
            ) from error
        except json.JSONDecodeError as error:
            raise ServiceError(
                400, ERR_BAD_REQUEST, f"body is not valid JSON: {error}"
            ) from error

    @property
    def wants_close(self) -> bool:
        return self.headers.get("connection", "").lower() == "close"


async def read_http_request(
    reader: asyncio.StreamReader,
    *,
    max_body_bytes: int = MAX_BODY_BYTES,
) -> Optional[HttpRequest]:
    """Parse one HTTP/1.1 request off ``reader``.

    Returns ``None`` on a cleanly closed connection (EOF before the first
    byte); raises :class:`ProtocolError` on malformed framing.  Bodies are
    only read when ``Content-Length`` says so — chunked encoding is
    rejected as unsupported.
    """
    try:
        request_line = await reader.readuntil(b"\n")
    except asyncio.IncompleteReadError as error:
        if not error.partial:
            return None
        raise ProtocolError(400, "connection closed mid request line") from None
    except asyncio.LimitOverrunError:
        raise ProtocolError(431, "request line too long") from None
    if len(request_line) > MAX_REQUEST_LINE_BYTES:
        raise ProtocolError(431, "request line too long")
    try:
        parts = request_line.decode("latin-1").strip().split()
    except UnicodeDecodeError:  # pragma: no cover - latin-1 decodes all bytes
        raise ProtocolError(400, "undecodable request line") from None
    if len(parts) != 3:
        raise ProtocolError(400, f"malformed request line: {request_line!r}")
    method, target, http_version = parts
    if not http_version.startswith("HTTP/1."):
        raise ProtocolError(400, f"unsupported protocol {http_version!r}")

    headers: Dict[str, str] = {}
    header_bytes = 0
    while True:
        try:
            line = await reader.readuntil(b"\n")
        except asyncio.IncompleteReadError:
            raise ProtocolError(400, "connection closed mid headers") from None
        except asyncio.LimitOverrunError:
            raise ProtocolError(431, "header line too long") from None
        if line in (b"\r\n", b"\n"):
            break
        header_bytes += len(line)
        if header_bytes > MAX_HEADER_BYTES:
            raise ProtocolError(431, "headers too large")
        name, separator, value = line.decode("latin-1").partition(":")
        if not separator or not name.strip():
            raise ProtocolError(400, f"malformed header line: {line!r}")
        headers[name.strip().lower()] = value.strip()

    if "chunked" in headers.get("transfer-encoding", "").lower():
        raise ProtocolError(400, "chunked transfer encoding is not supported")
    body = b""
    raw_length = headers.get("content-length")
    if raw_length is not None:
        try:
            length = int(raw_length)
        except ValueError:
            raise ProtocolError(400, f"bad Content-Length {raw_length!r}") from None
        if length < 0:
            raise ProtocolError(400, f"bad Content-Length {raw_length!r}")
        if length > max_body_bytes:
            raise ProtocolError(
                413, f"body of {length} bytes exceeds limit {max_body_bytes}"
            )
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError:
            raise ProtocolError(400, "connection closed mid body") from None

    split = urlsplit(target)
    return HttpRequest(
        method=method.upper(),
        path=split.path or "/",
        query=parse_qs(split.query, keep_blank_values=True),
        headers=headers,
        body=body,
        target=target,
    )


# --------------------------------------------------------------------- #
# HTTP response rendering
# --------------------------------------------------------------------- #


def render_http_response(
    status: int,
    payload: Mapping[str, object],
    *,
    keep_alive: bool = True,
    retry_after: Optional[float] = None,
) -> bytes:
    """Serialize one JSON response to raw HTTP/1.1 bytes."""
    body = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode(
        "utf-8"
    )
    reason = _STATUS_REASONS.get(status, "Unknown")
    lines = [
        f"HTTP/1.1 {status} {reason}",
        "Content-Type: application/json",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    if retry_after is not None:
        # Integer seconds per RFC 9110; never under-promise the wait.
        lines.append(f"Retry-After: {max(0, math.ceil(retry_after))}")
    head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
    return head + body


# --------------------------------------------------------------------- #
# typed client-side views of the response payloads
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class KappaAnswer:
    """``GET /kappa`` — one edge's current kappa."""

    u: object
    v: object
    kappa: int
    version: int


@dataclass(frozen=True)
class CommunityAnswer:
    """``GET /community`` — one vertex's triangle-connected community."""

    vertex: object
    level: int
    members: Tuple[object, ...]
    version: int
    degraded: bool = False
    answered_at_version: Optional[int] = None


@dataclass(frozen=True)
class EditOutcome:
    """``POST /edits`` — what one edit batch did to the served state."""

    version: int
    ops: int
    applied: int
    rejected: Dict[str, int]
    created: int
    deleted: int
    promoted: int
    demoted: int
    max_kappa: int

    @property
    def touched(self) -> int:
        return self.created + self.deleted + self.promoted + self.demoted


@dataclass(frozen=True)
class HealthInfo:
    """``GET /healthz`` — liveness plus the served graph's shape."""

    status: str
    version: int
    vertices: int
    edges: int
    max_kappa: int
    uptime_seconds: float
    draining: bool = False


@dataclass(frozen=True)
class TemplateAnswer:
    """``GET /templates/<name>`` — Algorithm 4 vs the startup baseline."""

    pattern: str
    version: int
    baseline_version: int
    characteristic_triangles: int
    special_edges: int
    cliques: Tuple[Tuple[int, Tuple[object, ...]], ...]
    degraded: bool = False


@dataclass(frozen=True)
class HierarchyAnswer:
    """``GET /hierarchy`` — the nested community forest as plain dicts."""

    version: int
    max_level: int
    roots: Tuple[dict, ...] = field(default_factory=tuple)
    degraded: bool = False
    answered_at_version: Optional[int] = None
