"""Typed synchronous client for the Triangle K-Core query service.

Built on :mod:`http.client` (stdlib, blocking, one keep-alive connection
per instance) so scripts, benchmarks and tests need no third-party HTTP
stack.  Every method returns one of the typed answer dataclasses from
:mod:`repro.service.protocol`; service-side failures surface as
:class:`ServiceClientError` (or :class:`ServiceOverloadError` for
backpressure responses, which carry ``retry_after``).

The client is **not** thread-safe — use one instance per thread (the
load generator in ``benchmarks/bench_service.py`` does exactly that).

Example
-------
>>> client = ServiceClient("127.0.0.1", 8321)          # doctest: +SKIP
>>> client.kappa(0, 1).kappa                           # doctest: +SKIP
3
>>> client.edits([("add", 7, 8)]).version              # doctest: +SKIP
42
"""

from __future__ import annotations

import http.client
import json
import socket
import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..exceptions import ReproError
from ..testing.editscript import EditOp, EditScript
from .protocol import (
    CommunityAnswer,
    EditOutcome,
    HealthInfo,
    HierarchyAnswer,
    KappaAnswer,
    TemplateAnswer,
)

#: Anything `edits()` accepts: a script, ops, or raw ``(kind, u[, v])`` rows.
EditsLike = Union[EditScript, Iterable[Union[EditOp, Sequence[object]]]]


class ServiceClientError(ReproError):
    """A non-2xx service response, carrying the parsed error envelope."""

    def __init__(
        self,
        status: int,
        code: str,
        message: str,
        *,
        retry_after: Optional[float] = None,
    ) -> None:
        super().__init__(f"HTTP {status} [{code}]: {message}")
        self.status = status
        self.code = code
        self.retry_after = retry_after


class ServiceOverloadError(ServiceClientError):
    """A backpressure rejection (429 or 503) — retry after ``retry_after``."""


def _as_script(edits: EditsLike) -> EditScript:
    if isinstance(edits, EditScript):
        return edits
    ops: List[EditOp] = []
    for row in edits:
        if isinstance(row, EditOp):
            ops.append(row)
        else:
            ops.append(EditOp.from_json_obj(list(row)))
    return EditScript(ops)


class ServiceClient:
    """One keep-alive connection to a running service.

    Parameters
    ----------
    host, port:
        Where the service listens.
    timeout:
        Socket timeout in seconds for each request/response exchange.
    retries:
        How many times to transparently reconnect-and-retry when the
        server closed a kept-alive connection between requests (a normal
        hazard of HTTP keep-alive, not an error).  Only connection-level
        failures are retried — HTTP error *responses* never are, except
        through the explicit backoff knobs below.
    backoff_retries:
        How many times to retry a request rejected with a *transient*
        backpressure response (503 with code ``overloaded`` or
        ``timed_out`` by default — see ``backoff_codes``) before
        propagating :class:`ServiceOverloadError`.  Each retry sleeps
        the server's ``Retry-After`` when one was sent, otherwise a
        bounded exponential delay (``backoff_base`` doubling up to
        ``backoff_max``).  Default 0: fail fast, exactly the pre-backoff
        behaviour.
    backoff_base / backoff_max:
        First and largest exponential delay in seconds.
    backoff_codes:
        Error codes eligible for backoff.  429 ``rate_limited`` is
        deliberately not included by default — a rate-limited caller
        retrying in a tight loop is the problem, not the cure; opt in
        explicitly if a shared bucket makes retries appropriate.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8321,
        *,
        timeout: float = 30.0,
        retries: int = 1,
        backoff_retries: int = 0,
        backoff_base: float = 0.05,
        backoff_max: float = 2.0,
        backoff_codes: Tuple[str, ...] = ("overloaded", "timed_out"),
    ) -> None:
        if backoff_retries < 0:
            raise ValueError(
                f"backoff_retries must be >= 0, got {backoff_retries}"
            )
        if backoff_base <= 0 or backoff_max < backoff_base:
            raise ValueError(
                f"need 0 < backoff_base <= backoff_max, got "
                f"{backoff_base!r}/{backoff_max!r}"
            )
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retries = retries
        self.backoff_retries = backoff_retries
        self.backoff_base = backoff_base
        self.backoff_max = backoff_max
        self.backoff_codes = tuple(backoff_codes)
        #: Highest ``version`` seen in any response — pass it back as
        #: ``min_version`` on a read that must observe every write seen.
        self.last_version = 0
        #: Sleeps performed by the backoff loop (seconds, appended per
        #: retry) — observability for tests and load generators.
        self.backoff_sleeps: List[float] = []
        # Injection point so unit tests can run without real sleeping.
        self._sleep = time.sleep
        self._connection: Optional[http.client.HTTPConnection] = None

    # ------------------------------------------------------------------ #
    # plumbing
    # ------------------------------------------------------------------ #

    def _connect(self) -> http.client.HTTPConnection:
        if self._connection is None:
            self._connection = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
        return self._connection

    def close(self) -> None:
        if self._connection is not None:
            self._connection.close()
            self._connection = None

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def request(
        self,
        method: str,
        path: str,
        *,
        body: Optional[Dict[str, object]] = None,
    ) -> Tuple[int, Dict[str, object]]:
        """One exchange with transient-backpressure backoff; returns
        ``(status, decoded JSON payload)``.

        Escape hatch for endpoints the typed methods don't cover (and
        the conformance tests' way of hitting malformed routes).  When
        ``backoff_retries`` is 0 (default) this is a single exchange;
        otherwise 503 ``overloaded``/``timed_out`` rejections (see
        ``backoff_codes``) are retried with bounded exponential delays,
        honouring the server's ``Retry-After`` when present.
        """
        attempts = self.backoff_retries + 1
        delay = self.backoff_base
        for attempt in range(attempts):
            try:
                return self._exchange(method, path, body=body)
            except ServiceOverloadError as error:
                if (
                    attempt == attempts - 1
                    or error.code not in self.backoff_codes
                ):
                    raise
                # The server's own estimate wins; otherwise back off
                # exponentially, never beyond backoff_max per attempt.
                wait = (
                    error.retry_after
                    if error.retry_after is not None
                    else delay
                )
                wait = min(wait, self.backoff_max)
                self.backoff_sleeps.append(wait)
                self._sleep(wait)
                delay = min(delay * 2, self.backoff_max)
        raise AssertionError("unreachable")  # pragma: no cover

    def _exchange(
        self,
        method: str,
        path: str,
        *,
        body: Optional[Dict[str, object]] = None,
    ) -> Tuple[int, Dict[str, object]]:
        """One raw request/response cycle (connection retries only)."""
        payload = None if body is None else json.dumps(body).encode("utf-8")
        headers = {"Content-Type": "application/json"} if payload else {}
        attempts = self.retries + 1
        for attempt in range(attempts):
            connection = self._connect()
            try:
                connection.request(method, path, body=payload, headers=headers)
                response = connection.getresponse()
                raw = response.read()
                break
            except (
                http.client.HTTPException,
                ConnectionError,
                socket.timeout,
                OSError,
            ) as error:
                self.close()
                if attempt == attempts - 1:
                    raise ServiceClientError(
                        0, "connection", f"{method} {path} failed: {error}"
                    ) from error
        try:
            document = json.loads(raw.decode("utf-8")) if raw else {}
        except (json.JSONDecodeError, UnicodeDecodeError) as error:
            raise ServiceClientError(
                response.status, "bad_payload", f"undecodable body: {error!r}"
            ) from error
        if response.will_close:
            self.close()
        if response.status >= 400:
            info = document.get("error") if isinstance(document, dict) else None
            info = info if isinstance(info, dict) else {}
            retry_after = _float_or_none(response.getheader("Retry-After"))
            cls = (
                ServiceOverloadError
                if response.status in (429, 503)
                else ServiceClientError
            )
            raise cls(
                response.status,
                str(info.get("code", "unknown")),
                str(info.get("message", raw[:200])),
                retry_after=retry_after,
            )
        if not isinstance(document, dict):
            raise ServiceClientError(
                response.status, "bad_payload", "expected a JSON object body"
            )
        seen = document.get("version")
        if isinstance(seen, int) and seen > self.last_version:
            self.last_version = seen
        return response.status, document

    def _get(
        self, path: str, *, min_version: Optional[int] = None
    ) -> Dict[str, object]:
        return self.request("GET", _fenced(path, min_version))[1]

    # ------------------------------------------------------------------ #
    # typed endpoints
    # ------------------------------------------------------------------ #

    def healthz(self, *, min_version: Optional[int] = None) -> HealthInfo:
        doc = self._get("/healthz", min_version=min_version)
        return HealthInfo(
            status=str(doc["status"]),
            version=int(doc["version"]),
            vertices=int(doc["vertices"]),
            edges=int(doc["edges"]),
            max_kappa=int(doc["max_kappa"]),
            uptime_seconds=float(doc["uptime_seconds"]),
            draining=bool(doc.get("draining", False)),
        )

    def kappa(
        self, u: object, v: object, *, min_version: Optional[int] = None
    ) -> KappaAnswer:
        doc = self._get(
            f"/kappa?u={_quote(u)}&v={_quote(v)}", min_version=min_version
        )
        return KappaAnswer(
            u=doc["u"],
            v=doc["v"],
            kappa=int(doc["kappa"]),
            version=int(doc["version"]),
        )

    def community(
        self,
        vertex: object,
        k: Optional[int] = None,
        *,
        min_version: Optional[int] = None,
    ) -> CommunityAnswer:
        path = f"/community?vertex={_quote(vertex)}"
        if k is not None:
            path += f"&k={int(k)}"
        doc = self._get(path, min_version=min_version)
        return CommunityAnswer(
            vertex=doc["vertex"],
            level=int(doc["level"]),
            members=tuple(doc["members"]),
            version=int(doc["version"]),
            degraded=bool(doc.get("degraded", False)),
            answered_at_version=doc.get("answered_at_version"),
        )

    def hierarchy(self, *, min_version: Optional[int] = None) -> HierarchyAnswer:
        doc = self._get("/hierarchy", min_version=min_version)
        return HierarchyAnswer(
            version=int(doc["version"]),
            max_level=int(doc["max_level"]),
            roots=tuple(doc["roots"]),
            degraded=bool(doc.get("degraded", False)),
            answered_at_version=doc.get("answered_at_version"),
        )

    def templates(
        self,
        name: str,
        *,
        top: Optional[int] = None,
        min_version: Optional[int] = None,
    ) -> TemplateAnswer:
        path = f"/templates/{name}"
        if top is not None:
            path += f"?top={int(top)}"
        doc = self._get(path, min_version=min_version)
        return TemplateAnswer(
            pattern=str(doc["pattern"]),
            version=int(doc["version"]),
            baseline_version=int(doc["baseline_version"]),
            characteristic_triangles=int(doc["characteristic_triangles"]),
            special_edges=int(doc["special_edges"]),
            cliques=tuple(
                (int(kappa), tuple(vertices)) for kappa, vertices in doc["cliques"]
            ),
            degraded=bool(doc.get("degraded", False)),
        )

    def stats(self) -> Dict[str, object]:
        """The raw engine stats /2 payload (with the ``service`` section)."""
        return self._get("/stats")

    def edits(
        self, edits: EditsLike, *, strategy: Optional[str] = None
    ) -> EditOutcome:
        """POST one edit batch; returns what it did to the served state.

        ``strategy`` overrides the server's default repair strategy for
        this batch: ``"incremental"`` (``"batch"`` is an alias),
        ``"recompute"``, or ``"auto"``.
        """
        body = _as_script(edits).to_json_obj()
        if strategy is not None:
            body["strategy"] = strategy
        doc = self.request("POST", "/edits", body=body)[1]
        delta = doc.get("delta")
        delta = delta if isinstance(delta, dict) else {}
        return EditOutcome(
            version=int(doc["version"]),
            ops=int(doc["ops"]),
            applied=int(doc["applied"]),
            rejected={str(k): int(v) for k, v in dict(doc["rejected"]).items()},
            created=int(delta.get("created", 0)),
            deleted=int(delta.get("deleted", 0)),
            promoted=int(delta.get("promoted", 0)),
            demoted=int(delta.get("demoted", 0)),
            max_kappa=int(doc["max_kappa"]),
        )


def _quote(token: object) -> str:
    from urllib.parse import quote

    return quote(str(token), safe="")


def _fenced(path: str, min_version: Optional[int]) -> str:
    """Append a ``min_version`` read fence to a request path."""
    if min_version is None:
        return path
    separator = "&" if "?" in path else "?"
    return f"{path}{separator}min_version={int(min_version)}"


def _float_or_none(raw: Optional[str]) -> Optional[float]:
    if raw is None:
        return None
    try:
        return float(raw)
    except ValueError:
        return None
