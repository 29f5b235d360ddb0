"""Endpoint handlers: parse one :class:`HttpRequest`, answer from state.

Handlers are synchronous pure-ish functions ``(state, request, context) ->
(status, payload)``; the server invokes them serially on its one event
loop thread (inline on an idle server, else from the dispatcher), which
is what makes reads consistent and writes single-writer without any
per-structure locking.  All user-input validation lives here; handlers
signal failures by raising :class:`~repro.service.protocol.ServiceError`,
which the server renders as a JSON error body with the right status.

``context.allow_stale`` is the server's degradation signal: when the
request queue is deeper than the configured threshold, cached derived
reads (hierarchy / templates) may be answered from the last materialized
cache (marked ``degraded`` in the payload) instead of rebuilding at the
current version.  ``/kappa`` and ``/community`` are always exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from ..testing.editscript import EditScript
from .protocol import (
    ERR_BAD_REQUEST,
    ERR_METHOD_NOT_ALLOWED,
    ERR_NOT_FOUND,
    HttpRequest,
    ServiceError,
)
from .state import ServiceState

#: (status, JSON payload) — what every handler returns.
HandlerResult = Tuple[int, Dict[str, object]]


@dataclass
class RequestContext:
    """Per-request server-side signals threaded into handlers."""

    allow_stale: bool = False
    draining: bool = False


def _require_param(request: HttpRequest, name: str) -> str:
    value = request.param(name)
    if value is None or value == "":
        raise ServiceError(
            400, ERR_BAD_REQUEST, f"missing required query parameter {name!r}"
        )
    return value


def _int_param(request: HttpRequest, name: str) -> Optional[int]:
    value = request.param(name)
    if value is None or value == "":
        return None
    try:
        return int(value)
    except ValueError:
        raise ServiceError(
            400, ERR_BAD_REQUEST, f"query parameter {name!r} must be an integer"
        ) from None


def handle_healthz(
    state: ServiceState, request: HttpRequest, context: RequestContext
) -> HandlerResult:
    return 200, state.health(draining=context.draining)


def handle_kappa(
    state: ServiceState, request: HttpRequest, context: RequestContext
) -> HandlerResult:
    u = _require_param(request, "u")
    v = _require_param(request, "v")
    return 200, state.kappa(u, v)


def handle_community(
    state: ServiceState, request: HttpRequest, context: RequestContext
) -> HandlerResult:
    vertex = _require_param(request, "vertex")
    k = _int_param(request, "k")
    return 200, state.community(vertex, k)


def handle_hierarchy(
    state: ServiceState, request: HttpRequest, context: RequestContext
) -> HandlerResult:
    return 200, state.hierarchy(allow_stale=context.allow_stale)


def handle_templates(
    state: ServiceState, request: HttpRequest, context: RequestContext
) -> HandlerResult:
    name = request.path[len("/templates/"):]
    if not name or "/" in name:
        raise ServiceError(
            404, ERR_NOT_FOUND, f"malformed template path {request.path!r}"
        )
    top = _int_param(request, "top")
    kwargs = {} if top is None else {"top": top}
    return 200, state.templates(
        name, allow_stale=context.allow_stale, **kwargs
    )


def handle_stats(
    state: ServiceState, request: HttpRequest, context: RequestContext
) -> HandlerResult:
    return 200, state.stats()


def handle_edits(
    state: ServiceState, request: HttpRequest, context: RequestContext
) -> HandlerResult:
    document = request.json_body()
    if not isinstance(document, dict):
        raise ServiceError(
            400, ERR_BAD_REQUEST, "body must be an EditScript JSON object"
        )
    try:
        script = EditScript.from_json_obj(document)
    except (ValueError, TypeError) as error:
        raise ServiceError(
            400, ERR_BAD_REQUEST, f"malformed edit script: {error}"
        ) from error
    strategy = document.get("strategy")
    if strategy is not None and not isinstance(strategy, str):
        raise ServiceError(400, ERR_BAD_REQUEST, "strategy must be a string")
    return 200, state.apply_edits(script, strategy=strategy)


#: Routing table: endpoint name -> (method, matcher, handler).
Handler = Callable[[ServiceState, HttpRequest, RequestContext], HandlerResult]

_EXACT_ROUTES: Dict[Tuple[str, str], Tuple[str, Handler]] = {
    ("GET", "/healthz"): ("healthz", handle_healthz),
    ("GET", "/kappa"): ("kappa", handle_kappa),
    ("GET", "/community"): ("community", handle_community),
    ("GET", "/hierarchy"): ("hierarchy", handle_hierarchy),
    ("GET", "/stats"): ("stats", handle_stats),
    ("POST", "/edits"): ("edits", handle_edits),
}

#: Paths that exist with a different method (for 405-vs-404 decisions).
_KNOWN_PATHS = {path for (_method, path) in _EXACT_ROUTES} | {"/edits"}


def route(request: HttpRequest) -> Tuple[str, Handler]:
    """Resolve a request to ``(endpoint name, handler)``.

    Raises :class:`ServiceError` 404 for unknown paths and 405 for known
    paths hit with the wrong method.
    """
    key = (request.method, request.path)
    if key in _EXACT_ROUTES:
        return _EXACT_ROUTES[key]
    if request.path.startswith("/templates/"):
        if request.method == "GET":
            return "templates", handle_templates
        raise ServiceError(
            405,
            ERR_METHOD_NOT_ALLOWED,
            f"{request.method} is not allowed on {request.path}",
        )
    if request.path in _KNOWN_PATHS:
        raise ServiceError(
            405,
            ERR_METHOD_NOT_ALLOWED,
            f"{request.method} is not allowed on {request.path}",
        )
    raise ServiceError(
        404, ERR_NOT_FOUND, f"no such endpoint: {request.method} {request.path}"
    )
