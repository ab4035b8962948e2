"""The route registry: the single machine-readable API surface.

``ROUTES`` is deliberately a flat tuple of ``Route`` literals with the
method and path as the first two string arguments —
``tools/check_docs.py`` parses this file *textually* (no PYTHONPATH)
and compares the table against ``docs/api.md`` in both directions,
exactly the way it already pins metric names and lint rules.  Add an
endpoint here without documenting it (or vice versa) and CI fails.

Path patterns use ``{name}`` placeholders for single path segments;
:func:`match_route` resolves a concrete request line to a route plus
captured parameters, distinguishing 404 (no pattern matches the path)
from 405 (a pattern matches, but not with this method).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.service.errors import ApiError

__all__ = ["Route", "ROUTES", "match_route"]


@dataclass(frozen=True)
class Route:
    """One served endpoint: the wire contract plus its handler name."""

    method: str
    pattern: str  # e.g. "/status/{id}"
    handler: str  # ServiceApp method name
    summary: str


ROUTES: Tuple[Route, ...] = (
    Route("POST", "/claims", "handle_claims",
          "claim a content hash; returns the deterministic identifier"),
    Route("POST", "/labels", "handle_labels",
          "label channels (metadata string + watermark hex) for a claimed id"),
    Route("POST", "/revocations", "handle_revocations",
          "revoke or unrevoke a claimed identifier at write quorum"),
    Route("GET", "/status/{id}", "handle_status_one",
          "revocation status of one identifier"),
    Route("POST", "/status", "handle_status_batch",
          "batch revocation status for a list of identifiers"),
    Route("GET", "/bloom", "handle_bloom",
          "Bloom filter export of revoked identifiers; ETag = chain head"),
    Route("GET", "/deltas", "handle_deltas",
          "acknowledged revocation feed since a cursor"),
    Route("GET", "/metrics", "handle_metrics",
          "Prometheus exposition of the service + frontend registry"),
    Route("GET", "/healthz", "handle_healthz",
          "liveness: shard count, breaker state, chain head"),
)


def _segments(path: str) -> Tuple[str, ...]:
    return tuple(path.strip("/").split("/"))


# Each route beside its pattern's segments, split once rather than per request.
_PATTERNS = tuple((route, _segments(route.pattern)) for route in ROUTES)


def match_route(method: str, path: str) -> Tuple[Route, Dict[str, str]]:
    """Resolve ``(method, path)`` to ``(route, params)`` or raise.

    Raises :class:`ApiError` with kind ``not_found`` when no pattern
    matches the path at all, and ``method_not_allowed`` when at least
    one does but none with this method.
    """
    segments = _segments(path)
    path_matched = False
    for route, pattern in _PATTERNS:
        if len(pattern) != len(segments):
            continue
        params: Dict[str, str] = {}
        for want, got in zip(pattern, segments):
            if want.startswith("{") and want.endswith("}") and got:
                params[want[1:-1]] = got
            elif want != got:
                break  # a literal that differs, or an empty placeholder
        else:
            path_matched = True
            if route.method == method:
                return route, params
    if path_matched:
        raise ApiError("method_not_allowed", f"{method} not allowed on {path}")
    raise ApiError("not_found", f"no route for {path}")
