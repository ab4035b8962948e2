"""The service's stable JSON error envelope.

Every non-authoritative answer the API gives carries the same shape:

.. code-block:: json

    {"error": {"kind": "deadline", "status": 504, "detail": "..."}}

``kind`` is the machine-readable contract — clients branch on it, the
tests' reference model (``tests/service/model.py``) checks every reply
against it, and ``docs/api.md`` tables it.
The mapping below is the single source of truth; the doc table is held
equal to it by ``tests/service/test_error_envelope.py``.

``degraded`` is the one deliberate oddity: a degraded Bloom answer is
still an *answer* (fail-closed, per §4.2), so it ships with a ``200``-
family status — ``203 Non-Authoritative Information`` — plus the
advisory envelope, letting clients distinguish it from an
authoritative quorum read without treating it as a failure.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

__all__ = ["ERROR_STATUS", "ApiError", "error_envelope"]

#: kind -> HTTP status. Keep sorted by status; docs/api.md mirrors this.
ERROR_STATUS: Dict[str, int] = {
    "degraded": 203,  # filter-backed answer; quorum unreachable or out of budget
    "malformed": 400,  # unparseable body, bad identifier, bad header
    "not_found": 404,  # identifier not claimed on this cluster
    "method_not_allowed": 405,  # path exists, method does not
    "too_large": 413,  # body over the configured limit
    "shed": 429,  # token-bucket admission refused the request
    "internal": 500,  # handler raised; always a bug, never load
    "unavailable": 503,  # read/write quorum unreachable, degraded reads off
    "deadline": 504,  # request budget exhausted before a quorum answered
}


class ApiError(Exception):
    """Raised by handlers; the dispatcher renders the envelope."""

    def __init__(self, kind: str, detail: str):
        if kind not in ERROR_STATUS:
            raise ValueError(f"unknown error kind {kind!r}")
        super().__init__(detail)
        self.kind = kind
        self.detail = detail

    @property
    def status(self) -> int:
        return ERROR_STATUS[self.kind]


def error_envelope(kind: str, detail: Optional[str]) -> Dict[str, Any]:
    """The ``error`` object embedded in every non-authoritative body."""
    return {
        "error": {
            "kind": kind,
            "status": ERROR_STATUS[kind],
            "detail": detail or kind,
        }
    }
