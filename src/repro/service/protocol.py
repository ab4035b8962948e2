"""Minimal HTTP/1.1 over asyncio streams: just enough wire for the API.

No third-party web framework — the ISSUE's constraint and the point:
the serving tier should depend on nothing the reproduction does not
already carry.  This module is the only place that knows HTTP syntax;
``app.py`` deals purely in :class:`HttpRequest` in and ``(status,
headers, body)`` out.

Supported deliberately-small subset:

* request line + headers + ``Content-Length`` bodies (no chunked
  transfer encoding — a request with one is refused as ``malformed``);
* keep-alive by default, ``Connection: close`` honoured both ways;
* bounded everything: request line, header count, body size.

:class:`HttpClient` is the matching keep-alive client used by the load
generator, the tests and bench E21: it writes its heads with the
server's renderer and reads responses with the server's parser, so
both directions hold the same subset and the same bounds.
"""

from __future__ import annotations

import asyncio
import json
import re
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qsl, unquote, urlsplit

from repro.service.errors import ApiError

__all__ = [
    "HttpRequest",
    "HttpResponse",
    "HttpClient",
    "read_request",
    "render_response",
    "REASONS",
]

MAX_HEADER_BYTES = 16 * 1024  # request line + all headers
MAX_HEADER_COUNT = 64
MAX_BODY_BYTES = 1024 * 1024
_STATUS_LINE = re.compile(r"HTTP/1\.[0-9] ([0-9]{3})(?: |$)")

REASONS: Dict[int, str] = {
    200: "OK",
    201: "Created",
    203: "Non-Authoritative Information",
    204: "No Content",
    304: "Not Modified",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    501: "Not Implemented",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


@dataclass(slots=True)
class HttpRequest:
    """One parsed request; headers are lower-cased."""

    method: str
    target: str
    path: str
    query: Dict[str, str]
    headers: Dict[str, str]
    body: bytes

    def json(self) -> Any:
        """Parse the body as JSON, mapping failures onto the envelope."""
        if not self.body:
            raise ApiError("malformed", "expected a JSON body")
        try:
            return json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ApiError("malformed", f"invalid JSON body: {exc}") from exc

    @property
    def keep_alive(self) -> bool:
        return self.headers.get("connection", "keep-alive").lower() != "close"


@dataclass(slots=True)
class HttpResponse:
    """Client-side view of one response."""

    status: int
    headers: Dict[str, str]
    body: bytes

    def json(self) -> Any:
        return json.loads(self.body.decode("utf-8"))


async def _read_message(
    reader: asyncio.StreamReader, what: str
) -> Optional[Tuple[str, Dict[str, str], bytes]]:
    """Start line, lower-cased headers and body; None on a clean EOF.

    Requests and responses alike: ``Content-Length`` is ASCII digits
    (``int()`` would also take ``+5`` and ``1_0``) and repeats must agree.
    """
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise ApiError("malformed", f"truncated {what} head") from exc
    except asyncio.LimitOverrunError as exc:
        raise ApiError("too_large", f"{what} head exceeds limit") from exc
    if len(head) > MAX_HEADER_BYTES:
        raise ApiError("too_large", f"{what} head exceeds limit")
    start_line, *lines = head.decode("latin-1").split("\r\n")
    header_lines = [line for line in lines if line]
    if len(header_lines) > MAX_HEADER_COUNT:
        raise ApiError("too_large", "too many headers")
    headers: Dict[str, str] = {}
    for line in header_lines:
        name, sep, value = line.partition(":")
        if not sep:
            raise ApiError("malformed", f"bad header line: {line!r}")
        name, value = name.strip().lower(), value.strip()
        if name == "content-length" and headers.get(name, value) != value:
            raise ApiError("malformed", "conflicting Content-Length headers")
        headers[name] = value
    if "transfer-encoding" in headers:
        raise ApiError("malformed", "chunked transfer encoding not supported")
    declared = headers.get("content-length", "0")
    if not (declared.isascii() and declared.isdigit()):
        raise ApiError("malformed", "bad Content-Length")
    length = int(declared)
    if length > MAX_BODY_BYTES:
        raise ApiError(
            "too_large", f"body of {length} bytes exceeds {MAX_BODY_BYTES}"
        )
    body = b""
    if length:
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError as exc:
            raise ApiError("malformed", "truncated body") from exc
    return start_line, headers, body


def _render_head(start_line: str, headers: Dict[str, str]) -> bytes:
    """Start line plus headers, sorted for byte-stable output."""
    head = f"{start_line}\r\n" + "".join(
        f"{name}: {value}\r\n" for name, value in sorted(headers.items())
    )
    return head.encode("latin-1") + b"\r\n"


async def read_request(reader: asyncio.StreamReader) -> Optional[HttpRequest]:
    """Read one request off the stream; None on clean EOF between requests.

    Protocol violations raise :class:`ApiError` (``malformed`` or
    ``too_large``) — the connection handler renders the envelope and
    closes.
    """
    message = await _read_message(reader, "request")
    if message is None:
        return None  # clean close between requests
    request_line, headers, body = message
    parts = request_line.split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise ApiError("malformed", f"bad request line: {request_line!r}")
    method, target, _version = parts
    split = urlsplit(target)
    query = dict(parse_qsl(split.query, keep_blank_values=True))
    return HttpRequest(
        method=method.upper(),
        target=target,
        path=unquote(split.path) or "/",
        query=query,
        headers=headers,
        body=body,
    )


def render_response(
    status: int,
    body: bytes,
    content_type: str = "application/json",
    extra_headers: Optional[Dict[str, str]] = None,
    keep_alive: bool = True,
) -> bytes:
    """Serialize one response (headers sorted for byte-stable output)."""
    headers = {
        "content-length": str(len(body)),
        "connection": "keep-alive" if keep_alive else "close",
    }
    if body or status not in (204, 304):
        headers["content-type"] = content_type
    if extra_headers:
        headers.update({k.lower(): v for k, v in extra_headers.items()})
    reason = REASONS.get(status, "Unknown")
    return _render_head(f"HTTP/1.1 {status} {reason}", headers) + body


@dataclass
class HttpClient:
    """Keep-alive HTTP/1.1 client over one asyncio connection."""

    host: str
    port: int
    _reader: Optional[asyncio.StreamReader] = field(default=None, repr=False)
    _writer: Optional[asyncio.StreamWriter] = field(default=None, repr=False)

    async def connect(self) -> None:
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port, limit=MAX_HEADER_BYTES + MAX_BODY_BYTES
        )

    @property
    def connected(self) -> bool:
        return self._writer is not None

    async def request(
        self,
        method: str,
        path: str,
        body: Optional[Any] = None,
        headers: Optional[Dict[str, str]] = None,
    ) -> HttpResponse:
        """Issue one request; ``body`` (when not bytes) is JSON-encoded."""
        if self._writer is None or self._reader is None:
            await self.connect()
        assert self._reader is not None and self._writer is not None
        if body is None:
            payload = b""
        elif isinstance(body, bytes):
            payload = body
        else:
            payload = json.dumps(body).encode("utf-8")
        request_headers = {
            "host": f"{self.host}:{self.port}",
            "content-length": str(len(payload)),
        }
        if headers:
            request_headers.update({k.lower(): v for k, v in headers.items()})
        self._writer.write(
            _render_head(f"{method} {path} HTTP/1.1", request_headers) + payload
        )
        await self._writer.drain()
        # The response goes through the server's own parser.
        try:
            message = await _read_message(self._reader, "response")
            if message is None:
                raise ConnectionError("connection closed before a response")
            status_line, response_headers, response_body = message
            status = _STATUS_LINE.match(status_line)
            if status is None:
                raise ApiError("malformed", f"bad status line: {status_line!r}")
        except ApiError:
            await self.close()  # the stream's framing is lost
            raise
        if response_headers.get("connection", "").lower() == "close":
            await self.close()
        return HttpResponse(int(status.group(1)), response_headers, response_body)

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass  # peer already gone; closing is the goal
            self._writer = None
            self._reader = None
