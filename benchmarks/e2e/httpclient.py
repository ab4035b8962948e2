"""The benchmark's own keep-alive HTTP/1.1 client.

Deliberately not ``repro.service.protocol.HttpClient``: the instrument
must not change when the program does, so the bytes put on the wire and
the way a response is read are fixed here.
"""

from __future__ import annotations

import asyncio
from typing import Dict, Optional, Tuple


def encode_request(
    method: str,
    target: str,
    body: bytes = b"",
    headers: Optional[Dict[str, str]] = None,
) -> bytes:
    """One request as wire bytes (headers in a fixed order)."""
    lines = [f"{method} {target} HTTP/1.1", "host: bench"]
    if body:
        lines.append("content-type: application/json")
    lines.append(f"content-length: {len(body)}")
    for name, value in (headers or {}).items():
        lines.append(f"{name}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


class Connection:
    """One keep-alive connection; one request in flight at a time."""

    def __init__(self, host: str, port: int):
        self.host = host
        self.port = port
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    async def open(self) -> None:
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port, limit=4 * 1024 * 1024
        )

    async def send(self, raw: bytes) -> Tuple[int, Dict[str, str], bytes]:
        """Write pre-encoded request bytes, read one full response."""
        if self._writer is None:
            await self.open()
        self._writer.write(raw)
        head = await self._reader.readuntil(b"\r\n\r\n")
        lines = head[:-4].decode("latin-1").split("\r\n")
        status = int(lines[0].split(" ", 2)[1])
        headers: Dict[str, str] = {}
        for line in lines[1:]:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0"))
        body = await self._reader.readexactly(length) if length else b""
        if headers.get("connection", "").lower() == "close":
            await self.close()
        return status, headers, body

    async def request(
        self,
        method: str,
        target: str,
        body: bytes = b"",
        headers: Optional[Dict[str, str]] = None,
    ) -> Tuple[int, Dict[str, str], bytes]:
        return await self.send(encode_request(method, target, body, headers))

    async def close(self) -> None:
        writer, self._reader, self._writer = self._writer, None, None
        if writer is not None:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass  # the peer closed first; closing was the goal
