"""``HttpClient`` frames both directions with the server's own code.

A raw asyncio server stands in for the service, so the client meets
exactly the bytes each test writes: request heads come out of the
renderer ``render_response`` uses, and response heads go through the
parser ``read_request`` uses, bounds and ``Content-Length`` rules
included.
"""

import asyncio

import pytest

from repro.service.errors import ApiError
from repro.service.protocol import MAX_HEADER_BYTES, MAX_HEADER_COUNT, HttpClient


async def _exchange(response: bytes):
    """One client request against a server that answers ``response``."""
    received = []

    async def handle(reader, writer):
        received.append(await reader.readuntil(b"\r\n\r\n"))
        writer.write(response)
        await writer.drain()
        writer.close()

    server = await asyncio.start_server(handle, "127.0.0.1", 0)
    host, port = server.sockets[0].getsockname()[:2]
    client = HttpClient(host, port)
    try:
        return await client.request("GET", "/x"), received, port
    finally:
        await client.close()
        server.close()
        await server.wait_closed()


def test_a_well_framed_response_is_read_and_the_request_head_is_unchanged():
    answer, received, port = asyncio.run(
        _exchange(b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhello")
    )
    assert (answer.status, answer.body) == (200, b"hello")
    assert answer.headers == {"content-length": "5"}
    assert received == [
        b"GET /x HTTP/1.1\r\ncontent-length: 0\r\n"
        + f"host: 127.0.0.1:{port}\r\n\r\n".encode()
    ]


@pytest.mark.parametrize(
    "head, kind",
    [
        (b"content-length: +5\r\n", "malformed"),
        (b"content-length: 1_0\r\n", "malformed"),
        (b"content-length: 5\r\ncontent-length: 3\r\n", "malformed"),
        (b"x-pad: " + b"a" * MAX_HEADER_BYTES + b"\r\n", "too_large"),
        (
            b"".join(b"x-h%d: v\r\n" % i for i in range(MAX_HEADER_COUNT + 1)),
            "too_large",
        ),
    ],
    ids=["plus-sign", "underscore", "disagreeing", "head-bytes", "header-count"],
)
def test_a_response_the_server_parser_would_refuse_is_refused(head, kind):
    with pytest.raises(ApiError) as excinfo:
        asyncio.run(_exchange(b"HTTP/1.1 200 OK\r\n" + head + b"\r\n0123456789"))
    assert excinfo.value.kind == kind
