"""Wire-level tests for the stdlib HTTP/1.1 subset in repro.service.protocol."""

import asyncio

import pytest

from repro.service.errors import ApiError
from repro.service.protocol import (
    MAX_BODY_BYTES,
    MAX_HEADER_COUNT,
    HttpRequest,
    read_request,
    render_response,
)
from tests.service.conftest import serve


def parse(raw: bytes, eof: bool = True):
    """Feed raw bytes to read_request through a StreamReader."""

    async def inner():
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        if eof:
            reader.feed_eof()
        return await read_request(reader)

    return asyncio.run(inner())


def test_parses_request_line_query_and_headers():
    request = parse(
        b"GET /deltas?since=7&empty= HTTP/1.1\r\n"
        b"Host: example\r\n"
        b"X-Deadline-Ms: 250\r\n\r\n"
    )
    assert request.method == "GET"
    assert request.path == "/deltas"
    assert request.query == {"since": "7", "empty": ""}
    assert request.headers["host"] == "example"
    assert request.headers["x-deadline-ms"] == "250"
    assert request.body == b""
    assert request.keep_alive


def test_percent_encoded_path_is_decoded():
    request = parse(b"GET /status/irs1%3Airs1%3A42 HTTP/1.1\r\n\r\n")
    assert request.path == "/status/irs1:irs1:42"


def test_reads_content_length_body():
    request = parse(
        b"POST /claims HTTP/1.1\r\ncontent-length: 9\r\n\r\n{\"a\": 1}x"
    )
    assert request.body == b'{"a": 1}x'


def test_connection_close_disables_keep_alive():
    request = parse(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n")
    assert not request.keep_alive


def test_clean_eof_returns_none():
    assert parse(b"") is None


def test_truncated_head_is_malformed():
    with pytest.raises(ApiError) as excinfo:
        parse(b"GET / HTTP/1.1\r\nHost: x")
    assert excinfo.value.kind == "malformed"


def test_bad_request_line_is_malformed():
    with pytest.raises(ApiError) as excinfo:
        parse(b"GET /\r\n\r\n")
    assert excinfo.value.kind == "malformed"


def test_too_many_headers_is_too_large():
    headers = b"".join(
        b"x-h%d: v\r\n" % i for i in range(MAX_HEADER_COUNT + 1)
    )
    with pytest.raises(ApiError) as excinfo:
        parse(b"GET / HTTP/1.1\r\n" + headers + b"\r\n")
    assert excinfo.value.kind == "too_large"


def test_transfer_encoding_is_refused():
    with pytest.raises(ApiError) as excinfo:
        parse(b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n")
    assert excinfo.value.kind == "malformed"


def test_bad_content_length_is_malformed():
    for value in (b"nope", b"-3"):
        with pytest.raises(ApiError) as excinfo:
            parse(b"POST / HTTP/1.1\r\ncontent-length: " + value + b"\r\n\r\n")
        assert excinfo.value.kind == "malformed"


@pytest.mark.parametrize(
    "value", [b"1_0", b"+5", b"5 5", b"5,5", b"0x5", b"5.0", b"", b"\xb2", b"\xd9\xa5"]
)
def test_content_length_is_ascii_digits_only(value):
    """What ``int()`` would take and HTTP does not: ``1_0`` read ten bytes, ``+5`` five."""
    with pytest.raises(ApiError) as excinfo:
        parse(b"POST / HTTP/1.1\r\ncontent-length: " + value + b"\r\n\r\n0123456789")
    assert excinfo.value.kind == "malformed"


def test_conflicting_content_lengths_are_malformed():
    """The last one used to win: three bytes read, ``45`` parsed as the next request."""
    with pytest.raises(ApiError) as excinfo:
        parse(
            b"POST / HTTP/1.1\r\ncontent-length: 5\r\nContent-Length: 3\r\n\r\n12345"
        )
    assert excinfo.value.kind == "malformed"


def test_a_smuggled_tail_gets_one_400_and_a_closed_connection():
    """Over the socket: the envelope once, then EOF -- ``45`` is never a second request."""

    async def inner():
        async with serve() as env:
            reader, writer = await asyncio.open_connection(env.host, env.port)
            writer.write(
                b"POST /claims HTTP/1.1\r\ncontent-length: 5\r\ncontent-length: 3\r\n\r\n12345"
            )
            answer = await asyncio.wait_for(reader.read(), timeout=10)
            writer.close()
            return answer

    answer = asyncio.run(inner())
    assert answer.startswith(b"HTTP/1.1 400 ") and answer.count(b"HTTP/1.1") == 1
    assert b'"kind": "malformed"' in answer and b"connection: close" in answer


@pytest.mark.parametrize(
    "head, body",
    [
        (b"content-length: 5\r\n", b"12345"),
        (b"Content-Length:5\r\n", b"12345"),
        (b"content-length: 005\r\n", b"12345"),
        (b"content-length: 5\r\nCONTENT-LENGTH:  5 \r\n", b"12345"),
        (b"content-length: 0\r\n", b""),
        (b"", b""),
    ],
)
def test_accepted_content_length_forms_are_unchanged(head, body):
    request = parse(b"POST / HTTP/1.1\r\n" + head + b"\r\n" + body)
    assert request.body == body


def test_oversized_body_is_too_large():
    declared = str(MAX_BODY_BYTES + 1).encode()
    with pytest.raises(ApiError) as excinfo:
        parse(b"POST / HTTP/1.1\r\ncontent-length: " + declared + b"\r\n\r\n")
    assert excinfo.value.kind == "too_large"


def test_truncated_body_is_malformed():
    with pytest.raises(ApiError) as excinfo:
        parse(b"POST / HTTP/1.1\r\ncontent-length: 10\r\n\r\nshort")
    assert excinfo.value.kind == "malformed"


def test_json_body_parse_and_failure():
    request = HttpRequest(
        method="POST", target="/", path="/", query={},
        headers={}, body=b'{"ids": [1]}',
    )
    assert request.json() == {"ids": [1]}
    request.body = b"not json"
    with pytest.raises(ApiError) as excinfo:
        request.json()
    assert excinfo.value.kind == "malformed"
    request.body = b""
    with pytest.raises(ApiError):
        request.json()


def test_render_response_shape():
    raw = render_response(200, b'{"ok": true}')
    head, _, body = raw.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    assert lines[0] == "HTTP/1.1 200 OK"
    assert body == b'{"ok": true}'
    # Headers are sorted for byte-stable output.
    names = [line.split(":")[0] for line in lines[1:]]
    assert names == sorted(names)
    assert "content-length: 12" in lines
    assert "connection: keep-alive" in lines


def test_render_304_omits_content_type():
    raw = render_response(304, b"", keep_alive=False)
    assert b"content-type" not in raw
    assert b"connection: close" in raw
    assert raw.endswith(b"\r\n\r\n")


def test_render_unknown_status_still_serializes():
    assert render_response(299, b"x").startswith(b"HTTP/1.1 299 Unknown\r\n")
