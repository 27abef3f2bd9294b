"""Hostile input to the shared HTTP loop, fed through a ``StreamReader``.

Every malformed request is answered 400 (an oversized body 413) and the
connection closed; none reaches the handler, and none kills the loop
without an answer.
"""

import asyncio

import pytest

from repro.util.httpd import Response, serve_connection

#: asyncio's default StreamReader buffer limit
LIMIT = 2 ** 16


class FakeWriter:
    def __init__(self) -> None:
        self.data = b""
        self.closed = False

    def write(self, data: bytes) -> None:
        self.data += data

    async def drain(self) -> None:
        pass

    def close(self) -> None:
        self.closed = True

    async def wait_closed(self) -> None:
        pass


def serve(raw: bytes, max_body: int = 1024) -> tuple[str, list]:
    """Feed ``raw`` to one connection; returns (bytes written, handled)."""
    handled = []

    async def handle(method, path, body):
        handled.append((method, path, body))
        return Response.json(200, {"ok": True})

    async def main():
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        reader.feed_eof()
        writer = FakeWriter()
        await serve_connection(reader, writer, handle, dict,
                               asyncio.Event(), max_body=max_body,
                               live_interval_s=1.0)
        assert writer.closed
        return writer.data.decode("latin-1")

    return asyncio.run(main()), handled


def test_well_formed_keep_alive_requests_are_handled():
    out, handled = serve(b"POST /a HTTP/1.1\r\nContent-Length: 3\r\n\r\nabc"
                         b"GET /b HTTP/1.1\r\n\r\n")
    assert handled == [("POST", "/a", b"abc"), ("GET", "/b", b"")]
    assert out.count("HTTP/1.1 200 OK") == 2


@pytest.mark.parametrize("raw", [
    b"GET /" + b"x" * LIMIT + b" HTTP/1.1\r\n\r\n",
    b"GET / HTTP/1.1\r\nX-Big: " + b"y" * LIMIT + b"\r\n\r\n",
], ids=["request-line", "header"])
def test_line_over_the_stream_limit_is_400(raw):
    out, handled = serve(raw)
    assert out.startswith("HTTP/1.1 400 ")
    assert "too long" in out
    assert handled == []


def test_negative_content_length_is_400():
    out, handled = serve(b"POST /a HTTP/1.1\r\nContent-Length: -5\r\n\r\n")
    assert out.startswith("HTTP/1.1 400 ")
    assert "Content-Length" in out
    assert handled == []


def test_non_numeric_content_length_does_not_smuggle_the_body():
    # Read as 0, the body would be parsed as a second keep-alive request.
    out, handled = serve(b"POST /a HTTP/1.1\r\nContent-Length: abc\r\n\r\n"
                         b"GET /smuggled HTTP/1.1\r\n\r\n")
    assert out.startswith("HTTP/1.1 400 ")
    assert out.count("HTTP/1.1") == 1
    assert handled == []


def test_oversized_body_is_413_and_closes():
    out, handled = serve(b"POST /a HTTP/1.1\r\nContent-Length: 2048\r\n\r\n"
                         + b"z" * 2048 + b"GET /b HTTP/1.1\r\n\r\n")
    assert out.startswith("HTTP/1.1 413 ")
    assert "Connection: close" in out
    assert handled == []
