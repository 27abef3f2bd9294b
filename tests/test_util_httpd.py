"""Hostile input to the shared HTTP loop, fed through a ``StreamReader``.

Every malformed request is answered 400 (an oversized body 413) and the
connection closed; none reaches the handler, and none kills the loop
without an answer.  A client too slow with its headers, or idle on a
keep-alive connection, is answered 408 over a loopback socket.
"""

import asyncio

import pytest

from repro.util import httpd
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


def recording_handler(handled: list):
    async def handle(method, path, body):
        handled.append((method, path, body))
        return Response.json(200, {"ok": True})
    return handle


def serve(raw: bytes, max_body: int = 1024) -> tuple[str, list]:
    """Feed ``raw`` to one connection; returns (bytes written, handled)."""
    handled: list = []
    handle = recording_handler(handled)

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


@pytest.mark.parametrize("sent", [
    b"",
    b"GET / HTTP/1.1\r\n",
    b"GET /a HTTP/1.1\r\n\r\n",
], ids=["silent", "headers-unfinished", "idle-keep-alive"])
def test_slow_client_gets_408_and_its_connection_task_ends(monkeypatch, sent):
    monkeypatch.setattr(httpd, "HEADER_TIMEOUT_S", 0.05)
    handled: list = []
    handle = recording_handler(handled)

    async def main():
        tasks: list = []
        finished = asyncio.Event()

        async def connection(reader, writer):
            tasks.append(asyncio.current_task())
            try:
                await serve_connection(reader, writer, handle, dict,
                                       asyncio.Event(), max_body=1024,
                                       live_interval_s=1.0)
            finally:
                finished.set()

        listener = await asyncio.start_server(connection, "127.0.0.1", 0)
        port = listener.sockets[0].getsockname()[1]
        try:
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            try:
                writer.write(sent)
                await writer.drain()
                # read() returns at EOF: only the server's close ends it
                data = await asyncio.wait_for(reader.read(), 60)
                await asyncio.wait_for(finished.wait(), 60)
            finally:
                writer.close()
                await writer.wait_closed()
        finally:
            listener.close()
            await listener.wait_closed()
        return data.decode("latin-1"), tasks

    out, tasks = asyncio.run(main())
    answers = [line for line in out.splitlines() if line.startswith("HTTP/1.1")]
    expect = ["HTTP/1.1 408 Request Timeout"]
    if sent.endswith(b"\r\n\r\n"):
        expect.insert(0, "HTTP/1.1 200 OK")
    assert answers == expect
    assert out.rstrip("\n").endswith('{"error": "request header timeout"}')
    assert "Connection: close" in out
    assert len(handled) == len(expect) - 1
    assert len(tasks) == 1 and tasks[0].done()
