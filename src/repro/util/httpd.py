"""Minimal HTTP/1.1 plumbing shared by the serving front and the ops sidecar.

Originally private to :mod:`repro.serve.server`; factored out so the
observability sidecar (:mod:`repro.obs.ops`) can serve the same live
endpoints without depending on the model-serving stack.  Four pieces:

* :class:`Response` — the application-layer response value (status, body,
  content type, extra headers) with ``json``/``error`` constructors;
* :func:`read_request` / :func:`render_response` — one-request parse and
  serialize over ``asyncio`` streams (request line + headers under a
  deadline + Content-Length body, keep-alive);
* :func:`sse_preamble` / :func:`sse_event` — Server-Sent Events framing
  for streaming endpoints (``/live``): a response header block that
  disables buffering, then one ``data:`` frame per event;
* :func:`serve_connection` — the connection loop both fronts hand to
  ``asyncio.start_server``: requests in, responses out, ``GET /live``
  turned into an event stream.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass
from typing import Any, Awaitable, Callable

__all__ = ["Response", "RequestError", "STATUS_TEXT", "HEADER_TIMEOUT_S",
           "read_request", "render_response", "sse_preamble", "sse_event",
           "serve_connection"]

STATUS_TEXT = {200: "OK", 400: "Bad Request", 404: "Not Found",
               405: "Method Not Allowed", 408: "Request Timeout",
               413: "Payload Too Large", 503: "Service Unavailable"}

#: seconds a client has to deliver a request line and its headers, the
#: wait for the first byte included, so an idle keep-alive connection
#: ends under the same rule; past it the answer is 408 and a close
HEADER_TIMEOUT_S = 30.0


@dataclass(frozen=True)
class Response:
    """One application-layer response (pre-serialization of HTTP)."""

    status: int
    body: bytes
    content_type: str = "application/json"
    headers: tuple[tuple[str, str], ...] = ()

    @classmethod
    def json(cls, status: int, obj: Any,
             headers: tuple[tuple[str, str], ...] = ()) -> "Response":
        body = json.dumps(obj, sort_keys=True).encode() + b"\n"
        return cls(status=status, body=body, headers=headers)

    @classmethod
    def error(cls, status: int, message: str,
              headers: tuple[tuple[str, str], ...] = ()) -> "Response":
        return cls.json(status, {"error": message}, headers=headers)


class RequestError(Exception):
    """A request answered with ``status`` before it reaches a handler; the
    connection closes after the answer, since the stream can no longer be
    trusted to be at a request boundary."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


async def _readline(reader: asyncio.StreamReader) -> bytes:
    try:
        return await reader.readline()
    except ValueError:  # the line overran the reader's buffer limit
        raise RequestError(400, "request line or header too long") from None


async def _read_head(reader: asyncio.StreamReader
                     ) -> tuple[str, str, dict[str, str]] | None:
    """``(method, path, headers)`` of the next request; None on clean EOF."""
    try:
        line = await _readline(reader)
    except ConnectionError:
        return None
    if not line or not line.strip():
        return None
    parts = line.decode("latin-1").split()
    if len(parts) < 3:
        return None
    method, target = parts[0].upper(), parts[1]
    path = target.split("?", 1)[0]
    headers: dict[str, str] = {}
    while True:
        hline = await _readline(reader)
        if not hline or hline in (b"\r\n", b"\n"):
            break
        name, _, value = hline.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    return method, path, headers


async def read_request(reader: asyncio.StreamReader, max_body: int
                       ) -> tuple[str, str, bytes, bool] | None:
    """Parse one HTTP/1.1 request; None on clean EOF before a request.

    Returns ``(method, path, body, keep_alive)``; the query string is
    split off the target and discarded by the caller's router (handlers
    that need it re-parse the raw target themselves).  Raises
    :class:`RequestError` - 400 for a line longer than the reader's limit
    or a Content-Length that is not a decimal number, 408 for a request
    line and headers not in within :data:`HEADER_TIMEOUT_S`, 413 for a
    body above ``max_body``.
    """
    try:
        head = await asyncio.wait_for(_read_head(reader), HEADER_TIMEOUT_S)
    except asyncio.TimeoutError:
        raise RequestError(408, "request header timeout") from None
    if head is None:
        return None
    method, path, headers = head
    keep_alive = headers.get("connection", "keep-alive").lower() != "close"
    raw_length = headers.get("content-length") or "0"
    if not (raw_length.isascii() and raw_length.isdigit()):
        raise RequestError(400, f"bad Content-Length {raw_length!r}")
    length = int(raw_length)
    if length > max_body:
        # Drain nothing: answering 413 then closing is the contract.
        raise RequestError(413, "request body too large")
    body = await reader.readexactly(length) if length else b""
    return method, path, body, keep_alive


def render_response(resp: Response, keep_alive: bool) -> bytes:
    reason = STATUS_TEXT.get(resp.status, "Response")
    lines = [f"HTTP/1.1 {resp.status} {reason}",
             f"Content-Type: {resp.content_type}",
             f"Content-Length: {len(resp.body)}",
             f"Connection: {'keep-alive' if keep_alive else 'close'}"]
    lines += [f"{k}: {v}" for k, v in resp.headers]
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + resp.body


def sse_preamble() -> bytes:
    """Header block opening a Server-Sent Events stream (no Content-Length:
    the connection stays open and closes when the stream ends)."""
    return (b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: text/event-stream\r\n"
            b"Cache-Control: no-cache\r\n"
            b"Connection: close\r\n\r\n")


def sse_event(obj: Any) -> bytes:
    """One ``data:`` frame carrying ``obj`` as JSON."""
    return b"data: " + json.dumps(obj, sort_keys=True).encode() + b"\n\n"


async def serve_connection(
        reader: asyncio.StreamReader, writer: asyncio.StreamWriter,
        handle: Callable[[str, str, bytes], Awaitable[Response]],
        live_frame: Callable[[], Any], stop: asyncio.Event, *,
        max_body: int, live_interval_s: float) -> None:
    """Serve one client connection until it closes.

    Each request is answered by ``handle(method, path, body)`` and the
    connection kept alive when the client asks for it; a request
    :func:`read_request` rejects (oversized body, overlong line, bad
    Content-Length, headers too slow) is answered with its status and the
    connection closed.  ``GET /live`` turns the connection into a one-way
    Server-Sent Events stream - one ``live_frame()`` every
    ``live_interval_s`` until ``stop`` is set or the client leaves - and
    never returns to request parsing.
    """
    try:
        while True:
            try:
                request = await read_request(reader, max_body)
            except RequestError as exc:
                writer.write(render_response(
                    Response.error(exc.status, str(exc)), keep_alive=False))
                await writer.drain()
                break
            if request is None:
                break
            method, path, body, keep_alive = request
            if method == "GET" and path == "/live":
                writer.write(sse_preamble())
                await writer.drain()
                while not stop.is_set():
                    writer.write(sse_event(live_frame()))
                    await writer.drain()
                    try:
                        await asyncio.wait_for(stop.wait(), live_interval_s)
                    except asyncio.TimeoutError:
                        pass
                break
            resp = await handle(method, path, body)
            writer.write(render_response(resp, keep_alive))
            await writer.drain()
            if not keep_alive:
                break
    except (ConnectionError, asyncio.IncompleteReadError):
        pass  # client went away mid-request; nothing to answer
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass  # close raced the peer's reset
