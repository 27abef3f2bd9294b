"""Live ops sidecar: the serving stack's endpoints for case-study runs.

The PR-7 model server exposes ``/metrics`` / ``/healthz`` / ``/live``
because it is a long-running service; a case-study *simulation* is just
as long-running at scale, but had no runtime surface at all — every
artifact appeared after the run.  :class:`ObsSidecar` closes that gap:
point it at a world's live ``obs`` list and it serves

* ``GET /metrics`` — cross-rank merged Prometheus exposition, including
  the tracer accounting (drops, sampled-out spans, self-measured tax);
* ``GET /metrics.json`` — the same registry as JSON;
* ``GET /healthz`` — rank count, span totals, last completed step per
  rank, drop status;
* ``GET /debug/spans`` — the most recent closed spans across all ranks;
* ``GET /live`` — an SSE stream of per-step aggregates.

The HTTP front is the same stdlib-asyncio plumbing as the model server
(:mod:`repro.util.httpd`), run on a private event loop inside a daemon
thread so the simulation's rank threads never share a scheduler with the
scrape traffic.  Reads are lock-free snapshots of per-rank state (list
slices and registry merges are atomic enough under the GIL; the merge
retries if a registry grows mid-scrape).
"""

from __future__ import annotations

import asyncio
import json
import threading
from typing import Any, Sequence

from repro.obs.export import live_metrics
from repro.obs.runtime import RankObs
from repro.util.httpd import Response, serve_connection
from repro.util.timebase import now_us


class ObsSidecar:
    """Serve live observability endpoints over a run's rank-obs list."""

    def __init__(self, obs: Sequence[RankObs], host: str = "127.0.0.1",
                 port: int = 0, *, live_interval_s: float = 0.25,
                 debug_spans: int = 100,
                 max_body_bytes: int = 64 * 1024) -> None:
        if not obs:
            raise ValueError("sidecar needs at least one RankObs to serve")
        self.obs = list(obs)
        self.host = host
        self.port = int(port)  # 0 = ephemeral; replaced once bound
        self.live_interval_s = float(live_interval_s)
        self.debug_spans = int(debug_spans)
        self.max_body_bytes = int(max_body_bytes)
        self._thread: threading.Thread | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop_event: asyncio.Event | None = None
        self._started = threading.Event()
        self._startup_error: BaseException | None = None
        self._clients: set[asyncio.Task] = set()

    # ------------------------------------------------------------ handlers
    async def handle(self, method: str, path: str) -> Response:
        """Dispatch one request; never raises (the test/driving surface)."""
        if method != "GET":
            return Response.error(405, f"method {method} not allowed")
        if path == "/metrics":
            return Response(status=200,
                            body=live_metrics(self.obs).to_prometheus().encode(),
                            content_type="text/plain; version=0.0.4")
        if path == "/metrics.json":
            return Response(status=200,
                            body=live_metrics(self.obs).to_json().encode())
        if path == "/healthz":
            return Response.json(200, self._health())
        if path == "/debug/spans":
            return Response.json(200, self._recent_spans())
        return Response.error(404, f"no route for GET {path}")

    def _health(self) -> dict[str, Any]:
        dropped = {ro.rank: ro.tracer.dropped_count
                   for ro in self.obs if ro.tracer.dropped_count}
        return {
            "status": "ok" if not dropped else "degraded",
            "ranks": len(self.obs),
            "spans_total": sum(len(ro.tracer) for ro in self.obs),
            "last_step": self._last_steps(),
            "dropped_total": sum(dropped.values()),
            "dropped_by_rank": {str(r): n for r, n in sorted(dropped.items())},
        }

    def _last_steps(self) -> dict[str, Any]:
        """Last completed step per rank (``RankObs.last_step``)."""
        return {str(ro.rank): ro.last_step for ro in self.obs}

    def _recent_spans(self) -> dict[str, Any]:
        spans: list[dict[str, Any]] = []
        for ro in self.obs:
            spans.extend(s.to_dict()
                         for s in ro.tracer.recent_spans(self.debug_spans))
        spans.sort(key=lambda d: d["t_start_us"])
        return {
            "spans": spans[-self.debug_spans:],
            "dropped": sum(ro.tracer.dropped_count for ro in self.obs),
            "sampled_out": sum(ro.tracer.sampled_out for ro in self.obs),
        }

    def live_snapshot(self) -> dict[str, Any]:
        """One frame of the SSE ``/live`` stream: per-step aggregates."""
        return {
            "t_us": now_us(),
            "spans_total": sum(len(ro.tracer) for ro in self.obs),
            "ops_total": sum(ro.tracer.ops for ro in self.obs),
            "dropped_total": sum(ro.tracer.dropped_count for ro in self.obs),
            "last_step": self._last_steps(),
        }

    # ---------------------------------------------------------- HTTP front
    async def _client(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        # Register so _main can drain us instead of cancelling mid-close
        # (a cancelled client task makes asyncio's stream machinery log a
        # spurious CancelledError at loop shutdown).
        task = asyncio.current_task()
        if task is not None:
            self._clients.add(task)
            task.add_done_callback(self._clients.discard)
        assert self._stop_event is not None
        await serve_connection(
            reader, writer, lambda method, path, _body: self.handle(method, path),
            self.live_snapshot, self._stop_event,
            max_body=self.max_body_bytes,
            live_interval_s=self.live_interval_s)

    # ----------------------------------------------------------- lifecycle
    def start(self) -> "ObsSidecar":
        """Bind and serve on a daemon thread; returns self once listening."""
        if self._thread is not None:
            raise RuntimeError("sidecar already started")
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="obs-sidecar")
        self._thread.start()
        self._started.wait(timeout=10.0)
        if self._startup_error is not None:
            raise RuntimeError(
                f"sidecar failed to bind {self.host}:{self.port}"
            ) from self._startup_error
        if not self._started.is_set():
            raise RuntimeError("sidecar did not start within 10 s")
        return self

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # ra: noqa[RA005] — surfaced to start()
            self._startup_error = exc
            self._started.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        server = await asyncio.start_server(self._client, self.host, self.port)
        self.port = server.sockets[0].getsockname()[1]
        self._started.set()
        async with server:
            await self._stop_event.wait()
            # Open connections see the stop event (SSE loops exit on it);
            # give them a moment to finish their close handshake so none
            # is cancelled inside wait_closed().
            if self._clients:
                await asyncio.wait(set(self._clients), timeout=2.0)

    def stop(self) -> None:
        """Stop serving and join the thread (idempotent)."""
        if self._thread is None:
            return
        if self._loop is not None and self._stop_event is not None:
            try:
                self._loop.call_soon_threadsafe(self._stop_event.set)
            except RuntimeError:
                pass  # loop already closed
        self._thread.join(timeout=10.0)
        self._thread = None

    def __enter__(self) -> "ObsSidecar":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"


def fetch(url: str, timeout: float = 5.0) -> tuple[int, bytes]:
    """Tiny HTTP GET for tests/examples (stdlib only; no new deps)."""
    from urllib.request import urlopen

    with urlopen(url, timeout=timeout) as resp:  # noqa: S310 (loopback)
        return resp.status, resp.read()


def parse_sse(stream: bytes) -> list[Any]:
    """Decode ``data:`` frames from a captured SSE byte stream."""
    events: list[Any] = []
    for frame in stream.split(b"\n\n"):
        if frame.startswith(b"data: "):
            events.append(json.loads(frame[len(b"data: "):]))
    return events
