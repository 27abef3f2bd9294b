"""The serving workload: a closed loop against ``ModelServer.handle``.

Sixteen coroutine clients share one thread and one in-process server, no
sockets; each sends its next request only when the previous reply is in
(the callers are ranks and monitors that wait for a prediction, so a
closed loop is the honest shape).  One repetition replays the same seeded
block of requests, so every repetition does identical work on a hot
cache; a cold-cache workload is a later change.
"""

from __future__ import annotations

import asyncio
import gc
import json
import math
import os
from dataclasses import dataclass, field
from typing import Any

import numpy as np
from casework import cpu_s

from repro.models.performance import build_model
from repro.models.serialize import ModelRepository
from repro.serve import ModelServer, ServeConfig
from repro.serve.loadgen import LoadMix, generate_requests
from repro.util.rng import make_rng, rng_from_key
from repro.util.timebase import now_us

CLIENTS = 16
#: requests in one repetition (all clients together)
BLOCK = 5_000
SMOKE_BLOCK = 1_000
#: share of the last block re-issued after the run and compared
RECHECK_SHARE = 0.01

Request = tuple[str, str, bytes]


def build_model_repo(directory: str) -> str:
    """Six models shaped like the case study's fits.

    The same repository as ``benchmarks/test_serving_load.py`` builds,
    rebuilt here because that file is outside this benchmark's paths.
    """
    repo = ModelRepository(directory)
    rng = make_rng(7)
    q = np.repeat([1e3, 5e3, 2e4, 8e4, 3e5], 8)
    for comp, slope in (("GodunovFlux", 0.315), ("EFMFlux", 0.16)):
        for mode, scale in (("sequential", 1.0), ("strided", 1.8)):
            t = 25.0 + slope * scale * q + rng.normal(0, 4.0, q.size)
            repo.store("flux", build_model(
                f"{comp}[{mode}]", q, t, mean_families=("linear",),
                quality=0.9 if comp == "GodunovFlux" else 0.75))
    for mode, scale in (("x", 1.0), ("y", 1.45)):
        t = (np.exp(1.19 * np.log(q) - 3.68) * scale
             * np.exp(rng.normal(0, 0.02, q.size)))
        repo.store("states", build_model(
            f"States[{mode}]", q, t, mean_families=("power",), quality=1.0))
    return directory


def make_streams(server: ModelServer, seed: int, total: int) -> list[list[Request]]:
    """Each client's request list, a pure function of the seed.

    The seed draws which model and which Q each request asks for.  The
    mix itself is held at ``LoadMix``'s proportions exactly: drawn freely,
    the number of batch requests (15%, each worth 16 predictions) swings
    the work in a block by a few percent from seed to seed, which is
    noise in every metric and tells nothing about the server.
    """
    catalog = server.store.snapshot.catalog()
    components = sorted({m.component for m in catalog})
    modes: dict[str, list[str | None]] = {}
    for m in catalog:
        modes.setdefault(m.component, []).append(m.mode)
    mix = LoadMix()
    paths = ("/v1/predict", "/v1/predict/batch", "/v1/models", "/metrics")
    quota = {path: round(total * w) for path, w in zip(paths, mix.weights())}
    quota["/v1/predict"] += total - sum(quota.values())
    pool_size = 2 * total
    while True:
        pool = generate_requests(seed, 0, pool_size, components, modes, mix)
        left = dict(quota)
        chosen = []
        for req in pool:
            if left[req[1]] > 0:
                left[req[1]] -= 1
                chosen.append(req)
        if not any(left.values()):
            break
        pool_size *= 2
    return [chosen[w::CLIENTS] for w in range(CLIENTS)]


async def run_block(server: ModelServer, streams: list[list[Request]]
                    ) -> tuple[float, list[list[tuple[float, Any]]]]:
    """Replay the block once; returns wall seconds and, per client, each
    request's ``(latency_us, response)`` in stream order."""
    replies: list[list[tuple[float, Any]]] = [[] for _ in streams]

    async def client(wid: int) -> None:
        out = replies[wid]
        for method, path, body in streams[wid]:
            t0 = now_us()
            resp = await server.handle(method, path, body)
            out.append((now_us() - t0, resp))

    t0 = now_us()
    await asyncio.gather(*(client(w) for w in range(len(streams))))
    return (now_us() - t0) / 1e6, replies


def _predictions(body: bytes) -> list[dict[str, Any]]:
    """The prediction objects of a reply, minus the cache flag (a reply
    served from cache must carry the same numbers as the computed one)."""
    doc = json.loads(body)
    preds = doc["predictions"] if "predictions" in doc else [doc["prediction"]]
    return [{k: v for k, v in p.items() if k != "cached"} for p in preds]


def reply_problem(path: str, resp: Any) -> str | None:
    """Why this reply counts as failed, or None."""
    if resp.status >= 400:
        return f"{path}: status {resp.status}"
    if path.startswith("/v1/predict"):
        try:
            preds = _predictions(resp.body)
        except (ValueError, KeyError, TypeError) as exc:
            return f"{path}: unparsable reply ({exc})"
        for p in preds:
            if not (math.isfinite(p["mean_us"]) and math.isfinite(p["std_us"])):
                return f"{path}: non-finite prediction {p}"
    return None


@dataclass
class ServeRun:
    """Everything one serving run measured."""

    setup_cycle_s: list[float] = field(default_factory=list)
    block_wall_s: list[float] = field(default_factory=list)
    block_cpu_s: list[float] = field(default_factory=list)
    #: route -> latency samples (us) over all timed blocks
    latency_us: dict[str, list[float]] = field(default_factory=dict)
    store_load_s: list[float] = field(default_factory=list)
    attempted: int = 0
    problems: list[str] = field(default_factory=list)
    #: server-side counts over the timed blocks only
    cache_hits: int = 0
    cache_misses: int = 0
    cache_evictions: int = 0
    batch_flushes: int = 0
    batch_items: float = 0.0

    def note(self, path: str, resp: Any) -> None:
        self.attempted += 1
        problem = reply_problem(path, resp)
        if problem is not None:
            self.problems.append(problem)


async def _drive(seed: int, seconds: float, smoke: bool, workdir: str,
                 setup_cycles: int) -> ServeRun:
    run = ServeRun()
    total = SMOKE_BLOCK if smoke else BLOCK
    # Set-up, several times over so its median is steady: build the model
    # repository, load it, start the server, generate the block, warm up.
    # Only the last cycle's server is kept.
    for cycle in range(setup_cycles):
        t0 = now_us()
        models_dir = build_model_repo(os.path.join(workdir, f"models{cycle}"))
        t_load = now_us()
        server = ModelServer(models_dir, ServeConfig())
        run.store_load_s.append((now_us() - t_load) / 1e6)
        await server.start()
        try:
            streams = make_streams(server, seed, total)
            _wall, replies = await run_block(server, streams)
            run.setup_cycle_s.append((now_us() - t0) / 1e6)
            for stream, out in zip(streams, replies):
                for (_m, path, _b), (_dt, resp) in zip(stream, out):
                    run.note(path, resp)
            if cycle < setup_cycles - 1:
                continue

            cache, hist = server.cache, server.metrics.histogram("serve_batch_size")
            base = (cache.hits, cache.misses, cache.evictions,
                    hist.count, hist.total)
            deadline = now_us() + seconds * 1e6
            while True:
                gc.collect()
                cpu0 = cpu_s()
                wall_s, replies = await run_block(server, streams)
                run.block_cpu_s.append(cpu_s() - cpu0)
                run.block_wall_s.append(wall_s)
                for stream, out in zip(streams, replies):
                    for (_m, path, _b), (dt, resp) in zip(stream, out):
                        run.latency_us.setdefault(path, []).append(dt)
                        run.note(path, resp)
                if smoke or now_us() >= deadline:
                    break
            run.cache_hits = cache.hits - base[0]
            run.cache_misses = cache.misses - base[1]
            run.cache_evictions = cache.evictions - base[2]
            run.batch_flushes = hist.count - base[3]
            run.batch_items = hist.total - base[4]

            # Re-issue a seeded sample of the last block: the same request
            # must get the same numbers again.
            flat = [(req, resp) for stream, out in zip(streams, replies)
                    for req, (_dt, resp) in zip(stream, out)
                    if req[1].startswith("/v1/predict")]
            rng = rng_from_key(seed, len(flat))
            picks = rng.choice(len(flat), size=max(1, int(len(flat) * RECHECK_SHARE)),
                               replace=False)
            for i in picks:
                (method, path, body), before = flat[int(i)]
                again = await server.handle(method, path, body)
                run.note(path, again)
                if (reply_problem(path, before) is None
                        and reply_problem(path, again) is None
                        and _predictions(before.body) != _predictions(again.body)):
                    run.problems.append(f"{path}: re-issued reply differs")
        finally:
            await server.stop()
    return run


def run_serve(seed: int, seconds: float, smoke: bool, workdir: str,
              setup_cycles: int) -> ServeRun:
    return asyncio.run(_drive(seed, seconds, smoke, workdir, setup_cycles))
