"""Checkpoint/restart for the SCMD case study.

Every N driver steps each rank serializes its piece of the application —
the full AMR patch hierarchy metadata, its *local* patch field arrays
(interior and ghosts, bit-exact), the driver's step counter and dt
history, and the Mastermind's measurement records — to a per-rank file
written atomically (temp file + ``os.replace``).  After all ranks' files
are durable (a barrier), rank 0 atomically updates ``MANIFEST.json``; a
checkpoint therefore only becomes *visible* once it is complete on every
rank, so a crash at any instant leaves either the previous checkpoint or
the new one, never a torn mixture.

Restart rebuilds the hierarchy from the newest manifest step and resumes
the time loop at the following step.  Because patch data is restored
bit-exactly (uids, owners, ghosts, the exchanger's tag counter and the
hierarchy's uid counter included) and all regrid/flagging decisions are
pure functions of the field data, the continuation is bitwise identical to
an uninterrupted run.
"""

from __future__ import annotations

import json
import os
import pickle
from dataclasses import dataclass
from typing import Any

from repro.amr.box import Box
from repro.amr.patch import Patch
from repro.util.atomicio import atomic_write_bytes, atomic_write_text

MANIFEST = "MANIFEST.json"

#: checkpoint format version (bump on layout changes)
FORMAT = 2


# --------------------------------------------------------------------- AMR
def _patch_meta(p: Patch) -> dict[str, Any]:
    return {
        "box": (p.box.ilo, p.box.jlo, p.box.ihi, p.box.jhi),
        "level": p.level,
        "owner": p.owner,
        "nghost": p.nghost,
        "uid": p.uid,
    }


def _patch_from_meta(meta: dict[str, Any]) -> Patch:
    ilo, jlo, ihi, jhi = meta["box"]
    return Patch(box=Box(ilo, jlo, ihi, jhi), level=meta["level"],
                 owner=meta["owner"], nghost=meta["nghost"], uid=meta["uid"])


def hierarchy_state(h) -> dict[str, Any]:
    """Serializable state of a :class:`~repro.amr.hierarchy.GridHierarchy`.

    Patch metadata is replicated (every rank stores all of it); field
    arrays are stored only for patches local to this rank.
    """
    local_fields: dict[int, dict[str, Any]] = {}
    for lev in range(h.max_levels):
        for p in h.levels[lev]:
            if h.is_local(p):
                local_fields[p.uid] = {f: p.data(f).copy() for f in h.fields}
    return {
        "levels": [[_patch_meta(p) for p in h.levels[lev]]
                   for lev in range(h.max_levels)],
        "local_fields": local_fields,
        "uid_counter": h._uid,
        "regrid_count": h.regrid_count,
        "exchanger_tag": h.exchanger._tag,
    }


def restore_hierarchy(h, state: dict[str, Any]) -> None:
    """Load ``state`` into a freshly built hierarchy (same configuration)."""
    if len(state["levels"]) != h.max_levels:
        raise ValueError(
            f"checkpoint has {len(state['levels'])} levels, hierarchy expects "
            f"{h.max_levels}; restore requires the original configuration"
        )
    local_fields = state["local_fields"]
    for lev, metas in enumerate(state["levels"]):
        patches = [_patch_from_meta(m) for m in metas]
        for p in patches:
            if h.is_local(p):
                saved = local_fields[p.uid]
                p.allocate(h.fields)
                for f in h.fields:
                    p.fields[f][...] = saved[f]
        h.set_level(lev, patches)
    h._uid = state["uid_counter"]
    h.regrid_count = state["regrid_count"]
    h.exchanger._tag = state["exchanger_tag"]


def hierarchy_states_equal(a: dict[str, Any], b: dict[str, Any]) -> bool:
    """Bitwise equality of two hierarchy states (structure + field bytes)."""
    if a["levels"] != b["levels"]:
        return False
    fa, fb = a["local_fields"], b["local_fields"]
    if set(fa) != set(fb):
        return False
    for uid in fa:
        if set(fa[uid]) != set(fb[uid]):
            return False
        for name in fa[uid]:
            x, y = fa[uid][name], fb[uid][name]
            if x.shape != y.shape or x.dtype != y.dtype:
                return False
            if x.tobytes() != y.tobytes():
                return False
    return True


# -------------------------------------------------------------- file layout
def _rank_path(directory: str, step: int, rank: int) -> str:
    return os.path.join(directory, f"step-{step:06d}.rank{rank}.ckpt")


def _manifest_path(directory: str) -> str:
    return os.path.join(directory, MANIFEST)


def latest_step(directory: str) -> int | None:
    """Newest *complete* checkpoint step recorded in the manifest."""
    try:
        with open(_manifest_path(directory), encoding="utf-8") as fh:
            manifest = json.load(fh)
    except FileNotFoundError:
        return None
    steps = manifest.get("steps", [])
    return max(steps) if steps else None


def load_rank_state(directory: str, step: int, rank: int) -> dict[str, Any]:
    """Read one rank's checkpoint payload for ``step``."""
    with open(_rank_path(directory, step, rank), "rb") as fh:
        payload = pickle.load(fh)
    if payload.get("format") != FORMAT:
        raise ValueError(
            f"checkpoint format {payload.get('format')} unsupported "
            f"(expected {FORMAT})"
        )
    return payload["state"]


@dataclass
class CheckpointConfig:
    """Where and how often to checkpoint (``every <= 0`` disables)."""

    directory: str
    every: int = 2

    @property
    def enabled(self) -> bool:
        return self.every > 0 and bool(self.directory)


class Checkpointer:
    """Per-rank checkpoint writer with collective manifest commits."""

    def __init__(self, config: CheckpointConfig, rank: int = 0,
                 nranks: int = 1, comm=None, injector=None) -> None:
        self.config = config
        self.rank = int(rank)
        self.nranks = int(nranks)
        self.comm = comm
        self.injector = injector
        #: steps committed by this checkpointer instance
        self.saved_steps: list[int] = []
        #: bytes this rank wrote (checkpoint overhead reporting)
        self.bytes_written = 0
        if config.enabled:
            os.makedirs(config.directory, exist_ok=True)

    def due(self, step: int) -> bool:
        """Checkpoint after ``step`` completes?"""
        return self.config.enabled and (step + 1) % self.config.every == 0

    def _obs(self):
        """This rank's observability state, when the world carries one."""
        return self.comm.obs if self.comm is not None else None

    def save(self, step: int, state: dict[str, Any]) -> str:
        """Write this rank's payload for ``step`` and commit the manifest.

        Collective when a communicator is present: all ranks must call it
        for the same step (they do — the driver's step loop is SCMD).
        """
        obs = self._obs()
        from contextlib import nullcontext

        if obs is not None:
            from repro.obs.span import CAT_CHECKPOINT
            from repro.util.timebase import now_us

            cm = obs.tracer.span("checkpoint.save", CAT_CHECKPOINT, step=step)
            t0 = now_us()
        else:
            cm = nullcontext(None)
            t0 = 0.0
        with cm:
            path = _rank_path(self.config.directory, step, self.rank)
            blob = pickle.dumps({"format": FORMAT, "step": step, "rank": self.rank,
                                 "nranks": self.nranks, "state": state},
                                protocol=pickle.HIGHEST_PROTOCOL)
            atomic_write_bytes(path, blob)
            self.bytes_written += len(blob)
            if obs is not None:
                from repro.util.timebase import now_us

                m = obs.metrics
                m.counter("checkpoint_saves_total", "checkpoints written").inc()
                m.counter("checkpoint_bytes_total",
                          "checkpoint bytes written").inc(len(blob))
                m.histogram("checkpoint_write_us",
                            "per-checkpoint local write time").observe(now_us() - t0)
            if self.comm is not None:
                # The manifest may only list the step once every rank's file is
                # durable; the barrier provides exactly that ordering.
                self.comm.barrier()
            if self.rank == 0:
                self._commit(step)
        self.saved_steps.append(step)
        if self.injector is not None:
            self.injector.note(self.rank, "checkpoint.save", float(step))
        return path

    def _commit(self, step: int) -> None:
        mpath = _manifest_path(self.config.directory)
        try:
            with open(mpath, encoding="utf-8") as fh:
                manifest = json.load(fh)
        except FileNotFoundError:
            manifest = {"format": FORMAT, "nranks": self.nranks, "steps": []}
        if step not in manifest["steps"]:
            manifest["steps"].append(step)
            manifest["steps"].sort()
        manifest["nranks"] = self.nranks
        atomic_write_text(mpath, json.dumps(manifest, indent=2, sort_keys=True))
