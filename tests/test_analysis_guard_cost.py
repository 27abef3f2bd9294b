"""What the watchers cost per message, as counts (no wall clock).

The ghost guard hashes a transfer end through the slices the compiled
plan already holds: two CRCs per remote end whatever the number of
fields, no ``Box`` arithmetic, no per-field views - and still sees a
write to any byte it saw before.  The p2p channel table is bounded.
"""

import threading
import types
import zlib

import pytest

from repro.amr import ghost
from repro.amr.box import Box
from repro.amr.ghost import (ExchangePlan, GhostExchanger, execute_transfers,
                             plan_same_level_exchange)
from repro.amr.patch import Patch
from repro.analysis import Sanitizer, SanitizerConfig, sanitize
from repro.mpi.runner import ParallelRunner, RankFailure

FIELDS = ("rho", "mx", "my", "E", "s0", "s1", "s2")


def _runner(**kw):
    kw.setdefault("sanitize", SanitizerConfig())
    kw.setdefault("timeout_s", 30.0)
    return ParallelRunner(2, **kw)


def _two_patches(rank, names):
    """Two abutting 8x8 patches, one per rank, each allocated where it
    lives and filled with a value that differs per field and owner."""
    patches = [Patch(box=Box(0, 0, 7, 7), level=0, owner=0),
               Patch(box=Box(0, 8, 7, 15), level=0, owner=1)]
    mine = patches[rank]
    block = mine.allocate(names)
    for k in range(len(names)):
        block[k] = 10.0 * rank + k
    return patches


def _ends(plan, rank):
    """This rank's (send transfers, receive transfers) of a 2-rank plan."""
    sends = [t for t in plan if t.src_patch.owner == rank != t.dst_patch.owner]
    recvs = [t for t in plan if t.dst_patch.owner == rank != t.src_patch.owner]
    return sends, recvs


# ------------------------------------------------------------------- counts
@pytest.mark.parametrize("nfields", [1, 4, 7])
def test_two_checksums_per_transfer_end(monkeypatch, nfields):
    """``checksums_per_transfer_end``: 2 per remote end, for any field count."""
    names = FIELDS[:nfields]
    on = threading.local()  # counts only what runs inside execute_transfers
    counts = {"crc32": [], "view": [], "grow": []}

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            if getattr(on, "rank", None) is not None:
                counts[key].append(on.rank)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(sanitize, "zlib", types.SimpleNamespace(
        crc32=counting("crc32", zlib.crc32)))
    monkeypatch.setattr(Patch, "view", counting("view", Patch.view))
    monkeypatch.setattr(Box, "grow", counting("grow", Box.grow))
    ends = {}

    def fn(comm):
        patches = _two_patches(comm.rank, names)
        plan = ExchangePlan(plan_same_level_exchange(patches))
        ends[comm.rank] = sum(len(e) for e in _ends(plan, comm.rank))
        on.rank = comm.rank
        try:
            execute_transfers(plan, names, comm, comm.rank, tag_base=0)
        finally:
            on.rank = None
        # The exchange did happen: my ghost column holds the peer's values.
        mine, peer = patches[comm.rank], 1 - comm.rank
        for k, name in enumerate(names):
            ghost_cell = mine.fields[name][2, 1 if comm.rank else -2]
            assert ghost_cell == 10.0 * peer + k

    runner = _runner()
    runner.run(fn)
    assert runner.last_world.sanitizer.findings == []
    for rank in (0, 1):
        assert ends[rank] == 2  # one send end, one receive end
        assert counts["crc32"].count(rank) == 2 * ends[rank]
    assert counts["view"] == []
    assert counts["grow"] == []


# --------------------------------------------------------- nothing is missed
def _race_through_execute_transfers(monkeypatch, write):
    """Run the 2-rank exchange with ``write(rank, sends, recvs, patches)``
    called once per rank while every send and receive is outstanding
    (from inside the drain's first ``waitsome``); returns the findings."""
    names = FIELDS[:3]
    real_waitsome = ghost.waitsome
    state = threading.local()

    def racing_waitsome(requests):
        if not getattr(state, "done", True):
            state.done = True
            state.write()
        return real_waitsome(requests)

    monkeypatch.setattr(ghost, "waitsome", racing_waitsome)

    def fn(comm):
        patches = _two_patches(comm.rank, names)
        plan = ExchangePlan(plan_same_level_exchange(patches))
        sends, recvs = _ends(plan, comm.rank)
        state.write = lambda: write(comm.rank, sends, recvs, patches)
        state.done = False
        execute_transfers(plan, names, comm, comm.rank, tag_base=0)
        assert state.done

    runner = _runner(sanitize=SanitizerConfig(strict=False))
    runner.run(fn)
    return runner.last_world.sanitizer.findings


def _touch(patch, index):
    patch.block[index] += 1.0
    patch.mark_written()


@pytest.mark.parametrize("cell", ["whole last plane", "one corner cell"])
def test_write_to_last_field_plane_is_flagged_on_both_sides(monkeypatch, cell):
    def write(rank, sends, recvs, patches):
        for _, si, sj in (sends[0].src_slices, recvs[0].dst_slices):
            if cell == "one corner cell":
                si, sj = si.stop - 1, sj.stop - 1
            _touch(patches[rank], (-1, si, sj))

    findings = _race_through_execute_transfers(monkeypatch, write)
    assert sorted((f.kind, f.rank) for f in findings) == [
        ("ghost-race", 0), ("ghost-race", 0),
        ("ghost-race", 1), ("ghost-race", 1)]
    for rank in (0, 1):
        text = [f.message for f in findings if f.rank == rank]
        assert sum("nonblocking send tag=" in m for m in text) == 1
        assert sum("nonblocking receive tag=" in m for m in text) == 1
    for f in findings:
        assert "fields=['rho', 'mx', 'my']" in f.message
        assert "patch uid=" in f.message and "region=[" in f.message
        # Both test writes precede the receive check; the matched insert
        # that follows it is a third, by the time the sends are checked.
        receive = "nonblocking receive" in f.message
        assert f"version 0 -> {2 if receive else 3}" in f.message


def test_write_outside_every_watched_region_is_not_flagged(monkeypatch):
    def write(rank, sends, recvs, patches):
        # Every field, mid-interior (columns 3-4 of rank 0's box, 11-12 of
        # rank 1's): the watched strips are the two columns either side of
        # the abutting edge.
        _touch(patches[rank], (slice(None), slice(4, 8), slice(5, 7)))

    assert _race_through_execute_transfers(monkeypatch, write) == []


def test_race_report_names_the_region_the_plan_moved():
    san = Sanitizer(1, SanitizerConfig(strict=False))
    guard = san.ghost_guard(0)
    patches = _two_patches(0, FIELDS[:2])
    send = _ends(plan_same_level_exchange(patches), 0)[0][0]
    guard.watch_send(send.src_patch, send.src_slices, FIELDS[:2], tag=5)
    _touch(patches[0], (0, 2, 8))
    guard.check_sends()
    assert [f.message for f in san.findings] == [
        f"ghost-region race: patch uid={patches[0].uid} "
        f"region={send.src_region} fields=['rho', 'mx'] written while "
        "nonblocking send tag=5 was outstanding (patch version 0 -> 1)"]


# ----------------------------------------------------- whole block or nothing
def test_subset_of_fields_is_refused_not_hashed():
    names = FIELDS[:3]
    san = Sanitizer(1, SanitizerConfig())
    guard = san.ghost_guard(0)
    patches = _two_patches(0, names)
    patches[1].allocate(names)
    send, recv = plan_same_level_exchange(patches)
    for watch, patch, slices in (
            (guard.watch_send, send.src_patch, send.src_slices),
            (guard.watch_recv, recv.dst_patch, recv.dst_slices),
            (guard.watch_recv, recv.dst_patch, recv.dst_region)):
        with pytest.raises(ValueError, match="moves the whole block"):
            watch(patch, slices, names[:2], tag=0)
    guard.check_recv(0)
    guard.check_sends()
    assert san.findings == []

    def fn(comm):
        plan = plan_same_level_exchange(_two_patches(comm.rank, names))
        execute_transfers(plan, names[:2], comm, comm.rank, tag_base=0)

    with pytest.raises(RankFailure, match="moves the whole block"):
        _runner().run(fn)


# ------------------------------------------------------------ bounded table
def test_channel_table_bounded():
    """``channel_table_bounded``: ghost tags never repeat, so each message
    opens a channel; the table must forget the oldest, not grow."""
    bound = sanitize.CHANNEL_TABLE_SIZE
    names = FIELDS[:2]

    def fn(comm):
        plan = ExchangePlan(plan_same_level_exchange(
            _two_patches(comm.rank, names)))
        exchanger = GhostExchanger(comm)
        for _ in range(10 * bound):
            exchanger.run(plan, names)
        # A fixed-tag channel is still watched while it is recent.
        peer = 1 - comm.rank
        comm.send(1, dest=peer, tag=3)
        comm.send(1.5, dest=peer, tag=3)
        comm.recv(source=peer, tag=3)
        comm.recv(source=peer, tag=3)

    runner = _runner()
    runner.run(fn)
    san = runner.last_world.sanitizer
    for rank in (0, 1):
        assert len(san._chan_types[rank]) == bound
        assert sorted(san._chan_order[rank]) == sorted(san._chan_types[rank])
    assert sorted((f.kind, f.rank) for f in san.findings) == [
        ("p2p-type-instability", 0), ("p2p-type-instability", 1)]
