"""What the sanitizers cost per exchange, as counts (no wall clock).

The ghost-race check is a property of the compiled plan: whether two of
a rank's inserts write one region is computed once per plan and rank,
and an exchange hashes nothing.  The p2p channel table is bounded.
"""

import threading
import zlib

import pytest

from repro.amr import ghost
from repro.amr.box import Box
from repro.amr.ghost import (ExchangePlan, GhostExchanger, Transfer,
                             execute_transfers, plan_same_level_exchange)
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


# ------------------------------------------------------------------- counts
@pytest.mark.parametrize("sanitized", [True, False])
def test_overlap_check_runs_once_per_plan_and_rank(monkeypatch, sanitized):
    """``once_per_plan_and_rank``: ten exchanges of one plan compute its
    overlaps once per rank under a sanitizer, never without one, and no
    exchange computes a checksum."""
    names = FIELDS[:4]
    on = threading.local()  # counts only what runs inside the exchanges
    counts = {"overlaps": [], "crc32": []}

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            if getattr(on, "rank", None) is not None:
                counts[key].append(on.rank)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(ghost, "pairwise_overlaps",
                        counting("overlaps", ghost.pairwise_overlaps))
    monkeypatch.setattr(zlib, "crc32", counting("crc32", zlib.crc32))

    def fn(comm):
        patches = _two_patches(comm.rank, names)
        plan = ExchangePlan(plan_same_level_exchange(patches))
        exchanger = GhostExchanger(comm)
        on.rank = comm.rank
        try:
            for _ in range(10):
                exchanger.run(plan, names)
        finally:
            on.rank = None
        # The exchanges did happen: my ghost column holds the peer's values.
        mine, peer = patches[comm.rank], 1 - comm.rank
        for k, name in enumerate(names):
            assert mine.fields[name][2, 1 if comm.rank else -2] == 10.0 * peer + k

    runner = _runner(sanitize=SanitizerConfig() if sanitized else None)
    runner.run(fn)
    if sanitized:
        assert runner.last_world.sanitizer.findings == []
    assert sorted(counts["overlaps"]) == ([0, 1] if sanitized else [])
    assert counts["crc32"] == []


# ------------------------------------------------------------------- report
def test_race_report_names_the_region_the_plan_moved():
    san = Sanitizer(2, SanitizerConfig(strict=False))
    patches = _two_patches(0, FIELDS[:2])
    src, dst = patches
    plan = ExchangePlan([
        Transfer(src_patch=src, dst_patch=dst,
                 src_region=Box(0, 8, 3, 9), dst_region=Box(0, 8, 3, 9)),
        Transfer(src_patch=src, dst_patch=dst,
                 src_region=Box(2, 8, 7, 9), dst_region=Box(2, 8, 7, 9)),
    ])
    san.check_exchange(plan, 1, FIELDS[:2], tag_base=5)
    assert [f.format() for f in san.findings] == [
        f"[ghost-race] rank 1: ghost-region race: patch uid={dst.uid} "
        "region=[2:3,8:9] fields=['rho', 'mx'] is written by both "
        "nonblocking receive tag=5 and nonblocking receive tag=6 of one "
        "exchange: whichever lands last wins"]
    san.check_exchange(plan, 0, FIELDS[:2], tag_base=5)  # rank 0 inserts nothing
    assert len(san.findings) == 1


# ----------------------------------------------------- whole block or nothing
def test_subset_of_fields_is_refused_not_hashed():
    names = FIELDS[:3]

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
