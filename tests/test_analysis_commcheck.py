"""Flow-rule fixtures: RA009/RA010/RA011 true positives and clean negatives,
plus the interprocedural RA002/RA006 upgrades."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis.callgraph import SymbolTable
from repro.analysis.commcheck import run_flow_rules
from repro.analysis.engine import analyze_paths
from repro.analysis.lint import make_context
from repro.analysis.symbols import extract_module


def _table_for(tmp_path: Path, sources: dict[str, str]) -> SymbolTable:
    summaries = []
    for name, src in sources.items():
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(src)
        ctx = make_context(path, source=src)
        assert not isinstance(ctx, tuple), f"fixture {name} must parse"
        summaries.append(extract_module(path, src, ctx.tree, [], {}))
    return SymbolTable(summaries)


def _rules_fired(tmp_path: Path, sources: dict[str, str]) -> dict[str, list]:
    findings = run_flow_rules(_table_for(tmp_path, sources))
    out: dict[str, list] = {}
    for f in findings:
        out.setdefault(f.rule, []).append(f)
    return out


# ------------------------------------------------------------------ RA009
class TestCollectiveDivergence:
    def test_true_positive_divergent_arms(self, tmp_path):
        fired = _rules_fired(tmp_path, {"m.py": (
            "def job(comm, rank):\n"
            "    if rank == 0:\n"
            "        comm.bcast(1)\n"
            "        comm.barrier()\n"
            "    else:\n"
            "        comm.barrier()\n"
        )})
        assert len(fired.get("RA009", [])) == 1
        assert "divergent collective sequences" in fired["RA009"][0].message

    def test_true_positive_through_helper(self, tmp_path):
        """The divergence hides behind a helper call — needs the call graph."""
        fired = _rules_fired(tmp_path, {"m.py": (
            "def _sync(comm):\n"
            "    comm.allreduce(0)\n"
            "\n"
            "def job(comm, rank):\n"
            "    if rank == 0:\n"
            "        _sync(comm)\n"
            "    else:\n"
            "        comm.barrier()\n"
        )})
        msgs = [f.message for f in fired.get("RA009", [])]
        assert len(msgs) == 1 and "allreduce" in msgs[0] and "barrier" in msgs[0]

    def test_negative_same_sequence_both_arms(self, tmp_path):
        fired = _rules_fired(tmp_path, {"m.py": (
            "def job(comm, rank):\n"
            "    if rank == 0:\n"
            "        data = 42\n"
            "        comm.bcast(data)\n"
            "    else:\n"
            "        comm.bcast(None)\n"
        )})
        assert "RA009" not in fired

    def test_negative_rank_branch_without_collectives(self, tmp_path):
        """The rank-0-does-io idiom must not be flagged."""
        fired = _rules_fired(tmp_path, {"m.py": (
            "def job(comm, rank, log):\n"
            "    if rank == 0:\n"
            "        log.write('step')\n"
            "    comm.barrier()\n"
        )})
        assert "RA009" not in fired

    def test_negative_non_rank_branch_may_diverge(self, tmp_path):
        """Branches on non-rank state are uniform across the cohort."""
        fired = _rules_fired(tmp_path, {"m.py": (
            "def job(comm, step):\n"
            "    if step % 10 == 0:\n"
            "        comm.allreduce(1)\n"
            "    comm.barrier()\n"
        )})
        assert "RA009" not in fired


# ------------------------------------------------------------------ RA010
class TestLeakedP2P:
    def test_true_positive_discarded_irecv(self, tmp_path):
        fired = _rules_fired(tmp_path, {"m.py": (
            "def job(comm):\n"
            "    comm.irecv(source=1, tag=0)\n"
        )})
        assert len(fired.get("RA010", [])) == 1
        assert "discarded" in fired["RA010"][0].message

    def test_true_positive_dead_bound_request(self, tmp_path):
        fired = _rules_fired(tmp_path, {"m.py": (
            "def job(comm):\n"
            "    req = comm.irecv(source=1, tag=0)\n"
            "    return 0\n"
        )})
        assert len(fired.get("RA010", [])) == 1
        assert "never used" in fired["RA010"][0].message

    def test_negative_waited_request(self, tmp_path):
        fired = _rules_fired(tmp_path, {"m.py": (
            "def job(comm):\n"
            "    req = comm.irecv(source=1, tag=0)\n"
            "    return req.wait()\n"
        )})
        assert "RA010" not in fired

    def test_negative_discarded_isend_is_the_idiom(self, tmp_path):
        """Simulated sends complete at post; fire-and-forget isend is fine
        (the ghost-exchange hot path relies on it)."""
        fired = _rules_fired(tmp_path, {"m.py": (
            "def job(comm, payload):\n"
            "    comm.isend(payload, dest=1, tag=0)\n"
        )})
        assert "RA010" not in fired

    def test_negative_request_escaping_into_collection(self, tmp_path):
        fired = _rules_fired(tmp_path, {"m.py": (
            "def job(comm, pending):\n"
            "    pending.append(comm.irecv(source=1, tag=0))\n"
        )})
        assert "RA010" not in fired


# ------------------------------------------------------------------ RA011
class TestBlockingHazards:
    def test_true_positive_recv_under_lock(self, tmp_path):
        fired = _rules_fired(tmp_path, {"m.py": (
            "def job(comm, lock):\n"
            "    with lock:\n"
            "        return comm.recv(source=0, tag=0)\n"
        )})
        assert len(fired.get("RA011", [])) == 1
        assert "holding" in fired["RA011"][0].message

    def test_true_positive_indirect_block_under_lock(self, tmp_path):
        """The blocking call hides behind a helper — interprocedural half."""
        fired = _rules_fired(tmp_path, {"m.py": (
            "def _pull(comm):\n"
            "    return comm.recv(source=0, tag=0)\n"
            "\n"
            "def job(comm, lock):\n"
            "    with lock:\n"
            "        return _pull(comm)\n"
        )})
        msgs = [f.message for f in fired.get("RA011", [])]
        assert len(msgs) == 1 and "may block" in msgs[0]

    def test_negative_condition_variable_is_not_a_lock(self, tmp_path):
        """with cond: releases while waiting — the request wait-loop idiom."""
        fired = _rules_fired(tmp_path, {"m.py": (
            "def job(comm, cond):\n"
            "    with cond:\n"
            "        return comm.recv(source=0, tag=0)\n"
        )})
        assert "RA011" not in fired

    def test_negative_nonblocking_under_lock(self, tmp_path):
        fired = _rules_fired(tmp_path, {"m.py": (
            "def job(comm, lock, out):\n"
            "    with lock:\n"
            "        out.append(comm.iprobe(source=0, tag=0))\n"
        )})
        assert "RA011" not in fired


# ---------------------------------------------- interprocedural RA002/RA006
class TestInterproceduralUpgrades:
    def test_ra002_import_alias_escape(self, tmp_path):
        fired = _rules_fired(tmp_path, {"m.py": (
            "import time as t\n"
            "def stamp():\n"
            "    return t.time()\n"
        )})
        msgs = [f.message for f in fired.get("RA002", [])]
        assert len(msgs) == 1 and "import alias" in msgs[0]

    def test_ra002_helper_indirection(self, tmp_path):
        fired = _rules_fired(tmp_path, {"m.py": (
            "import numpy as np\n"
            "def _fresh():\n"
            "    return np.random.default_rng()\n"
            "def job():\n"
            "    return _fresh().random(4)\n"
        )})
        msgs = [f.message for f in fired.get("RA002", [])]
        assert any("through helper" in m for m in msgs)

    def test_ra002_negative_sanctioned_helper(self, tmp_path):
        """Calling repro.util.rng.make_rng is the *approved* route."""
        (tmp_path / "repro" / "util").mkdir(parents=True)
        fired = _rules_fired(tmp_path, {
            "repro/__init__.py": "",
            "repro/util/__init__.py": "",
            "repro/util/rng.py": (
                "import numpy as np\n"
                "def make_rng(seed):\n"
                "    return np.random.default_rng(seed)\n"),
            "app.py": (
                "from repro.util.rng import make_rng\n"
                "def job():\n"
                "    return make_rng(0).random(4)\n"),
        })
        assert not [f for f in fired.get("RA002", [])
                    if f.path.endswith("app.py")]

    def test_ra006_comm_through_helper_in_hot_loop(self, tmp_path):
        fired = _rules_fired(tmp_path, {"m.py": (
            "def _halo(comm, cell):\n"
            "    comm.sendrecv(cell, dest=1, source=1, tag=0)\n"
            "\n"
            "def sweep(comm, grid):\n"
            "    for row in grid:\n"
            "        for cell in row:\n"
            "            _halo(comm, cell)\n"
        )})
        msgs = [f.message for f in fired.get("RA006", [])]
        assert len(msgs) == 1 and "performs MPI via" in msgs[0]

    def test_ra006_negative_helper_hoisted_out_of_loop(self, tmp_path):
        fired = _rules_fired(tmp_path, {"m.py": (
            "def _halo(comm, batch):\n"
            "    comm.sendrecv(batch, dest=1, source=1, tag=0)\n"
            "\n"
            "def sweep(comm, grid):\n"
            "    batch = []\n"
            "    for row in grid:\n"
            "        for cell in row:\n"
            "            batch.append(cell)\n"
            "    _halo(comm, batch)\n"
        )})
        assert "RA006" not in fired

    def test_ra006_negative_pure_helper_in_loop(self, tmp_path):
        fired = _rules_fired(tmp_path, {"m.py": (
            "def _flux(cell):\n"
            "    return cell * 2\n"
            "\n"
            "def sweep(comm, grid):\n"
            "    for row in grid:\n"
            "        for cell in row:\n"
            "            _flux(cell)\n"
        )})
        assert "RA006" not in fired


# --------------------------------------------------------- engine plumbing
class TestEngineIntegration:
    def test_engine_surfaces_flow_findings(self, tmp_path):
        (tmp_path / "m.py").write_text(
            "def job(comm):\n"
            "    comm.irecv(source=1, tag=0)\n")
        result = analyze_paths([tmp_path])
        assert [f.rule for f in result.findings] == ["RA010"]

    def test_noqa_suppresses_flow_findings(self, tmp_path):
        (tmp_path / "m.py").write_text(
            "def job(comm):\n"
            "    comm.irecv(source=1, tag=0)  # ra: noqa[RA010]\n")
        result = analyze_paths([tmp_path])
        assert result.findings == []
        assert result.stats["suppressed"] == 1

    def test_src_tree_has_no_flow_findings(self):
        """The tentpole's crosscheck half: RA009-RA011 true positives in
        src/repro get fixed in this PR — so the tree must scan clean."""
        result = analyze_paths(["src"])
        flow = [f for f in result.findings
                if f.rule in ("RA009", "RA010", "RA011")]
        assert flow == [], [f.format() for f in flow]

    def test_examples_have_no_determinism_escapes(self):
        result = analyze_paths(["examples"], rules=["RA002"])
        assert result.findings == [], [f.format() for f in result.findings]


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
