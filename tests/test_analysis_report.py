"""Reporter contracts: JSON schema, human tally, and the CLI exit-code
contract on empty file lists and suppression-only runs."""

from __future__ import annotations

import json

import pytest

from repro.analysis.__main__ import main
from repro.analysis.lint import Finding
from repro.analysis.report import human_report, json_report


def _findings():
    return [
        Finding("RA002", "src/a.py", 3, 4, "wall-clock escape"),
        Finding("RA002", "src/a.py", 9, 0, "rng escape"),
        Finding("RA005", "src/b.py", 1, 0, "bare except"),
    ]


# ------------------------------------------------------------ JSON schema
class TestJsonReport:
    def test_document_schema(self):
        doc = json.loads(json_report(_findings()))
        assert set(doc) == {"findings", "counts", "total"}
        assert doc["total"] == 3
        assert doc["counts"] == {"RA002": 2, "RA005": 1}
        for item in doc["findings"]:
            assert set(item) == {"rule", "path", "line", "col", "message"}
            assert isinstance(item["line"], int) and isinstance(item["col"], int)
            assert isinstance(item["rule"], str) and item["rule"].startswith("RA")

    def test_empty_run_schema(self):
        doc = json.loads(json_report([]))
        assert doc == {"findings": [], "counts": {}, "total": 0}

    def test_findings_preserve_order(self):
        doc = json.loads(json_report(_findings()))
        assert [(f["path"], f["line"]) for f in doc["findings"]] == [
            ("src/a.py", 3), ("src/a.py", 9), ("src/b.py", 1)]


# ----------------------------------------------------------- human report
class TestHumanReport:
    def test_no_findings_banner(self):
        assert human_report([]) == "repro.analysis: no findings"

    def test_lines_and_tally(self):
        text = human_report(_findings())
        lines = text.splitlines()
        assert lines[0] == "src/a.py:3:4: RA002 wall-clock escape"
        assert lines[-1] == "repro.analysis: 3 finding(s) (RA002=2, RA005=1)"


# ------------------------------------------------------ exit-code contract
class TestExitCodes:
    def test_empty_directory_exits_zero(self, tmp_path, capsys):
        """An empty file list is a clean run, not an error."""
        (tmp_path / "empty").mkdir()
        assert main([str(tmp_path / "empty")]) == 0
        assert "no findings" in capsys.readouterr().out

    def test_clean_file_exits_zero(self, tmp_path):
        f = tmp_path / "ok.py"
        f.write_text("def f():\n    return 1\n")
        assert main([str(f)]) == 0

    def test_findings_exit_one(self, tmp_path, capsys):
        f = tmp_path / "bad.py"
        f.write_text("import time\ndef g():\n    time.time()\n")
        assert main([str(f)]) == 1
        assert "RA002" in capsys.readouterr().out

    def test_missing_path_exits_two(self, tmp_path, capsys):
        assert main([str(tmp_path / "nope.txt")]) == 2
        assert "repro.analysis" in capsys.readouterr().err

    def test_suppression_only_run_exits_zero_without_engine(self, tmp_path):
        """Every finding suppressed -> clean exit under a rule subset
        (which runs no RA012)."""
        f = tmp_path / "s.py"
        f.write_text("import time\ndef g():\n"
                     "    return time.time()  # ra: noqa[RA002]\n")
        assert main([str(f), "--rules", "RA002"]) == 0

    def test_suppression_only_run_exits_zero_with_engine(self, tmp_path):
        """The engine agrees when every suppression is actually used."""
        f = tmp_path / "s.py"
        f.write_text("import time\ndef g():\n"
                     "    return time.time()  # ra: noqa[RA002]\n")
        assert main([str(f)]) == 0

    def test_unused_suppression_fails_engine_run_only(self, tmp_path, capsys):
        f = tmp_path / "s.py"
        f.write_text("def g():\n    return 1  # ra: noqa[RA002]\n")
        assert main([str(f), "--rules", "RA002"]) == 0
        assert main([str(f)]) == 1
        assert "RA012" in capsys.readouterr().out

    def test_update_baseline_requires_baseline_path(self, tmp_path, capsys):
        assert main([str(tmp_path), "--update-baseline"]) == 2
        assert "--baseline" in capsys.readouterr().err

    def test_baselined_findings_exit_zero(self, tmp_path, capsys):
        f = tmp_path / "bad.py"
        f.write_text("import time\ndef g():\n    time.time()\n")
        base = tmp_path / "base.json"
        assert main([str(f), "--baseline", str(base),
                     "--update-baseline"]) == 0
        capsys.readouterr()
        assert main([str(f), "--baseline", str(base)]) == 0

    def test_json_format_still_honored_by_engine_cli(self, tmp_path, capsys):
        f = tmp_path / "bad.py"
        f.write_text("import time\ndef g():\n    time.time()\n")
        assert main([str(f), "--format", "json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["total"] == 1 and doc["counts"] == {"RA002": 1}


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
