"""Tests for the ``ppm check`` static-analysis front-end."""

from __future__ import annotations

import json

import pytest

from repro.verify.check import (
    EXIT_CLEAN,
    EXIT_ERROR,
    EXIT_FINDINGS,
    list_rules,
    main,
    run_check,
)

CLEAN = """\
from __future__ import annotations


def add(a: int, b: int) -> int:
    return a + b
"""

DIRTY = """\
def add(a, b):
    return a + b
"""  # missing future-annotations import -> PPM001

RACY = """\
from __future__ import annotations

import asyncio


class Svc:
    def __init__(self):
        self.count = 0

    async def run(self):
        await asyncio.to_thread(self.work)

    def work(self):
        self.count += 1
"""


@pytest.fixture
def tree(tmp_path):
    def build(**files):
        for name, source in files.items():
            (tmp_path / f"{name}.py").write_text(source)
        return str(tmp_path)

    return build


class TestRunCheck:
    def test_clean_tree(self, tree):
        report = run_check([tree(a=CLEAN)])
        assert report.ok
        assert report.exit_code == EXIT_CLEAN
        assert report.files == 1

    def test_lint_finding(self, tree):
        report = run_check([tree(a=DIRTY)])
        assert not report.ok
        assert report.exit_code == EXIT_FINDINGS
        assert [f.code for f in report.lint] == ["PPM001"]

    def test_race_finding(self, tree):
        report = run_check([tree(a=RACY)])
        assert [f.code for f in report.races] == ["PPM010"]
        assert report.exit_code == EXIT_FINDINGS

    def test_suppression_counted(self, tree):
        suppressed = RACY.replace(
            "self.count += 1", "self.count += 1  # ppm: noqa[PPM010]"
        )
        report = run_check([tree(a=suppressed)])
        assert report.ok
        assert report.suppressed == 1

    def test_strict_runs_sweeps(self, tree):
        report = run_check([tree(a=CLEAN)], strict=True, samples=2)
        assert report.ok
        assert report.scenarios > 0
        assert report.programs > 0
        assert report.sweep_errors == []

    def test_json_roundtrip(self, tree):
        report = run_check([tree(a=DIRTY, b=RACY)])
        data = json.loads(json.dumps(report.to_dict()))
        assert data["ok"] is False
        assert data["exit_code"] == EXIT_FINDINGS
        assert len(data["lint"]) == 1
        assert len(data["races"]) == 1
        assert data["files"] == 2

    def test_human_format_mentions_everything(self, tree):
        report = run_check([tree(a=DIRTY)])
        text = report.format_human()
        assert "PPM001" in text
        assert "1 finding(s)" in text


class TestCli:
    def test_exit_codes(self, tree, capsys):
        clean = tree(a=CLEAN)
        assert main([clean]) == EXIT_CLEAN
        assert main(["/nonexistent/path"]) == EXIT_ERROR

    def test_findings_exit_code(self, tree, capsys):
        assert main([tree(a=DIRTY)]) == EXIT_FINDINGS
        out = capsys.readouterr().out
        assert "PPM001" in out

    def test_json_flag(self, tree, capsys):
        assert main(["--json", tree(a=CLEAN)]) == EXIT_CLEAN
        data = json.loads(capsys.readouterr().out)
        assert data["ok"] is True

    def test_list_rules_covers_both_analyzers(self, capsys):
        assert main(["--list-rules"]) == EXIT_CLEAN
        out = capsys.readouterr().out
        for code in ("PPM001", "PPM009", "PPM010", "PPM013"):
            assert code in out
        assert "whole-program" in out

    def test_list_rules_helper(self):
        text = list_rules()
        assert "PPM012" in text


class TestRepoGate:
    """The invariant CI enforces: ``ppm check --strict src`` is clean."""

    def test_repo_is_clean_nonstrict(self, repo_src):
        report = run_check([repo_src])
        assert report.ok, report.format_human()


@pytest.fixture
def repo_src():
    from pathlib import Path

    return str(Path(__file__).resolve().parents[2] / "src")


class TestBackendsScope:
    """The backends package stays inside the check/race-lint perimeter."""

    REPO = __import__("pathlib").Path(__file__).resolve().parents[2]

    def test_backends_package_is_clean(self):
        package = self.REPO / "src/repro/kernels/backends"
        report = run_check([str(package)])
        assert report.ok, report.format_human()
        # every backend module was actually parsed, not skipped
        assert report.files == len(list(package.glob("*.py")))

    def test_kernels_tree_is_clean(self):
        report = run_check([str(self.REPO / "src/repro/kernels")])
        assert report.ok, report.format_human()
