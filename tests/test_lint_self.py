"""Self-lint: the repo's own sources must stay clean.

Mirrors the `make lint-self` target. The ruff check is skipped when
ruff is not installed (the offline image does not ship it); the
compileall sanity check always runs.
"""

from __future__ import annotations

import compileall
import pathlib
import shutil
import subprocess
import sys

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_sources_compile():
    ok = compileall.compile_dir(
        str(REPO_ROOT / "src"), quiet=2, maxlevels=10, force=False
    )
    assert ok, "syntax error somewhere under src/"


@pytest.mark.skipif(shutil.which("ruff") is None, reason="ruff not installed")
def test_ruff_clean():
    result = subprocess.run(
        ["ruff", "check", "src", "tests", "benchmarks", "tools"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stdout + result.stderr


def test_no_syntax_errors_in_tests_and_benchmarks():
    for tree in ("tests", "benchmarks", "examples", "tools"):
        ok = compileall.compile_dir(
            str(REPO_ROOT / tree), quiet=2, maxlevels=10, force=False
        )
        assert ok, f"syntax error somewhere under {tree}/"


def test_python_version_supported():
    # target-version in [tool.ruff] tracks the floor we actually test on
    assert sys.version_info >= (3, 10)
