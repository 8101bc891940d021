"""The repo's static gate (tools/check_layers.py), loaded by path: the
wall-clock allowlist may only name files that still read the clock."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "check_layers.py"


@pytest.fixture(scope="module")
def check_layers():
    spec = importlib.util.spec_from_file_location("check_layers", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_checked_in_allowlist_is_clean(check_layers, capsys):
    assert check_layers.main(["--quiet", "--no-ruff"]) == 0
    assert capsys.readouterr().out == ""


def test_stale_allowlist_entries_fail_the_gate(
    check_layers, tmp_path, monkeypatch, capsys
):
    allowlist = tmp_path / "wallclock_allowlist.txt"
    allowlist.write_text(
        check_layers.WALLCLOCK_ALLOWLIST.read_text()
        + "src/repro/service/jobs.py\n"       # exists, reads no clock
        + "src/repro/no_such_module.py\n"     # does not exist
    )
    monkeypatch.setattr(check_layers, "WALLCLOCK_ALLOWLIST", allowlist)
    assert check_layers.main(["--quiet", "--no-ruff"]) == 1
    out = capsys.readouterr().out
    assert (
        "stale entry 'src/repro/service/jobs.py' "
        "(file has no wall-clock call site)"
    ) in out
    assert (
        "stale entry 'src/repro/no_such_module.py' (file does not exist)"
    ) in out
    assert "2 violation(s)" in out
