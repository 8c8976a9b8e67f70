import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "digest_moved.py"

BASE = ("analyze-exact-cox_rc 0 aaa\n"
        "validate-318 0 bbb\n"
        "validate-7 0 ccc\n")


@pytest.mark.parametrize("head, code, moved", [
    (BASE, 0, []),
    (BASE.replace("aaa", "abc"), 0, ["analyze-exact-cox_rc"]),
    (BASE.replace("validate-7 0 ccc", "validate-7 1 ccc"), 1,
     ["validate-7"]),
    (BASE.replace("bbb", "bcd") + "paramcheck-spd4-p2 0 ddd\n", 1,
     ["validate-318", "paramcheck-spd4-p2"]),
    ("analyze-exact-cox_rc 0 aaa\n", 1, ["validate-318", "validate-7"]),
])
def test_only_a_moved_validate_line_fails(tmp_path, head, code, moved):
    (tmp_path / "base.txt").write_text(BASE)
    (tmp_path / "head.txt").write_text(head)
    summary = tmp_path / "summary.md"
    done = subprocess.run(
        [sys.executable, str(SCRIPT), str(tmp_path / "base.txt"),
         str(tmp_path / "head.txt")],
        capture_output=True, text=True,
        env={"GITHUB_STEP_SUMMARY": str(summary)})
    assert done.returncode == code
    listed = [line[2:] for line in done.stdout.splitlines()
              if line.startswith("- ")]
    assert listed == moved
    assert done.stdout in summary.read_text()
