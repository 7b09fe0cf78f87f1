"""``tools/cross_version.py``: its command list, and a run under this Python."""

import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"
sys.path.insert(0, str(TOOLS))

import cross_version  # noqa: E402


def test_the_command_list_covers_each_subcommand_format_and_exit_code():
    results = cross_version.run_commands()
    assert len(results) == len(cross_version.COMMANDS)
    assert {argv[0] for argv in cross_version.COMMANDS} == {
        "catalog", "circuits", "randomise", "tu", "analyse",
    }
    for fmt in ("human", "records"):
        assert {
            argv[0] for argv in cross_version.COMMANDS if argv[-2:] == ["--format", fmt]
        } == {"catalog", "circuits", "randomise", "tu", "analyse"}
    assert {code for code, _, _ in results} == {0, 2, 3, 4, 5}
    assert not any("Traceback" in err for _, _, err in results)
    assert not any("-h" in argv or "--help" in argv for argv in cross_version.COMMANDS)


def test_cross_version_runs_under_this_python():
    done = subprocess.run(
        [sys.executable, str(TOOLS / "cross_version.py"), sys.executable],
        capture_output=True, text=True, check=False,
    )
    assert (done.returncode, done.stderr) == (0, "")
    n = len(cross_version.COMMANDS)
    assert done.stdout == f"{n} commands under 1 interpreter(s): 0 differ\n"


def test_cross_version_needs_an_interpreter():
    done = subprocess.run(
        [sys.executable, str(TOOLS / "cross_version.py")],
        capture_output=True, text=True, check=False,
    )
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == "usage: python tools/cross_version.py PYTHON [PYTHON ...]\n"
