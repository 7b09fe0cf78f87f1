"""Run a fixed list of ``circuitrand`` command lines under several Pythons and compare.

Usage::

    python tools/cross_version.py PYTHON [PYTHON ...]

Each interpreter given runs every command line of :data:`COMMANDS` through
``circuitrand.cli.main`` in one process, in a fresh temporary directory that
holds the input files of :data:`INPUTS`, and reports each command's exit
code, stdout and stderr.  The script prints every command whose results are
not the same under all the interpreters, and exits 1 if there is one, else
0.  Standard library only; the package is imported from ``src/`` next to
this directory.

The list covers every subcommand in both output formats, the designs whose
listings the tests pin, ``analyse`` with each documented token form and with
tokens that hold an underscore, and the package's exit 2, 3, 4 and 5
errors.  ``-h`` and argparse's own usage errors are left out: argparse wraps
its usage text differently from Python 3.13 on.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
SRC = TOOLS.parent / "src"

DIGRAPH5 = "1 2\n1 3\n1 4\n2 3\n2 4\n2 5\n3 4\n3 5\n3 1\n4 5\n4 1\n4 2\n5 1\n5 2\n5 3\n"
MULTIDIGRAPH = "1 4\n4 3\n3 1\n2 3\n3 1\n1 2\n2 3\n3 2\n2 3\n3 4\n4 1\n1 2\n1 3\n3 2\n2 1\n"

# file name -> text, written before the first command runs
INPUTS = {
    "digraph5.txt": DIGRAPH5,
    "multi.txt": MULTIDIGRAPH,
    "unbalanced.txt": "1 2\n2 3\n",
    "badedge.txt": "1 x\n",
    "generic.txt": "3 5\n1 0 2 -1 3\n0 1 -1 2 1\n2 -1 0 1 -2\n",
    "nointercept.txt": "4 1\n1\n0\n0\n0\n",
    "valid.txt": "1 8\n2 7\n3 6\n4 5\n",
    "notorth.txt": "1 2 3 4\n5 6\n7 8\n",
    "overlap.txt": "1 8\n1 7\n3 6\n4 5\n",
    "badblock.txt": "1 x\n",
    "y_int.txt": "3 -1/2 0.25 2.5e3 7 1 -4 10/3\n",
    "y_short.txt": "1 2 3\n",
    "y_huge.txt": "1e5000 2 3 4 5 6 7 8\n",
    "y_digits.txt": "1e4300 2 3 4 5 6 7 8\n",
    "g4.txt": "1 -1/2 0.25 2.5e3\n",
    "g3.txt": "1 2 3\n",
    "f2_blocks.txt": "1 4\n2 3\n",
    "f2_y.txt": "3 -1/2 0.25 2.5e3\n",
    "f2_g.txt": "1 2\n",
    "f2_y_us1.txt": "1_000 2 3 4\n",
    "f2_y_us2.txt": "1/1_0 2 3 4\n",
    "f2_y_us3.txt": "1e1_0 2 3 4\n",
    "f2_g_us.txt": "1 1_000\n",
}

DESIGNS = {
    "f2.txt": ["factorial", "--k", "2"],
    "f3.txt": ["factorial", "--k", "3"],
    "f4.txt": ["factorial", "--k", "4"],
    "dg5.txt": ["digraph", "--edges", "digraph5.txt"],
    "ch3.txt": ["choice", "--k", "3"],
    "a44.txt": ["anova2", "--I", "4", "--J", "4"],
    "multi_design.txt": ["digraph", "--edges", "multi.txt"],
}

FORMATS = (["--format", "human"], ["--format", "records"])


def _commands() -> list[list[str]]:
    cmds = [["catalog", *argv, "-o", name] for name, argv in DESIGNS.items()]
    both = [["catalog", *argv] for argv in DESIGNS.values()]
    both += [
        ["catalog", "factorial"],
        ["catalog", "anova2", "--I", "3"],
        ["catalog", "choice", "--k", "13"],
        ["catalog", "anova2", "--I", "3000", "--J", "2"],
        ["catalog", "digraph"],
        ["catalog", "digraph", "--edges", "unbalanced.txt"],
        ["catalog", "digraph", "--edges", "badedge.txt"],
        ["catalog", "digraph", "--edges", "missing.txt"],
    ]
    for matrix in ("f3.txt", "generic.txt", "dg5.txt"):
        for flags in ([], ["--nonnegative"], ["--binary"]):
            both += [["circuits", matrix, *flags], ["circuits", matrix, "--transpose", *flags]]
    for design in ("f3.txt", "f4.txt", "dg5.txt", "ch3.txt", "a44.txt", "multi_design.txt"):
        both += [
            ["randomise", design, "--enumerate"],
            ["randomise", design, "--enumerate", "--shapes", "--lattice"],
            ["randomise", design, "--enumerate", "--shapes", "--lattice", "--include-full"],
        ]
    both += [
        ["randomise", "f3.txt", "--check", "valid.txt"],
        ["randomise", "f3.txt", "--check", "notorth.txt"],
        ["randomise", "f3.txt", "--check", "overlap.txt"],
        ["randomise", "f3.txt", "--check", "badblock.txt"],
        ["randomise", "nointercept.txt", "--enumerate"],
        ["randomise", "missing.txt", "--enumerate"],
        ["tu", "f3.txt"],
        ["tu", "generic.txt"],
        ["tu", "dg5.txt"],
        ["tu", "f4.txt", "--cap", "10"],
        ["tu", "f3.txt", "--cap", "-1"],
    ]
    analyse = ["analyse", "f3.txt", "--system"]
    both += [
        [*analyse, "valid.txt", "--y", "y_int.txt", "--gamma", "g4.txt"],
        [*analyse, "notorth.txt", "--y", "y_int.txt", "--gamma", "g3.txt"],
        [*analyse, "overlap.txt", "--y", "y_int.txt", "--gamma", "g4.txt"],
        [*analyse, "valid.txt", "--y", "y_short.txt", "--gamma", "g4.txt"],
        [*analyse, "valid.txt", "--y", "y_int.txt", "--gamma", "g3.txt"],
        [*analyse, "valid.txt", "--y", "y_huge.txt", "--gamma", "g4.txt"],
        [*analyse, "valid.txt", "--y", "y_digits.txt", "--gamma", "g4.txt"],
        ["analyse", "f3.txt", "--system", "valid.txt"],
        ["analyse", "f2.txt", "--system", "f2_blocks.txt", "--y", "f2_y.txt", "--gamma", "f2_g.txt"],
        ["analyse", "f2.txt", "--system", "f2_blocks.txt", "--y", "f2_y_us1.txt", "--gamma", "f2_g.txt"],
        ["analyse", "f2.txt", "--system", "f2_blocks.txt", "--y", "f2_y_us2.txt", "--gamma", "f2_g.txt"],
        ["analyse", "f2.txt", "--system", "f2_blocks.txt", "--y", "f2_y_us3.txt", "--gamma", "f2_g.txt"],
        ["analyse", "f2.txt", "--system", "f2_blocks.txt", "--y", "f2_y.txt", "--gamma", "f2_g_us.txt"],
        ["analyse", "--simulate", "--n1", "3", "--n2", "5", "--replications", "20", "--seed", "1"],
        ["analyse", "--simulate", "--n1", "2", "--n2", "7", "--theta1", "2.5", "--sd", "0.5"],
        ["analyse", "--simulate", "--n1", "0", "--n2", "5"],
        ["analyse", "--simulate", "--n1", "3"],
    ]
    return cmds + [argv + fmt for argv in both for fmt in FORMATS]


COMMANDS = _commands()


def run_commands() -> list[tuple[int, str, str]]:
    """``(exit code, stdout, stderr)`` of each command, in a fresh directory."""
    from circuitrand import cli

    results = []
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for name, text in INPUTS.items():
                Path(name).write_text(text, encoding="utf-8")
            for argv in COMMANDS:
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    try:
                        code = cli.main(argv)
                    except SystemExit as exc:
                        code = exc.code
                results.append((code, out.getvalue(), err.getvalue()))
        finally:
            os.chdir(here)
    return results


def _worker() -> None:
    """Print :func:`run_commands`' results as JSON; run by each interpreter."""
    json.dump(run_commands(), sys.stdout)


def main(pythons: list[str]) -> int:
    if not pythons:
        print("usage: python tools/cross_version.py PYTHON [PYTHON ...]", file=sys.stderr)
        return 2
    code = (
        f"import sys; sys.path[:0] = [{str(TOOLS)!r}, {str(SRC)!r}]; "
        "import cross_version; cross_version._worker()"
    )
    runs = {}
    for python in pythons:
        done = subprocess.run([python, "-c", code], capture_output=True, text=True, check=False)
        if done.returncode:
            print(f"{python}: exit {done.returncode}\n{done.stderr}", file=sys.stderr)
            return 2
        runs[python] = [tuple(r) for r in json.loads(done.stdout)]
    differ = 0
    for i, argv in enumerate(COMMANDS):
        seen = {python: results[i] for python, results in runs.items()}
        if len(set(seen.values())) > 1:
            differ += 1
            print("differs: circuitrand " + " ".join(argv))
            for python, (status, out, err) in seen.items():
                print(f"  {python}: exit {status}, stdout {out[:200]!r}, stderr {err[:200]!r}")
    print(f"{len(COMMANDS)} commands under {len(pythons)} interpreter(s): {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
