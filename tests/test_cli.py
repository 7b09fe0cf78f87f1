import argparse
import ast
import contextlib
import functools
import hashlib
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import tempfile
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from circuitrand import cli
from circuitrand.circuits import binary_circuits, circuit_basis, nonnegative_circuits
from circuitrand.contrast import to_contrast_form
from circuitrand.design_catalog import anova_two_way, choice_k_of_2k, factorial_two_level
from circuitrand.randomisation import RandomisationSystem, enumerate_circuit_randomisations

from conftest import DIGRAPH_EDGES
from test_circuits import PINNED_BASES, _digest

TWO_CUBED_CONTRAST = """3 8
1 1 1 1 -1 -1 -1 -1
1 1 -1 -1 1 1 -1 -1
1 -1 1 -1 1 -1 1 -1
"""


@pytest.fixture()
def contrast_file(tmp_path):
    p = tmp_path / "x1t.txt"
    p.write_text(TWO_CUBED_CONTRAST)
    return str(p)


@pytest.fixture()
def design_file(tmp_path, capsys):
    p = tmp_path / "design.txt"
    assert cli.main(["catalog", "factorial", "--k", "3", "-o", str(p)]) == 0
    capsys.readouterr()
    return str(p)


@pytest.fixture()
def edges_file(tmp_path):
    p = tmp_path / "edges.txt"
    p.write_text("".join(f"{a} {b}\n" for a, b in DIGRAPH_EDGES))
    return str(p)


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_matrix_text_round_trip():
    m = cli.parse_matrix_text(TWO_CUBED_CONTRAST)
    again = cli.parse_matrix_text(cli.format_matrix_text(m))
    assert again == m


def test_matrix_text_rejects_bad_counts():
    with pytest.raises(ValueError):
        cli.parse_matrix_text("2 2\n1 2 3\n4 5")
    with pytest.raises(ValueError):
        cli.parse_matrix_text("")


def test_blocks_text_round_trip():
    blocks = cli.parse_blocks_text("1 4 6 7\n2 3 5 8\n")
    assert blocks == [(0, 3, 5, 6), (1, 2, 4, 7)]


def test_parse_rational_list():
    assert [str(x) for x in cli.parse_rational_list("3\n1/2\n0.25\n")] == ["3", "1/2", "1/4"]
    assert [str(x) for x in cli.parse_rational_list("2.5e3 1E-2")] == ["2500", "1/100"]


@pytest.mark.parametrize("token", ["1e5000", "1e-5000", "1E+4301"])
def test_parse_rational_list_bounds_the_exponent(token):
    with pytest.raises(ValueError, match="cannot parse rational number"):
        cli.parse_rational_list(token)


# the tokens read with int: ASCII digits, one optional '-', a nonzero denominator
INT_RATIONAL = re.compile(r"-?[0-9]+(/0*[1-9][0-9]*)?")


def fraction_exponent(token):
    """The decimal exponent ``Fraction`` would read from the token, else 0."""
    m = re.fullmatch(r".*e([-+]?\d+(_\d+)*)", token, re.IGNORECASE)
    return int(m[1]) if m else 0


@settings(max_examples=600, deadline=None)
@given(st.text(alphabet="0123456789-+/._e\u0663", min_size=1, max_size=12))
@example("-0")
@example("007")
@example("12/08")
@example("3/0")
@example("0/0")
@example("1/-2")
@example("--3")
@example("+3")
@example("1_0")
@example("\u0663")
@example("9" * 4301)
def test_parse_rational_list_reads_each_token_as_fraction_does(token):
    # a spy in place of the module's Fraction records what each token is built from
    calls = []

    def spy(*args):
        calls.append(args)
        return Fraction(*args)

    try:
        # the parser rejects an exponent beyond 4,300 before Fraction expands
        # it, and an underscore, which Fraction reads only from Python 3.11 on
        expected = [Fraction(token)] if abs(fraction_exponent(token)) <= 4300 else None
    except (ValueError, ZeroDivisionError):
        expected = None
    if "_" in token:
        expected = None
    with mock.patch.object(cli, "Fraction", spy):
        if expected is None:
            with pytest.raises(ValueError, match="^cannot parse rational number "):
                cli.parse_rational_list(token)
        else:
            assert cli.parse_rational_list(token) == expected
    if INT_RATIONAL.fullmatch(token):
        assert not any(isinstance(arg, str) for args in calls for arg in args)
    else:
        assert all(args == (token,) for args in calls)


@pytest.mark.parametrize("header", ["100000 0", "0 100000", "4097 1"])
def test_matrix_text_bounds_the_shape(header):
    # a shape with no entries is read from the header alone
    with pytest.raises(ValueError, match="budget"):
        cli.parse_matrix_text(header)


PARSERS = [
    cli.parse_matrix_text,
    cli.parse_blocks_text,
    cli.parse_edges_text,
    cli.parse_rational_list,
]


@settings(max_examples=400, deadline=None)
@given(st.text(alphabet="0123456789-/.e# \n", max_size=40))
def test_parsers_return_or_raise_value_error(text):
    # the CLI maps ValueError to exit status 2; anything else is a traceback
    for parse in PARSERS:
        try:
            parse(text)
        except ValueError:
            pass


def test_catalog_factorial_output(capsys, tmp_path):
    code, out, err = run(capsys, ["catalog", "factorial", "--k", "3"])
    assert code == 0
    assert out.startswith("8 4\n")
    assert "# run 1: +++" in out
    assert "# param 2: A" in out


def test_catalog_writes_file(design_file):
    with open(design_file) as fh:
        first = fh.readline()
    assert first == "8 4\n"


def test_catalog_records_format(capsys):
    code, out, _ = run(capsys, ["catalog", "choice", "--k", "2", "--format", "records"])
    assert code == 0
    data = json.loads(out)
    assert data["n_rows"] == 6
    assert data["n_cols"] == 4
    assert data["rows"][0] == [1, 1, 0, 0]


def test_catalog_unwritable_output(capsys, tmp_path):
    target = tmp_path / "missing" / "design.txt"
    code, out, err = run(capsys, ["catalog", "factorial", "--k", "3", "-o", str(target)])
    assert code == 2
    assert err.startswith(f"circuitrand: cannot write {target}: ")
    assert "Traceback" not in err


def test_catalog_missing_params(capsys):
    code, out, err = run(capsys, ["catalog", "factorial"])
    assert code == 2
    assert "--k" in err


def test_catalog_digraph(capsys, edges_file):
    code, out, _ = run(capsys, ["catalog", "digraph", "--edges", edges_file])
    assert code == 0
    assert out.startswith("15 6\n")
    assert "# run 1: 1->2" in out


def test_catalog_digraph_needs_edges(capsys):
    code, out, err = run(capsys, ["catalog", "digraph"])
    assert (code, out) == (2, "")
    assert err == "circuitrand: the digraph family needs --edges FILE\n"


def test_catalog_digraph_unbalanced(capsys, tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("1 2\n2 3\n")
    code, out, err = run(capsys, ["catalog", "digraph", "--edges", str(p)])
    assert code == 3
    assert "degree" in err


def test_catalog_digraph_over_budget(capsys, tmp_path):
    p = tmp_path / "edges.txt"
    p.write_text("1 100000\n100000 1\n")
    code, out, err = run(capsys, ["catalog", "digraph", "--edges", str(p)])
    assert code == 2
    assert out == ""
    assert "budget" in err


_DIGRAPH_VERTEX_BUDGET = "2 edges on more than 4096 vertices exceed the budget of 4096"


@pytest.mark.parametrize(
    "text, message",
    [
        ("1 2\n2 1\n" * 2049, "4098 edges on 2 vertices exceed the budget of 4096"),
        # a vertex count past the budget is not printed, however long
        (f"1 {'9' * 4300}\n{'9' * 4300} 1\n", _DIGRAPH_VERTEX_BUDGET),
        ("1 4097\n4097 1\n", _DIGRAPH_VERTEX_BUDGET),
    ],
    ids=["edges", "4300-digit vertex", "vertex 4097"],
)
def test_catalog_digraph_budget_messages_are_pinned(capsys, tmp_path, text, message):
    p = tmp_path / "edges.txt"
    p.write_text(text)
    assert run(capsys, ["catalog", "digraph", "--edges", str(p)]) == (2, "", f"circuitrand: {message}\n")


def test_catalog_digraph_sparse_within_budget(capsys, tmp_path):
    p = tmp_path / "edges.txt"
    p.write_text("1 4096\n4096 1\n")
    code, out, _ = run(capsys, ["catalog", "digraph", "--edges", str(p)])
    assert code == 0
    assert out.startswith("2 4097\n1 1 0 ")


@pytest.mark.parametrize("text", ["", "# no edges here\n\n"], ids=["empty", "comments"])
def test_catalog_digraph_empty_edges(capsys, tmp_path, text):
    p = tmp_path / "edges.txt"
    p.write_text(text)
    code, out, err = run(capsys, ["catalog", "digraph", "--edges", str(p)])
    assert code == 2
    assert err == f"circuitrand: {p}: empty edges file\n"


_ANOVA_FACTOR_BUDGET = (
    "a factor of more than 2048 levels gives more than 4096 runs, beyond the budget of 4096"
)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["factorial"], "the factorial family needs --k"),
        (["anova2", "--I", "3"], "the anova2 family needs --I and --J"),
        (["choice"], "the choice family needs --k"),
        (["choice", "--k", "1"], "k must be at least 2, got 1"),
        (["factorial", "--k", "13"], "k must be between 1 and 12, got 13"),
        (["anova2", "--I", "1", "--J", "3"], "a two-way layout needs at least two levels per factor"),
        (["choice", "--k", "8"], "12870 runs exceed the budget of 4096"),
        (["choice", "--k", "12"], "2704156 runs exceed the budget of 4096"),
        # from k = 13 on, 2^k alone exceeds the budget and comb(2k, k) is never computed
        (["choice", "--k", "13"], "k = 13 gives at least 2^13 runs, beyond the budget of 4096"),
        (["anova2", "--I", "2049", "--J", "2"], _ANOVA_FACTOR_BUDGET),
        # past 2,048 levels the run count is never formed: 2,200 nines squared
        # has more digits than Python prints
        (["anova2", "--I", "9" * 2200, "--J", "9" * 2200], _ANOVA_FACTOR_BUDGET),
    ],
)
def test_catalog_parameter_errors_are_pinned(capsys, argv, message):
    assert run(capsys, ["catalog", *argv]) == (2, "", f"circuitrand: {message}\n")


@pytest.mark.parametrize(
    "kind, text, message",
    [
        ("blocks", "1 x\n", "block line must hold integers: '1 x'"),
        ("blocks", "0 1\n", "run indices are 1-based and must be positive"),
        ("blocks", "# only a comment\n", "empty blocks file"),
        ("edges", "1 2 3\n", "edge line must be 'tail head', got '1 2 3'"),
        ("edges", "1 x\n", "edge line must hold integers: '1 x'"),
        ("edges", "0 1\n", "vertex numbers are 1-based and must be positive"),
    ],
)
def test_blocks_and_edges_file_errors_are_pinned(capsys, tmp_path, design_file, kind, text, message):
    p = tmp_path / f"{kind}.txt"
    p.write_text(text)
    if kind == "blocks":
        argv = ["randomise", design_file, "--check", str(p)]
    else:
        argv = ["catalog", "digraph", "--edges", str(p)]
    assert run(capsys, argv) == (2, "", f"circuitrand: {p}: {message}\n")


def test_catalog_anova2_over_budget(capsys):
    code, out, err = run(capsys, ["catalog", "anova2", "--I", "65", "--J", "64"])
    assert code == 2
    assert "4160 runs exceed the budget of 4096" in err
    assert out == ""


def test_catalog_choice_refuses_a_huge_k_without_computing_its_runs(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, ["catalog", "choice", "--k", "2000000"])
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    # the budget message, not Python's integer string conversion text
    assert err == "circuitrand: k = 2000000 gives at least 2^2000000 runs, beyond the budget of 4096\n"


def test_circuits_summary(capsys, contrast_file):
    code, out, _ = run(capsys, ["circuits", contrast_file, "--nonnegative", "--binary"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "circuits=20 nonnegative=6 binary=6"
    assert lines[0] == "0 0 0 1 1 0 0 0"


def test_circuits_transpose(capsys, tmp_path, contrast_file):
    # Transposing the transposed contrast gives the same circuit count.
    with open(contrast_file) as fh:
        m = cli.parse_matrix_text(fh.read())
    p = tmp_path / "x1.txt"
    p.write_text(cli.format_matrix_text(m.transpose()))
    code, out, _ = run(capsys, ["circuits", str(p), "--transpose"])
    assert code == 0
    assert out.strip().splitlines()[-1] == "circuits=20"


def test_circuits_records(capsys, contrast_file):
    code, out, _ = run(capsys, ["circuits", contrast_file, "--nonnegative", "--format", "records"])
    data = json.loads(out)
    assert data["circuits"] == 20
    assert data["nonnegative"] == 6
    assert data["vectors"][0] == [0, 0, 0, 1, 1, 0, 0, 0]
    assert code == 0


def test_circuits_missing_file(capsys):
    code, out, err = run(capsys, ["circuits", "no-such-file.txt"])
    assert code == 2
    assert "cannot read" in err


@pytest.mark.parametrize("name", PINNED_BASES)
def test_circuits_listing_is_pinned(capsys, tmp_path, name):
    make, count, digest = PINNED_BASES[name]
    matrix = make()
    path = tmp_path / "m.txt"
    path.write_text(cli.format_matrix_text(matrix))
    code, out, err = run(capsys, ["circuits", str(path)])
    summary = f"circuits={count}\n"
    assert (code, err, out.endswith(summary)) == (0, "", True)
    assert hashlib.sha256(out[: -len(summary)].encode()).hexdigest() == digest
    basis = circuit_basis(matrix)
    for flags in ([], ["--nonnegative"], ["--binary"]):
        records, listed = {"circuits": len(basis)}, basis.circuits
        if flags:
            listed = nonnegative_circuits(basis)
            records["nonnegative"] = len(listed)
        if flags == ["--binary"]:
            listed = binary_circuits(basis)
            records["binary"] = len(listed)
        records["vectors"] = [list(c.vector) for c in listed]
        code, out, err = run(capsys, ["circuits", str(path), "--format", "records", *flags])
        assert (code, err) == (0, "")
        assert out == json.dumps(records, indent=2) + "\n"


def test_randomise_enumerate(capsys, design_file):
    code, out, _ = run(capsys, ["randomise", design_file, "--enumerate"])
    assert code == 0
    assert out.splitlines()[0] == "systems=2"
    assert "{1,4,6,7} {2,3,5,8}" in out
    assert "{1,8} {2,7} {3,6} {4,5}" in out


def test_randomise_shapes_and_lattice(capsys, design_file):
    code, out, _ = run(capsys, ["randomise", design_file, "--enumerate", "--shapes", "--lattice", "--include-full"])
    assert code == 0
    assert "shapes:" in out
    assert "4+4 1" in out
    assert "2+2+2+2 1" in out
    assert "lattice-edges=2" in out


@pytest.mark.parametrize("size, latin_squares", [(4, 576), (5, 161_280)])
def test_randomise_enumerates_latin_square_blockings(capsys, tmp_path, size, latin_squares):
    # the systems of anova IxI are the partitions of its cells into I
    # permutation matrices: the Latin squares of order I up to relabelling
    # their symbols, of which there are L(I) / I!
    p = tmp_path / "anova.txt"
    assert cli.main(["catalog", "anova2", "--I", str(size), "--J", str(size), "-o", str(p)]) == 0
    capsys.readouterr()
    code, out, _ = run(capsys, ["randomise", str(p), "--enumerate", "--shapes"])
    assert code == 0
    lines = out.splitlines()
    count = latin_squares // math.factorial(size)
    assert lines[0] == f"systems={count}"
    assert lines[-2:] == ["shapes:", f"{'+'.join([str(size)] * size)} {count}"]


def test_randomise_check_valid(capsys, design_file, tmp_path):
    p = tmp_path / "blocks.txt"
    p.write_text("1 8\n2 7\n3 6\n4 5\n")
    code, out, _ = run(capsys, ["randomise", design_file, "--check", str(p)])
    assert code == 0
    assert out.strip() == "valid"


def test_randomise_check_invalid(capsys, design_file, tmp_path):
    p = tmp_path / "blocks.txt"
    p.write_text("1 2 3 4\n5 6 7 8\n")
    code, out, err = run(capsys, ["randomise", design_file, "--check", str(p)])
    assert code == 4
    assert err == (
        "circuitrand: invalid system: block {1,2,3,4} has inner product 4 "
        "with contrast column 1\n"
    )


@pytest.mark.parametrize(
    "text, block, product",
    [
        ("1 2 3 4\n5 6\n7 8\n", "{1,2,3,4}", 4),
        ("5 6\n1 2 3 4\n7 8\n", "{5,6}", -2),
        # runs inside the named block are printed ascending
        ("8 7\n4 3 2 1\n6 5\n", "{7,8}", -2),
    ],
)
def test_randomise_check_names_the_first_bad_block_in_file_order(
    capsys, design_file, tmp_path, text, block, product
):
    p = tmp_path / "blocks.txt"
    p.write_text(text)
    assert run(capsys, ["randomise", design_file, "--check", str(p)]) == (
        4,
        "",
        f"circuitrand: invalid system: block {block} has inner product {product} "
        "with contrast column 1\n",
    )


def test_randomise_requires_intercept(capsys, tmp_path):
    p = tmp_path / "noj.txt"
    p.write_text("3 1\n1\n0\n0\n")
    code, out, err = run(capsys, ["randomise", str(p), "--enumerate"])
    assert code == 3
    assert "all-ones" in err


@pytest.mark.parametrize(
    "extra",
    [
        ["randomise", "--enumerate"],
        ["randomise", "--check", "BLOCKS"],
        ["analyse", "--system", "BLOCKS", "--y", "BLOCKS", "--gamma", "BLOCKS"],
    ],
    ids=["enumerate", "check", "analyse"],
)
def test_zero_run_design_is_a_parameter_error(capsys, tmp_path, extra):
    design = tmp_path / "empty.txt"
    design.write_text("0 3\n")
    blocks = tmp_path / "blocks.txt"
    blocks.write_text("1\n")
    argv = [extra[0], str(design)] + [str(blocks) if a == "BLOCKS" else a for a in extra[1:]]
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert f"{design}: a design needs at least one run" in err


def test_randomise_records(capsys, design_file):
    code, out, _ = run(capsys, ["randomise", design_file, "--enumerate", "--shapes", "--format", "records"])
    data = json.loads(out)
    assert data["systems"] == [
        [[1, 4, 6, 7], [2, 3, 5, 8]],
        [[1, 8], [2, 7], [3, 6], [4, 5]],
    ]
    assert data["shapes"] == [[[4, 4], 1], [[2, 2, 2, 2], 1]]
    assert code == 0


# a balanced multidigraph on 4 vertices whose 15 edges include parallel ones,
# 1-based: 216 systems in 5 shapes
MULTIDIGRAPH_EDGES = [
    (1, 4), (4, 3), (3, 1), (2, 3), (3, 1), (1, 2), (2, 3), (3, 2),
    (2, 3), (3, 4), (4, 1), (1, 2), (1, 3), (3, 2), (2, 1),
]

PINNED_DESIGNS = {
    "2^4": ["factorial", "--k", "4"],
    "digraph5": ["digraph", "--edges", "EDGES"],
    "choice k=3": ["choice", "--k", "3"],
    "anova 4x4": ["anova2", "--I", "4", "--J", "4"],
    "multidigraph": ["digraph", "--edges", "MULTIEDGES"],
}

# sha256 of stdout for `randomise --enumerate --shapes --lattice`, by design,
# format and --include-full, as listed when every system was built, sorted
# and formatted from its blocks
PINNED_LISTINGS = {
    ("2^4", "human", False): "0b57de0ef797ca494630f3fdee4a9dbb453ab66ffd56058beb5bb4d643b49233",
    ("2^4", "human", True): "6499127b03b49a03fc692a1a6cef49ffb4cffdc03128a49a327736202d7804c6",
    ("2^4", "records", False): "6994aa378deff34f05825a098480199f9e0c9f5605f8a48b88b5d12385af59c2",
    ("2^4", "records", True): "ee3ac4911f6402a7c274529d4352d33230abbc15b68bada3fc27ed40d667520b",
    ("digraph5", "human", False): "d4994ff058f4dff4b2782e151594f9564a5fbef8657f447a6197702040ef181c",
    ("digraph5", "human", True): "6e70b67660331d33dfc659922285c09fc6795887a9e8a45181326d89b5739d86",
    ("digraph5", "records", False): "7b7d96b13a0ccf90af92ccb0a3e0b7afab87fb94d12a6614d82517b3138464bb",
    ("digraph5", "records", True): "5b0ac57ee26e30c136405b9421c4e31cba57ccf425ac75551442b857b28e9052",
    ("choice k=3", "human", False): "0f34476c2f882a0802b8411095ff0cdbf4a5c2e52d4b8730e9ac53bf158a21da",
    ("choice k=3", "human", True): "8300a17419b9930ada448415a0a3d2e56bde4955b6de907924e4dd3eeecdf0d9",
    ("choice k=3", "records", False): "15ba8ddfed0780b4de464961dda16a353604b2b41a8582bb47adbcba4d87222d",
    ("choice k=3", "records", True): "69c9f59a5b5e31dd242d4c724fe43969a5fa7fe7048fdc6c652f7fb85dcece88",
    ("anova 4x4", "human", False): "708761bfddf0c35f19f165336d41c904471dc099dfa79be57e4d32e87f0c5e0b",
    ("anova 4x4", "human", True): "c30e22cd1c93b4bdcec2121cc48b55a7db5dce0cbe16c3687b80e9a8d9160350",
    ("anova 4x4", "records", False): "286a498d0142187cf758914529ef48c52add943abe12f7e5363f4182cfeb2985",
    ("anova 4x4", "records", True): "91660191fc193b72827b55811b76552dba52739fa4b214c9c0117c34973f4e1c",
    ("multidigraph", "human", False): "e3eb2758c842768276373c3d26f3191af94c046cc7887f518f92bf687f0ab317",
    ("multidigraph", "human", True): "a8d40699d46ad87a3425d42e0364a20372d441c1f5f435e4ab925ad98bf9c140",
    ("multidigraph", "records", False): "14715c06b7ce40911371893e3cec3b17b3a133b35f432416f058862505e69abb",
    ("multidigraph", "records", True): "a3ca2ab1f7ddc5c31f992603bc1b0e958e8fb155dec763e3c6d11a12334106cf",
}


def _pinned_design(name, tmp_path, edges_file, capsys) -> str:
    p = tmp_path / "design.txt"
    multi = tmp_path / "multi.txt"
    multi.write_text("".join(f"{a} {b}\n" for a, b in MULTIDIGRAPH_EDGES))
    files = {"EDGES": edges_file, "MULTIEDGES": str(multi)}
    argv = [files.get(a, a) for a in PINNED_DESIGNS[name]]
    assert cli.main(["catalog", *argv, "-o", str(p)]) == 0
    capsys.readouterr()
    return str(p)


@pytest.mark.parametrize("name, fmt, include_full", sorted(PINNED_LISTINGS))
def test_randomise_listing_is_pinned(capsys, tmp_path, edges_file, name, fmt, include_full):
    design = _pinned_design(name, tmp_path, edges_file, capsys)
    argv = ["randomise", design, "--enumerate", "--shapes", "--lattice", "--format", fmt]
    code, out, err = run(capsys, argv + ["--include-full"] * include_full)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_LISTINGS[name, fmt, include_full]


def _listing_contents(out: str, fmt: str) -> tuple[frozenset, tuple, int]:
    """A `randomise --enumerate --shapes --lattice` report, read without its order.

    Returns the set of systems, each a frozenset of 1-based block tuples,
    the shape table as ``(shape, count)`` pairs, and the number of lattice
    edges.
    """
    if fmt == "records":
        data = json.loads(out)
        systems = [[tuple(b) for b in s] for s in data["systems"]]
        shapes = tuple((tuple(shape), n) for shape, n in data["shapes"])
        edges = len(data["lattice_edges"])
    else:
        lines = out.splitlines()
        at_shapes = lines.index("shapes:")
        at_edges = next(i for i, line in enumerate(lines) if line.startswith("lattice-edges="))
        systems = [
            [tuple(map(int, b.strip("{}").split(","))) for b in line.split()]
            for line in lines[1:at_shapes]
        ]
        assert lines[0] == f"systems={len(systems)}"
        shapes = tuple(
            (tuple(map(int, shape.split("+"))), int(n))
            for shape, n in map(str.split, lines[at_shapes + 1 : at_edges])
        )
        edges = int(lines[at_edges].removeprefix("lattice-edges="))
        assert len(lines) == at_edges + 1 + edges
    found = frozenset(frozenset(s) for s in systems)
    assert len(found) == len(systems)
    return found, shapes, edges


# sha256 of what _listing_contents reads from the same reports, by the same
# keys; independent of the listing order, and equal across the two formats
PINNED_LISTING_CONTENTS = {
    ("2^4", "human", False): "bf4670f4c7255e85071ad19dbac2baf58922fd7866c940c9fa94471ac3352798",
    ("2^4", "human", True): "1f4515f699f0f4917590f5817987eef3df980285fbe8425a71db296bf8e92905",
    ("2^4", "records", False): "bf4670f4c7255e85071ad19dbac2baf58922fd7866c940c9fa94471ac3352798",
    ("2^4", "records", True): "1f4515f699f0f4917590f5817987eef3df980285fbe8425a71db296bf8e92905",
    ("digraph5", "human", False): "c1ee8ec7453143d8b7d3e1113daff2b33f055c8d2aadcbfc4d4ba734c4f5d75f",
    ("digraph5", "human", True): "c03175786c317d5aaf393b4b5f13b7a2c31e04e413dc653222311f4eaa33fa00",
    ("digraph5", "records", False): "c1ee8ec7453143d8b7d3e1113daff2b33f055c8d2aadcbfc4d4ba734c4f5d75f",
    ("digraph5", "records", True): "c03175786c317d5aaf393b4b5f13b7a2c31e04e413dc653222311f4eaa33fa00",
    ("choice k=3", "human", False): "9c990fb1a730a098855d095ba99174d172ab41e83daec0329ca71cac2b4539ce",
    ("choice k=3", "human", True): "046dcac8c999d1a7678860b87f474141e164ccb9914440cb94708c70b718e412",
    ("choice k=3", "records", False): "9c990fb1a730a098855d095ba99174d172ab41e83daec0329ca71cac2b4539ce",
    ("choice k=3", "records", True): "046dcac8c999d1a7678860b87f474141e164ccb9914440cb94708c70b718e412",
    ("anova 4x4", "human", False): "1bc5f6761841972e0904cd334d08b8d2a7e00165f7fa204ad0bf5dce05fa2e13",
    ("anova 4x4", "human", True): "646cce806e0a9bc652b8f1575f8ba3b73ae68a87141aa81ec75cf90f025de4a9",
    ("anova 4x4", "records", False): "1bc5f6761841972e0904cd334d08b8d2a7e00165f7fa204ad0bf5dce05fa2e13",
    ("anova 4x4", "records", True): "646cce806e0a9bc652b8f1575f8ba3b73ae68a87141aa81ec75cf90f025de4a9",
    ("multidigraph", "human", False): "214995a6dc4de533f6acd828aca7595e506ce6292a68bcd6dac682f779ebaca3",
    ("multidigraph", "human", True): "20e5062ca772654fea881c54ee4503f1bb72799482d1cfa2513ca2c1dd64faaf",
    ("multidigraph", "records", False): "214995a6dc4de533f6acd828aca7595e506ce6292a68bcd6dac682f779ebaca3",
    ("multidigraph", "records", True): "20e5062ca772654fea881c54ee4503f1bb72799482d1cfa2513ca2c1dd64faaf",
}


@pytest.mark.parametrize("name, fmt, include_full", sorted(PINNED_LISTING_CONTENTS))
def test_randomise_listing_contents_are_pinned(capsys, tmp_path, edges_file, name, fmt, include_full):
    design = _pinned_design(name, tmp_path, edges_file, capsys)
    argv = ["randomise", design, "--enumerate", "--shapes", "--lattice", "--format", fmt]
    code, out, err = run(capsys, argv + ["--include-full"] * include_full)
    assert (code, err) == (0, "")
    systems, shapes, edges = _listing_contents(out, fmt)
    canonical = repr((sorted(sorted(s) for s in systems), shapes, edges))
    digest = hashlib.sha256(canonical.encode()).hexdigest()
    assert digest == PINNED_LISTING_CONTENTS[name, fmt, include_full]


class _CountingSink(io.TextIOBase):
    """A stdout that counts the characters written to it and keeps none."""

    def __init__(self):
        super().__init__()
        self.count = 0

    def write(self, text):
        self.count += len(text)
        return len(text)


def test_records_memory_is_bounded_by_the_human_format(tmp_path, capsys):
    design = tmp_path / "a55.txt"
    assert cli.main(["catalog", "anova2", "--I", "5", "--J", "5", "-o", str(design)]) == 0
    capsys.readouterr()
    argv = ["randomise", str(design), "--enumerate", "--shapes", "--lattice", "--include-full"]

    def run_into_sink(fmt):
        sink = _CountingSink()
        with contextlib.redirect_stdout(sink):
            assert cli.main(argv + ["--format", fmt]) == 0
        return sink.count

    run_into_sink("human")  # memoises the design's model outside the measured runs
    peaks, counts = {}, {}
    for fmt in ("human", "records"):
        tracemalloc.start()
        try:
            counts[fmt] = run_into_sink(fmt)
            peaks[fmt] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    # the records text is about five times the human text
    assert counts["records"] > 4 * counts["human"] > 0
    assert peaks["records"] <= 2 * peaks["human"]


def _item_text(item) -> str:
    """An item of a top-level list, as json.dumps(indent=2) lays it out."""
    return "    " + json.dumps(item, indent=2, default=str).replace("\n", "\n    ")


_INTS_1 = st.lists(st.integers(), max_size=4)
_INTS_2 = st.lists(_INTS_1, max_size=3)
_INTS_3 = st.lists(_INTS_2, max_size=3)
_SCALARS = st.one_of(st.integers(), st.text(), st.fractions(), st.booleans())
_RECORD_VALUES = st.one_of(_SCALARS, _INTS_1, _INTS_2, _INTS_3, st.lists(_SCALARS, max_size=4))


@st.composite
def _streamed_records(draw):
    """Records, and the same records with some list values streamed as item texts."""
    records = draw(st.dictionaries(st.text(max_size=4), _RECORD_VALUES, max_size=5))
    streamed = {
        key: iter([_item_text(x) for x in value])
        if isinstance(value, list) and draw(st.booleans())
        else value
        for key, value in records.items()
    }
    return records, streamed


@settings(max_examples=300, deadline=None)
@given(_streamed_records())
@example(({}, {}))
@example(({"a": [], "b": []}, {"a": [], "b": iter([])}))
@example((
    {"a": [[[1]], []], "b": Fraction(-1, 2)},
    {"a": iter(["    [\n      [\n        1\n      ]\n    ]", "    []"]), "b": Fraction(-1, 2)},
))
def test_streamed_records_are_what_json_dumps_writes(case):
    records, streamed = case
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._emit(argparse.Namespace(format="records"), [], streamed)
    assert out.getvalue() == json.dumps(records, indent=2, default=str) + "\n"


def _counted_systems(monkeypatch) -> list:
    calls = []
    post_init = RandomisationSystem.__post_init__

    def counting(self):
        calls.append(None)
        post_init(self)

    monkeypatch.setattr(RandomisationSystem, "__post_init__", counting)
    return calls


def test_listing_builds_no_system(capsys, tmp_path, edges_file, monkeypatch):
    # printing reads supports and covers only; a library caller that reads
    # catalog.systems builds and validates each system once
    design = _pinned_design("2^4", tmp_path, edges_file, capsys)
    calls = _counted_systems(monkeypatch)
    code, out, _ = run(capsys, ["randomise", design, "--enumerate", "--shapes", "--lattice"])
    assert (code, out.splitlines()[0]) == (0, "systems=75")
    assert calls == []
    catalog = enumerate_circuit_randomisations(to_contrast_form(factorial_two_level(4)))
    assert calls == []
    first = catalog.systems
    assert len(calls) == len(first) == len(catalog) == 75
    assert catalog.systems is first
    assert len(calls) == 75


def _seeded_blockings(name: str, model) -> list[tuple[list[list[int]], int]]:
    """Seeded blockings of one design: ``(0-based blocks, number of block effects)``.

    Two valid systems drawn from the enumeration, two random partitions into
    blocks of two to five runs, and four malformed ones: overlapping blocks,
    a run index past n, a one-run block, and a valid system whose block
    effects hold a bad rational token (written when the number is 0).
    """
    n = model.n_runs
    rng = random.Random(f"check-and-analyse:{name}")
    catalog = enumerate_circuit_randomisations(model)
    # the systems in the order 0.5.0 listed them, so the draws stay put when
    # the listing order changes: blocks by (size, first run), systems sorted
    listed = sorted(sorted(s.blocks, key=lambda b: (len(b), b[0])) for s in catalog.systems)
    valid = [list(map(list, blocks)) for blocks in rng.sample(listed, 2)]
    out = [(blocks, len(blocks)) for blocks in valid]
    for _ in range(2):
        runs = rng.sample(range(n), n)
        sizes = []
        while sum(sizes) < n:
            sizes.append(min(rng.randint(2, 5), n - sum(sizes)))
        if sizes[-1] < 2:
            sizes[-2:] = [sizes[-2] + sizes[-1]]
        cuts = [sum(sizes[:i]) for i in range(len(sizes) + 1)]
        blocks = [sorted(runs[a:b]) for a, b in zip(cuts, cuts[1:])]
        out.append((blocks, len(blocks)))
    rest = list(range(4, n))
    out += [
        ([[0, 1, 2], [2, 3], rest], 3),  # overlapping blocks
        ([[0, n], rest], 2),  # run n + 1
        ([[0], list(range(1, n))], 2),  # one-run block
        (valid[0], 0),  # bad block-effect token
    ]
    return out

# exit codes, and the sha256 of stdout and stderr, of `randomise --check` and
# `analyse` over _seeded_blockings, by design, command and format
PINNED_CHECKS = {
    ('2^4', 'analyse', 'human'): (
        (0, 0, 0, 0, 4, 4, 4, 2),
        'd7b1c346b925165a6af09cc326573319779a1561564e575bae80ea3242375f70',
    ),
    ('2^4', 'analyse', 'records'): (
        (0, 0, 0, 0, 4, 4, 4, 2),
        '684a823de55f764d8d406dcfb235de8b4cbd4bd2a63a09cfd88f9db3b198b7ef',
    ),
    ('2^4', 'check', 'human'): (
        (0, 0, 4, 4, 4, 4, 4, 0),
        '85f60019c6a5706bc20a0704e8dc8a4824838fac7f4a09e8eb9b9fd47d70816d',
    ),
    ('2^4', 'check', 'records'): (
        (0, 0, 4, 4, 4, 4, 4, 0),
        'f2ddfe2c010b3feb5a54e0642bd4d7756fe2a9010d23e2013edf7060a71925ed',
    ),
    ('anova 4x4', 'analyse', 'human'): (
        (0, 0, 0, 0, 4, 4, 4, 2),
        '2fd019e01e8b4dd96aab62e8eec524ffa63fd9ea8bf416fb3f51b14a85e1b476',
    ),
    ('anova 4x4', 'analyse', 'records'): (
        (0, 0, 0, 0, 4, 4, 4, 2),
        'a7a9c01c6a8a9bca3580675e2cfb9999b92613df6dbeb8213956d5d07a0af1c7',
    ),
    ('anova 4x4', 'check', 'human'): (
        (0, 0, 4, 4, 4, 4, 4, 0),
        '996706d887163aa5a1f83bef9294347228192c0e74518c608bfea09441db76ad',
    ),
    ('anova 4x4', 'check', 'records'): (
        (0, 0, 4, 4, 4, 4, 4, 0),
        '6016e8c79fd361af84c006928014ca06d7172225f88d4acff45785a160928eb6',
    ),
    ('choice k=3', 'analyse', 'human'): (
        (0, 0, 0, 0, 4, 4, 4, 2),
        'eec580ace8a731eda50e6b259e3c4bb80422a567dbc3c249e4e07767d027c703',
    ),
    ('choice k=3', 'analyse', 'records'): (
        (0, 0, 0, 0, 4, 4, 4, 2),
        'f09d92fdb5dc3cd3d24ab02c4cb9a28090a337f6f141a280e65f9f8a5c6086df',
    ),
    ('choice k=3', 'check', 'human'): (
        (0, 0, 4, 4, 4, 4, 4, 0),
        'f29f8f9fc22d539b7fe91050d293db59eb38ceae63d5abbfac0d8c21662854e7',
    ),
    ('choice k=3', 'check', 'records'): (
        (0, 0, 4, 4, 4, 4, 4, 0),
        '07da38fef29d682a25a9dc0a00323c045fc1c2b85780532ab6db1577fc1fd32e',
    ),
}


@pytest.mark.parametrize("name, command, fmt", sorted(PINNED_CHECKS))
def test_check_and_analyse_are_pinned(capsys, tmp_path, edges_file, name, command, fmt):
    design = _pinned_design(name, tmp_path, edges_file, capsys)
    model = cli._read(design, cli._model_of_text)
    n = model.n_runs
    rng = random.Random(f"responses:{name}")
    codes, transcript = [], ""
    for k, (blocks, n_gamma) in enumerate(_seeded_blockings(name, model)):
        system, y, gamma = (tmp_path / f"{k}.{part}.txt" for part in ("system", "y", "gamma"))
        system.write_text("".join(" ".join(str(i + 1) for i in b) + "\n" for b in blocks))
        y.write_text("".join(f"{rng.randint(-9, 9)}/{rng.randint(1, 4)}\n" for _ in range(n)))
        effects = [f"{rng.randint(-5, 5)}/{rng.randint(1, 3)}" for _ in range(n_gamma)]
        gamma.write_text("\n".join(effects or ["1", "2/x"]) + "\n")
        if command == "check":
            argv = ["randomise", design, "--check", str(system)]
        else:
            argv = ["analyse", design, "--system", str(system), "--y", str(y), "--gamma", str(gamma)]
        code, out, err = run(capsys, argv + ["--format", fmt])
        codes.append(code)
        transcript += out + err.replace(str(tmp_path), "TMP")
    digest = hashlib.sha256(transcript.encode()).hexdigest()
    assert (tuple(codes), digest) == PINNED_CHECKS[name, command, fmt]


@pytest.mark.parametrize(
    "blocks, reason",
    [
        ("1\n2 3 4 5 6 7 8\n", "blocks need at least two runs"),
        ("1 1 2\n3 4 5 6 7 8\n", "repeated run inside a block"),
        ("1 2 3\n3 4 5 6 7 8\n", "blocks overlap"),
        ("1 9\n2 3 4 5 6 7 8\n", "run index beyond 8"),
        # read in file order: the run past n comes before the one-run block
        ("5 6 7 8 9\n1\n", "run index beyond 8"),
    ],
    ids=["one-run", "repeated", "overlap", "past-n", "file-order"],
)
def test_check_and_analyse_reject_bad_blocks_alike(capsys, tmp_path, design_file, blocks, reason):
    system, y, gamma = (tmp_path / f"{part}.txt" for part in ("system", "y", "gamma"))
    system.write_text(blocks)
    y.write_text("1\n" * 8)
    gamma.write_text("1\n2\n")
    check = run(capsys, ["randomise", design_file, "--check", str(system)])
    argv = ["analyse", design_file, "--system", str(system), "--y", str(y), "--gamma", str(gamma)]
    analyse = run(capsys, argv)
    assert check == analyse == (4, "", f"circuitrand: invalid system: {reason}\n")


@pytest.mark.parametrize("mode", [["--check", "BLOCKS"], ["--enumerate"]], ids=["check", "enumerate"])
def test_randomise_names_a_matrix_file_with_a_fractional_entry(capsys, tmp_path, mode):
    design = tmp_path / "design.txt"
    design.write_text("2 2\n1 1\n1 1.5\n")
    blocks = tmp_path / "blocks.txt"
    blocks.write_text("1 2\n")
    argv = ["randomise", str(design), *(str(blocks) if a == "BLOCKS" else a for a in mode)]
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert err == (
        f"circuitrand: {design}: matrix entries must be integers: "
        "invalid literal for int() with base 10: '1.5'\n"
    )


def test_tu_verdicts(capsys, contrast_file, tmp_path):
    code, out, _ = run(capsys, ["tu", contrast_file])
    assert (code, out.strip()) == (0, "totally unimodular: no")
    p = tmp_path / "eye.txt"
    p.write_text("2 2\n1 0\n0 1\n")
    code, out, _ = run(capsys, ["tu", str(p)])
    assert (code, out.strip()) == (0, "totally unimodular: yes")


def test_closed_stdout_exits_quietly(tmp_path, capsys):
    design = tmp_path / "f4.txt"
    assert cli.main(["catalog", "factorial", "--k", "4", "-o", str(design)]) == 0
    capsys.readouterr()
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the command writes
    try:
        done = subprocess.run(
            [sys.executable, "-m", "circuitrand.cli", "randomise", str(design), "--enumerate"],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, check=False,
        )
    finally:
        os.close(write_end)
    assert done.returncode == 1
    assert "Traceback" not in done.stderr
    assert "Exception ignored" not in done.stderr
    assert done.stderr == ""


def test_closed_stdout_of_a_short_report_exits_quietly():
    # the report fits the buffer, so the write fails only at main's flush
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "circuitrand.cli", "catalog", "factorial", "--k", "3"],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, check=False,
        )
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (1, "")


def test_a_value_error_other_than_the_digit_limit_propagates(contrast_file, monkeypatch):
    def refuse(matrix, size_cap):
        raise ValueError("not a digit limit")

    monkeypatch.setattr(cli, "is_totally_unimodular", refuse)
    with pytest.raises(ValueError, match="^not a digit limit$"):
        cli.main(["tu", contrast_file])


def test_tu_budget(capsys, contrast_file):
    code, out, err = run(capsys, ["tu", contrast_file, "--cap", "3"])
    assert code == 5
    assert "budget" in err


@pytest.mark.parametrize("cap", ["-1", "-1000"])
def test_tu_negative_cap_is_a_parameter_error(capsys, contrast_file, cap):
    code, out, err = run(capsys, ["tu", contrast_file, "--cap", cap])
    assert (code, out) == (2, "")
    assert "--cap must be at least 0" in err
    # a zero cap is a budget that any nonempty matrix exceeds
    code, _, err = run(capsys, ["tu", contrast_file, "--cap", "0"])
    assert code == 5
    assert "budget is 0" in err


def test_analyse_report(capsys, design_file, tmp_path):
    blocks = tmp_path / "b.txt"
    blocks.write_text("1 2 3 4\n")
    y = tmp_path / "y.txt"
    y.write_text("".join(f"{i}\n" for i in range(1, 9)))
    gamma = tmp_path / "g.txt"
    gamma.write_text("1\n")
    code, out, _ = run(capsys, [
        "analyse", design_file, "--system", str(blocks), "--y", str(y), "--gamma", str(gamma),
    ])
    assert code == 0
    lines = dict(line.split(": ", 1) for line in out.strip().splitlines())
    assert lines["estimates"] == "(-2, -1, -1/2)"
    assert lines["bias"] == "(1/2, 0, 0)"
    assert lines["invariance"] == "violated"
    assert lines["covariance"] == "proper_dominates"


@pytest.mark.parametrize("token", ["1e5000", "1e-5000"])
def test_analyse_rejects_a_huge_exponent(capsys, design_file, tmp_path, token):
    blocks = tmp_path / "b.txt"
    blocks.write_text("1 8\n2 7\n3 6\n4 5\n")
    y = tmp_path / "y.txt"
    y.write_text(token + "\n" + "".join(f"{i}\n" for i in range(2, 9)))
    gamma = tmp_path / "g.txt"
    gamma.write_text("1\n")
    code, out, err = run(capsys, [
        "analyse", design_file, "--system", str(blocks), "--y", str(y), "--gamma", str(gamma),
    ])
    assert code == 2
    assert "cannot parse rational number" in err


def test_analyse_names_the_file_with_a_bad_token(capsys, design_file, tmp_path):
    blocks = tmp_path / "b.txt"
    blocks.write_text("1 8\n2 7\n3 6\n4 5\n")
    y = tmp_path / "y.txt"
    y.write_text("".join(f"{i}\n" for i in range(1, 9)))
    gamma = tmp_path / "g.txt"
    gamma.write_text("1\n2\nx\n4\n")
    code, out, err = run(capsys, [
        "analyse", design_file, "--system", str(blocks), "--y", str(y), "--gamma", str(gamma),
    ])
    assert (code, out) == (2, "")
    assert err == f"circuitrand: {gamma}: cannot parse rational number 'x'\n"


@pytest.mark.parametrize("flag", ["--y", "--gamma"])
@pytest.mark.parametrize("token", ["1_000", "1/1_0", "1e1_0"])
def test_analyse_refuses_an_underscore_on_every_python(capsys, tmp_path, flag, token):
    # Fraction reads these tokens from Python 3.11 on and refuses them on 3.10
    design = tmp_path / "f2.txt"
    assert cli.main(["catalog", "factorial", "--k", "2", "-o", str(design)]) == 0
    capsys.readouterr()
    files = {"--system": "1 4\n2 3\n", "--y": "1 2 3 4\n", "--gamma": "1 2\n"}
    files[flag] = files[flag].replace("1", token, 1)
    argv = ["analyse", str(design)]
    for name, text in files.items():
        path = tmp_path / f"{name[2:]}.txt"
        path.write_text(text)
        argv += [name, str(path)]
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    bad = tmp_path / f"{flag[2:]}.txt"
    assert err == f"circuitrand: {bad}: cannot parse rational number {token!r}\n"


def test_analyse_valid_system_is_invariant(capsys, design_file, tmp_path):
    blocks = tmp_path / "b.txt"
    blocks.write_text("1 8\n2 7\n3 6\n4 5\n")
    y = tmp_path / "y.txt"
    y.write_text("".join(f"{i}\n" for i in range(1, 9)))
    gamma = tmp_path / "g.txt"
    gamma.write_text("1\n-2\n1/3\n4\n")
    code, out, _ = run(capsys, [
        "analyse", design_file, "--system", str(blocks), "--y", str(y), "--gamma", str(gamma),
    ])
    assert code == 0
    assert "invariance: exact" in out
    assert "bias: (0, 0, 0)" in out
    assert "covariance: equal" in out


def test_analyse_records_match_human(capsys, design_file, tmp_path):
    blocks = tmp_path / "b.txt"
    blocks.write_text("1 2 3 4\n")
    y = tmp_path / "y.txt"
    y.write_text("".join(f"{i}\n" for i in range(1, 9)))
    gamma = tmp_path / "g.txt"
    gamma.write_text("1\n")
    argv = ["analyse", design_file, "--system", str(blocks), "--y", str(y), "--gamma", str(gamma)]
    _, human, _ = run(capsys, argv)
    _, machine, _ = run(capsys, argv + ["--format", "records"])
    data = json.loads(machine)
    assert data["estimates"] == ["-2", "-1", "-1/2"]
    assert data["bias"] == ["1/2", "0", "0"]
    assert data["invariance"] == "violated"
    assert "(-2, -1, -1/2)" in human


@pytest.mark.parametrize(
    "blocks, y_count, gamma_count, code, message",
    [
        ("1 8\n2 7\n3 6\n4 5\n", 3, 4, 2, "need 8 responses, got 3"),
        ("1 8\n2 7\n3 6\n4 5\n", 8, 2, 2, "need 4 block effects, got 2"),
        ("1 1 8\n", 8, 1, 4, "invalid system: repeated run inside a block"),
        # the blocks are checked before the responses and effects are read
        ("1 2 3\n3 4\n", 2, 2, 4, "invalid system: blocks overlap"),
        ("1\n2 3 4 5 6 7 8\n", 2, None, 4, "invalid system: blocks need at least two runs"),
    ],
    ids=["responses", "block-effects", "repeated-run", "overlap-first", "one-run-before-no-gamma"],
)
def test_analyse_rejects_mismatched_inputs(
    capsys, design_file, tmp_path, blocks, y_count, gamma_count, code, message
):
    system = tmp_path / "b.txt"
    system.write_text(blocks)
    y = tmp_path / "y.txt"
    y.write_text("".join(f"{i}\n" for i in range(1, y_count + 1)))
    gamma = tmp_path / "g.txt"
    if gamma_count is not None:
        gamma.write_text("".join(f"{i}\n" for i in range(1, gamma_count + 1)))
    result = run(capsys, [
        "analyse", design_file, "--system", str(system), "--y", str(y), "--gamma", str(gamma),
    ])
    assert result == (code, "", f"circuitrand: {message}\n")


CLOSED_FORM_DESIGNS = {
    "2^4": factorial_two_level(4),
    "anova 3x3": anova_two_way(3, 3),
    "choice k=3": choice_k_of_2k(3),
}


@functools.lru_cache(maxsize=None)
def _catalog_systems(name):
    model = to_contrast_form(CLOSED_FORM_DESIGNS[name])
    return enumerate_circuit_randomisations(model).systems


@st.composite
def _closed_form_cases(draw):
    """A catalog design and a partition of its runs into blocks of two or more.

    A third of the partitions are drawn at random.  The rest merge the
    blocks of one of the design's circuit-based systems, which keeps them
    valid, and half of those then swap a run between two blocks, which
    leaves the other blocks valid.  The blocks are listed in a drawn order.
    """
    name = draw(st.sampled_from(sorted(CLOSED_FORM_DESIGNS)))
    n = CLOSED_FORM_DESIGNS[name].matrix.n_rows
    if draw(st.integers(0, 2)) == 0:
        units, min_size = [[i] for i in draw(st.permutations(range(n)))], 2
    else:
        units, min_size = list(draw(st.sampled_from(_catalog_systems(name))).blocks), 1
    blocks = []
    while units:
        size = draw(st.integers(min_size, len(units)))
        if len(units) - size < min_size:
            size = len(units)
        blocks.append(sorted(i for unit in units[:size] for i in unit))
        units = units[size:]
    if min_size == 1 and len(blocks) > 1 and draw(st.booleans()):
        k, m = draw(st.permutations(range(len(blocks))))[:2]
        blocks[k][0], blocks[m][0] = blocks[m][0], blocks[k][0]
    return name, draw(st.permutations(blocks))


@settings(max_examples=100, deadline=None)
@given(_closed_form_cases())
def test_analyse_covariance_is_equal_exactly_when_the_check_passes(case):
    name, blocks = case
    n = CLOSED_FORM_DESIGNS[name].matrix.n_rows
    files = {
        "design": cli.format_matrix_text(CLOSED_FORM_DESIGNS[name].matrix),
        "blocks": "".join(" ".join(str(i + 1) for i in b) + "\n" for b in blocks),
        "y": "".join(f"{i}/3\n" for i in range(n)),
        "gamma": "".join(f"{k}\n" for k in range(len(blocks))),
    }
    with tempfile.TemporaryDirectory() as d:
        path = {key: os.path.join(d, key) for key in files}
        for key, text in files.items():
            Path(path[key]).write_text(text)
        results = []
        for argv in (
            ["randomise", path["design"], "--check", path["blocks"]],
            ["analyse", path["design"], "--system", path["blocks"],
             "--y", path["y"], "--gamma", path["gamma"]],
        ):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                results.append((cli.main(argv), out.getvalue()))
    (check_code, _), (analyse_code, report) = results
    assert check_code in (0, 4) and analyse_code == 0
    assert ("covariance: equal\n" in report) == (check_code == 0)


NINES = "9" * 3000
# a design whose block {1, 2} has an inner product A + B of 4,301 digits
A_4300 = "9" * 4300
B_4300 = "9" * 4299 + "8"
BIG_PRODUCT_DESIGN = f"4 2\n1 {A_4300}\n1 {B_4300}\n1 -{A_4300}\n1 -{B_4300}\n"


@pytest.mark.parametrize("fmt", ["human", "records"])
@pytest.mark.parametrize("command", ["analyse", "circuits", "check"])
def test_a_result_over_the_digit_limit_is_a_budget_error(capsys, tmp_path, command, fmt):
    # exact results can outgrow the digits Python prints an int with
    if command == "check":
        (tmp_path / "m.txt").write_text(BIG_PRODUCT_DESIGN)
        (tmp_path / "b.txt").write_text("1 2\n3 4\n")
        argv = ["randomise", str(tmp_path / "m.txt"), "--check", str(tmp_path / "b.txt")]
    elif command == "analyse":
        design = tmp_path / "d.txt"
        assert cli.main(["catalog", "factorial", "--k", "2", "-o", str(design)]) == 0
        (tmp_path / "b.txt").write_text("1 4\n2 3\n")
        (tmp_path / "y.txt").write_text("1e4300\n1e4300\n-1e4300\n-1e4300\n")
        (tmp_path / "g.txt").write_text("0\n0\n")
        argv = [
            "analyse", str(design), "--system", str(tmp_path / "b.txt"),
            "--y", str(tmp_path / "y.txt"), "--gamma", str(tmp_path / "g.txt"),
        ]
    else:
        matrix = tmp_path / "m.txt"
        matrix.write_text(f"2 3\n{NINES} 1 0\n0 {NINES} 1\n")
        argv = ["circuits", str(matrix)]
    code, out, err = run(capsys, argv + ["--format", fmt])
    assert (code, out) == (5, "")
    assert err == (
        "circuitrand: budget exceeded: a result has more than 4300 digits, "
        "Python's limit for printing an integer\n"
    )
    assert "Traceback" not in err


@pytest.mark.parametrize("fmt", ["human", "records"])
def test_circuits_over_the_digit_limit_keeps_the_listed_circuits(capsys, tmp_path, fmt):
    # the zero column's unit circuit sorts first and prints; the second fails
    matrix = tmp_path / "m.txt"
    matrix.write_text(f"2 4\n{NINES} 1 0 0\n0 {NINES} 1 0\n")
    code, out, err = run(capsys, ["circuits", str(matrix), "--format", fmt])
    first = (
        "0 0 0 1\n"
        if fmt == "human"
        else '{\n  "circuits": 2,\n  "vectors": [\n    [\n      0,\n      0,\n      0,\n      1\n    ]'
    )
    assert (code, out) == (5, first)
    assert err == (
        "circuitrand: budget exceeded: a result has more than 4300 digits, "
        "Python's limit for printing an integer\n"
    )


# tokens that a parser must reject, or accept at the edge of the digit limit
_ODD_TOKENS = st.sampled_from(
    ["-0", "007", "1/2", "1.5", "2e3", "1e4300", "1e99999", "1/0", "nan", "x", "\u0663",
     A_4300, "9" * 4301]
)
_FLOATS = st.sampled_from(["0", "1.5", "-2", "nan", "inf", "1e308", "-1e308", "x"])
# True nine times in ten; hypothesis draws the ends of an integer range more often
_USUALLY = st.sampled_from([True] * 9 + [False])


@st.composite
def _tokens(draw, count, low=-2, high=2):
    """``count`` small integer tokens, one of them odd now and then."""
    tokens = draw(st.lists(st.integers(low, high).map(str), min_size=count, max_size=count))
    if tokens and not draw(_USUALLY):
        tokens[draw(st.integers(0, count - 1))] = draw(_ODD_TOKENS)
    return tokens


@st.composite
def _matrix_texts(draw, m, n):
    """An ``m x n`` matrix file, with a bad header or entry count now and then."""
    header = draw(st.sampled_from([f"{m} {n}"] * 6 + [f"{m}", f"{m} -{n}", "a b"]))
    tokens = draw(_tokens(max(m * n + draw(st.sampled_from([0] * 6 + [1, -1])), 0)))
    if n and draw(_USUALLY):
        # an intercept column, so that more designs reach the contrast form
        tokens[::n] = ["1"] * len(tokens[::n])
    rows = [" ".join(tokens[i : i + n]) for i in range(0, len(tokens), n or 1)]
    return "\n".join(["# drawn", header, *rows]) + "\n"


@st.composite
def _blocks_texts(draw, m):
    """A partition of runs 1..m into lines, or of some other range, or junk."""
    runs = list(range(1, draw(st.sampled_from([m, m, m, m + 1, 2])) + 1))
    runs = draw(st.permutations(runs))
    cuts = sorted(draw(st.sets(st.integers(1, max(len(runs) - 1, 1)), max_size=2)))
    lines = [" ".join(map(str, runs[i:j])) for i, j in zip([0, *cuts], [*cuts, len(runs)])]
    if not draw(_USUALLY):
        lines.append(" ".join(draw(_tokens(draw(st.integers(1, 3)), 0, 5))))
    return "".join(line + "\n" for line in lines)


@st.composite
def _vector_texts(draw, size):
    """``size`` rationals, one more or fewer now and then."""
    size = max(size + draw(st.sampled_from([0] * 6 + [1, -1])), 0)
    return "".join(t + "\n" for t in draw(_tokens(size, -5, 5)))


@st.composite
def _cli_cases(draw):
    """An argv for one subcommand and the files it names.

    An argument ``@name`` stands for the file ``name`` of the returned dict,
    or for a path where no file exists when the dict has no such name.
    """
    command = draw(st.sampled_from(["catalog", "circuits", "randomise", "tu", "analyse"]))
    m, n = draw(st.integers(0, 4)), draw(st.integers(0, 6))
    files: dict[str, str] = {}
    argv = [command]

    def flags(*names):
        return [name for name in names if draw(st.booleans())]

    def options(*pairs):
        return [f"{opt}={draw(values)}" for opt, values in pairs if draw(_USUALLY)]

    def file(name, strategy):
        if draw(_USUALLY):
            files[name] = draw(strategy)
        return "@" + name

    if command == "catalog":
        family = draw(st.sampled_from(["factorial", "anova2", "choice", "digraph"]))
        argv.append(family)
        if family == "digraph":
            pairs = st.lists(st.integers(0, 5).map(str), min_size=1, max_size=3).map(" ".join)
            edges = st.lists(pairs, max_size=8).map(lambda ls: "".join(x + "\n" for x in ls))
            argv += ["--edges", file("e", edges)]
        small = st.integers(-1, 3)
        argv += options(("--k", small), ("--I", small), ("--J", small))
        if draw(st.booleans()):
            argv += ["-o", "@out"]
    elif command == "circuits":
        argv.append(file("m", _matrix_texts(m, n)))
        argv += flags("--nonnegative", "--binary", "--transpose")
    elif command == "randomise":
        argv.append(file("m", _matrix_texts(m, n)))
        mode = draw(st.sampled_from(["--enumerate", "--check"] * 4 + ["both", "neither"]))
        if mode in ("--enumerate", "both"):
            argv.append("--enumerate")
        if mode in ("--check", "both"):
            argv += ["--check", file("b", _blocks_texts(m))]
        argv += flags("--shapes", "--lattice", "--include-full")
    elif command == "tu":
        argv += [file("m", _matrix_texts(m, n)), *options(("--cap", st.integers(-1, 300)))]
    elif draw(st.booleans()):
        argv += ["--simulate", f"--replications={draw(st.integers(-1, 50))}"]
        argv += options(
            ("--n1", st.integers(-1, 5)),
            ("--n2", st.integers(-1, 5)),
            ("--theta1", _FLOATS),
            ("--theta2", _FLOATS),
            ("--sd", _FLOATS),
            ("--seed", st.integers(-2, 99)),
        )
    else:
        if draw(_USUALLY):
            argv.append(file("m", _matrix_texts(m, n)))
        blocks = draw(_blocks_texts(m))
        for opt, name, strategy in (
            ("--system", "s", st.just(blocks)),
            ("--y", "y", _vector_texts(m)),
            ("--gamma", "g", _vector_texts(blocks.count("\n"))),
        ):
            if draw(_USUALLY):
                argv += [opt, file(name, strategy)]
    if draw(st.booleans()):
        argv += ["--format", draw(st.sampled_from(["human", "records"]))]
    return argv, files


@settings(max_examples=200, deadline=None)
@given(_cli_cases())
@example((["randomise", "@m", "--check", "@b"], {"m": BIG_PRODUCT_DESIGN, "b": "1 2\n3 4\n"}))
def test_no_drawn_input_ends_in_a_traceback(case):
    argv, files = case
    with tempfile.TemporaryDirectory() as d:
        for name, text in files.items():
            Path(d, name).write_text(text)
        argv = [os.path.join(d, a[1:]) if a.startswith("@") else a for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                # argparse rejects the command line itself with status 2
                assert exc.code == 2
                code = 2
    assert code in (0, 2, 3, 4, 5)
    assert "Traceback" not in err.getvalue()


def test_analyse_simulate(capsys):
    code, out, _ = run(capsys, [
        "analyse", "--simulate", "--n1", "4", "--n2", "4", "--theta1", "2.5",
        "--theta2", "1.0", "--sd", "0", "--replications", "25", "--seed", "7",
    ])
    assert code == 0
    assert "mean=1.5" in out
    assert "se=0.0" in out
    assert "seed=7" in out


# sha256 of stdout of `analyse --simulate`, by argument set and format
PINNED_SIMULATIONS = {
    ("criterion 10", "human"): "2d1d22da4f5a5ae494d944af783a34d0e8a1f918ef7223aa2e676e409fd26842",
    ("criterion 10", "records"): "813081e08e91a6d4b782b1786a5dfad3c1272bb13fd9d88fad50f51cbab141b0",
    ("one replication", "human"): "2bc84d82be0ed4493ae210d21a2effac8451a374fc8a88b50157f84cb6412659",
    ("one replication", "records"): "8be4991b99dea79017f687049c501f400c8d740a8f44161ba48723e5c4d95290",
    ("unequal groups", "human"): "eb0ce4d76a58dde35f45de255722b74c2a0ea95567d4c66c1eeaf333554a3999",
    ("unequal groups", "records"): "b814c391d74cbb82158e54ac3936ccd078dcb9f1ba88e8cc7a89dbe84897a62f",
}
SIMULATION_ARGS = {
    "criterion 10": "--n1 4 --n2 4 --sd 1 --replications 100 --seed 42",
    # a negative zero, a subnormal-scale mean and se=nan (NaN in records)
    "one replication": "--n1 3 --n2 5 --theta1 -0.0 --theta2 1e-300 --sd 2.5 --replications 1",
    "unequal groups": (
        "--n1 2 --n2 7 --theta1 2.5 --theta2 1.0 --sd 0.5 --replications 30 --seed 3"
    ),
}


@pytest.mark.parametrize("name, fmt", sorted(PINNED_SIMULATIONS))
def test_analyse_simulate_is_pinned(capsys, name, fmt):
    argv = ["analyse", "--simulate", *SIMULATION_ARGS[name].split(), "--format", fmt]
    code, out, err = run(capsys, argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_SIMULATIONS[name, fmt]


def test_a_negative_exponent_needs_the_equals_form(capsys):
    """argparse reads a separate ``-1e-3`` as an option, not as the value."""
    argv = ["analyse", "--simulate", "--n1", "2", "--n2", "2", "--replications", "3"]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--theta2", "-1e-3"])
    assert exc.value.code == 2
    assert "argument --theta2: expected one argument" in capsys.readouterr().err
    code, out, err = run(capsys, argv + ["--theta2=-1e-3"])
    assert (code, err) == (0, "")
    assert "theta2=-0.001" in out


def test_analyse_needs_inputs(capsys):
    code, out, err = run(capsys, ["analyse"])
    assert code == 2


@pytest.mark.parametrize(
    "extra",
    [
        ["--sd", "nan"],
        ["--theta1", "nan"],
        ["--theta2", "inf"],
        ["--theta1=1e308", "--theta2=-1e308"],
        ["--sd", "1e308"],
    ],
    ids=["sd-nan", "theta1-nan", "theta2-inf", "effect-overflow", "sd-overflow"],
)
def test_analyse_simulate_rejects_non_finite_floats(capsys, extra):
    code, out, err = run(capsys, ["analyse", "--simulate", "--n1", "3", "--n2", "3", *extra])
    assert (code, out) == (2, "")
    assert err.startswith("circuitrand: ") and "Traceback" not in err
    assert "finite" in err or "overflow" in err


def test_repeated_main_calls_match_fresh_processes(capsys, design_file, tmp_path, contrast_file):
    """The parser built once per process carries no option state between calls."""
    valid = tmp_path / "valid.txt"
    valid.write_text("1 8\n2 7\n3 6\n4 5\n")
    invalid = tmp_path / "invalid.txt"
    invalid.write_text("1 2 3 4\n5 6 7 8\n")
    y = tmp_path / "y.txt"
    y.write_text("".join(f"{i}/3\n" for i in range(1, 9)))
    gamma = tmp_path / "g.txt"
    gamma.write_text("1\n-1/2\n")
    analyse = ["analyse", design_file, "--system", str(invalid), "--y", str(y), "--gamma", str(gamma)]
    commands = [
        analyse + ["--format", "records"],
        analyse,
        ["randomise", design_file, "--check", str(valid)],
        ["randomise", design_file, "--check", str(invalid)],
        ["randomise", design_file, "--check", str(valid), "--enumerate"],
        ["tu", contrast_file],
        ["circuits", contrast_file, "--binary"],
    ]
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    codes = []
    for argv in commands:
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        in_process = (code, capsys.readouterr().out)
        fresh = subprocess.run(
            [sys.executable, "-m", "circuitrand.cli", *argv],
            capture_output=True, text=True, env=env, check=False,
        )
        assert in_process == (fresh.returncode, fresh.stdout), argv
        codes.append(code)
    assert codes == [0, 0, 0, 4, 2, 0, 0]


def _write(path: Path, text: str) -> str:
    path.write_text(text)
    return str(path)


def test_a_rewritten_design_file_is_read_afresh(capsys, tmp_path):
    # two runs of four per block: valid against (1, -1, 1, -1), not against (1, 1, -1, -1)
    blocks = _write(tmp_path / "blocks.txt", "1 2\n3 4\n")
    design = tmp_path / "design.txt"
    _write(design, "4 2\n1 1\n1 -1\n1 1\n1 -1\n")
    assert run(capsys, ["randomise", str(design), "--check", blocks]) == (0, "valid\n", "")
    _write(design, "4 2\n1 1\n1 1\n1 -1\n1 -1\n")
    assert run(capsys, ["randomise", str(design), "--check", blocks]) == (
        4,
        "",
        "circuitrand: invalid system: block {1,2} has inner product 2 "
        "with contrast column 1\n",
    )


@pytest.mark.parametrize(
    "text, code, message",
    [
        ("3 1\n1\n0\n0\n", 3, "the all-ones vector is not in the column space"),
        ("2 2\n1 1\n1\n", 2, "expected 4 entries for a 2x2 matrix, got 3"),
    ],
    ids=["no-intercept", "malformed"],
)
def test_a_failing_design_fails_alike_on_every_call(capsys, tmp_path, text, code, message):
    design = _write(tmp_path / "design.txt", text)
    blocks = _write(tmp_path / "blocks.txt", "1 2\n")
    expected = (code, "", f"circuitrand: {design}: {message}\n")
    for _ in range(2):
        assert run(capsys, ["randomise", design, "--check", blocks]) == expected


def _fold_over_request(tmp_path: Path, k: int) -> tuple[list[str], list[str]]:
    """A ``randomise --check`` and an ``analyse`` of 2^k blocked into fold-over pairs."""
    n = 2**k
    design = str(tmp_path / "design.txt")
    assert cli.main(["catalog", "factorial", "--k", str(k), "-o", design]) == 0
    # run i and its fold-over n - 1 - i have opposite signs on every factor
    system = _write(tmp_path / "system.txt", "".join(f"{i + 1} {n - i}\n" for i in range(n // 2)))
    y = _write(tmp_path / "y.txt", "".join(f"{i}/3\n" for i in range(n)))
    gamma = _write(tmp_path / "gamma.txt", "".join(f"{i}/2\n" for i in range(n // 2)))
    check = ["randomise", design, "--check", system]
    analyse = ["analyse", design, "--system", system, "--y", y, "--gamma", gamma]
    return check, analyse


def test_one_design_is_reduced_once_per_process(capsys, tmp_path, monkeypatch):
    check, analyse = _fold_over_request(tmp_path, 3)
    calls = []
    inner = cli.to_contrast_form

    def counted(design):
        calls.append(1)
        return inner(design)

    monkeypatch.setattr(cli, "to_contrast_form", counted)
    for _ in range(7):
        assert run(capsys, check)[0] == 0
        assert run(capsys, analyse)[0] == 0
    assert len(calls) == 1


@pytest.mark.parametrize("fmt", ["human", "records"])
def test_a_memo_hit_prints_what_a_miss_prints(capsys, tmp_path, fmt):
    check, analyse = _fold_over_request(tmp_path, 3)
    enumerate_ = ["randomise", check[1], "--enumerate", "--shapes", "--lattice"]
    for argv in (check, analyse, enumerate_):
        argv = argv + ["--format", fmt]
        cli._model_of_text.cache_clear()
        miss = run(capsys, argv)
        assert cli._model_of_text.cache_info().misses == 1
        hit = run(capsys, argv)
        assert cli._model_of_text.cache_info().hits == 1
        assert hit == miss and miss[0] == 0


@pytest.mark.parametrize("fmt", ["human", "records"])
def test_crlf_files_read_as_lf_files(capsys, tmp_path, fmt):
    check, analyse = _fold_over_request(tmp_path, 3)
    requests = [check + ["--format", fmt], analyse + ["--format", fmt]]
    lf = [run(capsys, argv) for argv in requests]
    for name in (analyse[1], *analyse[3::2]):
        path = Path(name)
        path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    assert [run(capsys, argv) for argv in requests] == lf
    assert [code for code, _, _ in lf] == [0, 0]


def test_a_non_ascii_comment_is_skipped(capsys, tmp_path):
    check, _ = _fold_over_request(tmp_path, 3)
    design = Path(check[1])
    design.write_bytes("# café\n".encode() + design.read_bytes())
    assert run(capsys, check) == (0, "valid\n", "")


@pytest.mark.parametrize("index", [1, 3, 5, 7], ids=["design", "system", "y", "gamma"])
def test_a_file_that_is_not_utf8_is_a_parameter_error(capsys, tmp_path, index):
    _, analyse = _fold_over_request(tmp_path, 3)
    bad = analyse[index]
    Path(bad).write_bytes(b"1 \xff\n")
    code, out, err = run(capsys, analyse)
    assert (code, out) == (2, "")
    assert err.startswith(f"circuitrand: {bad}: 'utf-8' codec can't decode")
    assert "Traceback" not in err


def _parsed(parse, argv):
    """The namespace ``parse(argv)`` returns, or its exit code, with what it
    printed; values are compared by ``repr``, so a parsed NaN equals itself."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = {key: repr(value) for key, value in vars(parse(argv)).items()}
        except SystemExit as exc:
            result = ("exit", exc.code)
    return result, out.getvalue(), err.getvalue()


@st.composite
def _parser_argvs(draw):
    """An argv of :func:`_cli_cases`, sometimes spliced with an argument that
    fails or asks for help, or with its subcommand dropped."""
    argv, _ = draw(_cli_cases())
    if draw(st.booleans()):
        extra = draw(st.sampled_from([["--bogus"], ["-h"], ["--format=nope"], ["--cap", "x"]]))
        at = draw(st.integers(0, len(argv)))
        argv[at:at] = extra
    if draw(st.integers(0, 9)) == 0:
        del argv[0]
    return argv


@given(_parser_argvs())
@example(["randomise", "x", "--bogus", "-h"])
@example(["tu", "x", "--", "y"])
@example([])
def test_the_subcommand_route_parses_as_the_full_parser(argv):
    assert _parsed(cli._parse, argv) == _parsed(cli.build_parser().parse_args, argv)


def test_a_request_builds_only_its_subcommand_parser(capsys, tmp_path):
    check, _ = _fold_over_request(tmp_path, 3)
    cli.build_parser.cache_clear()
    assert run(capsys, check) == (0, "valid\n", "")
    assert cli.build_parser.cache_info().currsize == 1
    cli.build_parser("randomise")
    assert cli.build_parser.cache_info().hits == 1
    usage = "usage: circuitrand [-h] {catalog,circuits,randomise,tu,analyse} ...\n"
    for argv, code, stream in (([], 2, "err"), (["-h"], 0, "out")):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == code
        assert getattr(capsys.readouterr(), stream).startswith(usage)


def test_each_cli_decision_is_made_in_one_place():
    tree = ast.parse(Path(cli.__file__).read_text(), cli.__file__)
    format_readers = {
        function.name
        for function in ast.walk(tree)
        if isinstance(function, ast.FunctionDef)
        for node in ast.walk(function)
        if isinstance(node, ast.Attribute)
        and node.attr == "format"
        and isinstance(node.value, ast.Name)
        and node.value.id == "args"
    }
    assert format_readers == {"_emit"}
    # commands are dispatched from _SUBCOMMANDS, not through parser defaults
    assert not any(
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "set_defaults"
        for node in ast.walk(tree)
    )
    # analyse checks a blocking through covariance_comparison
    imported = {
        alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names
    }
    assert "_check_blocks" not in imported
    assert not hasattr(cli, "_check_blocks")
