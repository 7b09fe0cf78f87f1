"""Command-line front end.

Subcommands: ``catalog`` (design generators), ``circuits`` (circuit bases),
``randomise`` (enumerate or check randomisation systems), ``tu`` (total
unimodularity) and ``analyse`` (exact estimates and diagnostics, or a Monte
Carlo A/B demonstration).

Matrices travel in the 4ti2 plain-text convention, a ``m n`` header line
followed by m rows of n integers, so circuit listings diff cleanly against
the output of 4ti2's ``circuits`` program.  Lines starting with ``#`` and
blank lines are ignored on input.  Run indices are 1-based in every file
and report (matching the usual block notation), 0-based inside the library.

Exit codes: 0 success, 2 unparseable input or invalid parameters, 3 model
precondition violated, 4 invalid randomisation system, 5 budget exceeded.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction
from itertools import chain
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

from .analysis_sim import (
    covariance_comparison,
    lse_contrast_estimates,
    naive_block_bias,
    simulate_ab,
)
from .circuits import binary_circuits, circuit_basis, nonnegative_circuits
from .contrast import (
    ContrastModel,
    DesignModel,
    JNotInColumnSpaceError,
    to_contrast_form,
)
from .design_catalog import (
    MAX_RUNS,
    NotBalancedError,
    anova_two_way,
    choice_k_of_2k,
    digraph_design,
    factorial_two_level,
)
from .exact_linalg import IntMatrix, _trusted_matrix
from .randomisation import (
    RandomisationSystem,
    SchemeCatalog,
    _block_violation,
    enumerate_circuit_randomisations,
)
from .unimodular import (
    DEFAULT_SIZE_CAP,
    DirectedGraph,
    TooLargeError,
    is_totally_unimodular,
)

EXIT_OK = 0
EXIT_PARAMS = 2
EXIT_PRECONDITION = 3
EXIT_INVALID_SYSTEM = 4
EXIT_BUDGET = 5
# the digit limit Python applies when it reads an integer from text
_MAX_EXPONENT = 4300
_T = TypeVar("_T")


class CliError(Exception):
    """Carries an exit code and a diagnostic for the error path."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _strip_comments(text: str) -> list[str]:
    return [
        line
        for line in text.splitlines()
        if line.strip() and not line.lstrip().startswith("#")
    ]


def parse_matrix_text(text: str) -> IntMatrix:
    """Parse the ``m n`` header plus entries format; comments are skipped."""
    lines = _strip_comments(text)
    if not lines:
        raise ValueError("empty matrix file")
    header = lines[0].split()
    if len(header) != 2:
        raise ValueError(f"matrix header must be 'm n', got {lines[0]!r}")
    try:
        n_rows, n_cols = int(header[0]), int(header[1])
    except ValueError:
        raise ValueError(f"matrix header must be 'm n', got {lines[0]!r}") from None
    if n_rows < 0 or n_cols < 0:
        raise ValueError("matrix dimensions cannot be negative")
    # with no entries to read, nothing else bounds the shape
    if max(n_rows, n_cols) > MAX_RUNS:
        raise ValueError(f"matrix dimensions exceed the budget of {MAX_RUNS}")
    tokens = [tok for line in lines[1:] for tok in line.split()]
    if len(tokens) != n_rows * n_cols:
        raise ValueError(
            f"expected {n_rows * n_cols} entries for a {n_rows}x{n_cols} matrix, got {len(tokens)}"
        )
    try:
        values = [int(tok) for tok in tokens]
    except ValueError as exc:
        raise ValueError(f"matrix entries must be integers: {exc}") from None
    # the entries are ints and the token count fixed the shape
    rows = tuple(
        tuple(values[i * n_cols : (i + 1) * n_cols]) for i in range(n_rows)
    )
    return _trusted_matrix(n_rows, n_cols, rows)


def format_matrix_text(matrix: IntMatrix) -> str:
    lines = [f"{matrix.n_rows} {matrix.n_cols}"]
    lines.extend(" ".join(str(x) for x in row) for row in matrix.rows)
    return "\n".join(lines) + "\n"


def _one_based_lines(text: str, noun: str, numbers: str, pair: str = "") -> list[tuple[int, ...]]:
    """Lines of 1-based positive integers, each returned as a 0-based tuple.

    ``noun`` names a line and, plural, the file, and ``numbers`` the
    integers; with ``pair`` every line must hold two, laid out as it says.
    """
    rows = []
    for line in _strip_comments(text):
        toks = line.split()
        if pair and len(toks) != 2:
            raise ValueError(f"{noun} line must be {pair}, got {line!r}")
        try:
            values = tuple(map(int, toks))
        except ValueError:
            raise ValueError(f"{noun} line must hold integers: {line!r}") from None
        # a kept line holds at least one token
        if min(values) < 1:
            raise ValueError(f"{numbers} are 1-based and must be positive")
        rows.append(tuple([i - 1 for i in values]))
    if not rows:
        raise ValueError(f"empty {noun}s file")
    return rows


def parse_blocks_text(text: str) -> list[tuple[int, ...]]:
    """One block per line, 1-based run indices; returned 0-based."""
    return _one_based_lines(text, "block", "run indices")


def parse_edges_text(text: str) -> DirectedGraph:
    """One 'tail head' pair per line, 1-based vertex numbers."""
    return DirectedGraph.from_edges(_one_based_lines(text, "edge", "vertex numbers", "'tail head'"))


def _rational(tok: str) -> Fraction:
    """One token as a ``Fraction``, read with ``int`` when it is ``[-]p[/q]``.

    ``p`` and ``q`` are ASCII digits and ``q`` is not zero.  Every other
    token goes to ``Fraction``'s own parser, once a decimal exponent beyond
    4,300 in absolute value is rejected before ``Fraction`` expands it into
    a huge integer.
    """
    num, slash, den = tok.partition("/")
    if tok.isascii() and num.removeprefix("-").isdigit():
        if not slash:
            return Fraction(int(num))
        if den.isdigit() and den.lstrip("0"):
            return Fraction(int(num), int(den))
    _, e, exponent = tok.lower().partition("e")
    if e and abs(int(exponent)) > _MAX_EXPONENT:
        raise ValueError
    return Fraction(tok)


def parse_rational_list(text: str) -> list[Fraction]:
    """Whitespace-separated rationals; accepts '3', '1/2', '0.25' and '2.5e3'."""
    values = []
    for tok in (t for line in _strip_comments(text) for t in line.split()):
        try:
            values.append(_rational(tok))
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"cannot parse rational number {tok!r}") from None
    return values


def _read(path: str, parse: Callable[[str], _T]) -> _T:
    """Parse the text of ``path``, with a message naming the file on error.

    The file is read as bytes and decoded as UTF-8 under every locale; the
    parsers split lines with ``splitlines``, so CRLF files read as LF files.
    A file that cannot be read, decoded or parsed exits 2, and a design
    whose column space lacks the all-ones vector exits 3.
    """
    try:
        with open(path, "rb") as file:
            text = file.read().decode()
        return parse(text)
    except OSError as exc:
        raise CliError(EXIT_PARAMS, f"cannot read {path}: {exc}") from exc
    except JNotInColumnSpaceError as exc:
        raise CliError(EXIT_PRECONDITION, f"{path}: {exc}") from exc
    except ValueError as exc:
        raise CliError(EXIT_PARAMS, f"{path}: {exc}") from exc


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CliError(EXIT_PARAMS, message)


@functools.lru_cache(maxsize=64)
def _model_of_text(text: str) -> ContrastModel:
    """The contrast model of a design file's text, memoised by the text.

    The model is a pure function of the text, so repeated :func:`main`
    calls on one design reduce it once; an error is raised afresh each
    time, since ``lru_cache`` keeps no exceptions.
    """
    matrix = parse_matrix_text(text)
    runs = tuple(str(i + 1) for i in range(matrix.n_rows))
    params = tuple(f"p{j + 1}" for j in range(matrix.n_cols))
    return to_contrast_form(DesignModel(matrix, runs, params))


def _emit(args: argparse.Namespace, human_lines: Iterable[str], records: dict) -> None:
    """Print the records as JSON, or the human lines one by one as they come.

    The one reader of ``--format``; a listing it does not print is never formatted.
    Record values are formatted here, the ``Fraction``s with ``str``,
    except for lists the caller streams as item texts (see
    :func:`_record_texts`).  A result too long for Python to print as an
    integer exits 5 from :func:`main`; the lines or items before it are
    already out.
    """
    if args.format == "records":
        sys.stdout.writelines(_record_texts(records))
    else:
        sys.stdout.writelines(line + "\n" for line in human_lines)


def _record_texts(records: dict) -> Iterator[str]:
    """The text of ``json.dumps(records, indent=2, default=str) + "\\n"``, in pieces.

    A value given as an iterator is a list streamed item by item: it yields
    each item's JSON text as it stands in the whole text, four spaces in,
    and the brackets, commas and newlines are written around them here, so
    a long listing is never held as one text.  The first item of every
    streamed list is formatted before the opening brace, so a first item
    too long to print leaves stdout empty, as in the human format.
    """
    members: list[Iterable[str]] = []
    for key, value in records.items():
        if isinstance(value, Iterator):
            head = f"  {json.dumps(key)}: ["
            first = next(value, None)
            members.append(
                [head + "]"]
                if first is None
                else chain([head, "\n", first], (",\n" + t for t in value), ["\n  ]"])
            )
        else:
            # the member's lines as they stand in the whole object's text
            members.append([json.dumps({key: value}, indent=2, default=str)[2:-2]])
    yield "{"
    separator = "\n"
    for member in members:
        yield separator
        yield from member
        separator = ",\n"
    yield "\n}\n" if members else "}\n"


def _int_list_template(n: int, indent: int) -> str:
    """A ``%`` template for ``n`` ints as ``json.dumps(indent=2)`` lays out a
    list ``indent`` spaces in; ``n`` is at least 1."""
    pad = " " * indent
    return f"{pad}[\n" + ",\n".join([f"{pad}  %d"] * n) + f"\n{pad}]"


def _format_block(block: Sequence[int]) -> str:
    return "{" + ",".join(str(i + 1) for i in block) + "}"


def _format_fractions(values: Sequence[Fraction]) -> str:
    return "(" + ", ".join(str(v) for v in values) + ")"


def _cover_texts(catalog: SchemeCatalog, form: Callable, sep: str) -> Iterator[str]:
    """Each system as its blocks' texts joined by ``sep``; on first use,
    every support is formatted by ``form`` once."""
    texts = [form(b) for b in catalog.supports]
    for c in catalog.covers:
        yield sep.join(map(texts.__getitem__, c))


# family -> (generator, the options it is called with), digraph aside
_FAMILIES: dict[str, tuple[Callable[..., DesignModel], tuple[str, ...]]] = {
    "factorial": (factorial_two_level, ("k",)),
    "anova2": (anova_two_way, ("I", "J")),
    "choice": (choice_k_of_2k, ("k",)),
}


def cmd_catalog(args: argparse.Namespace) -> int:
    if args.family == "digraph":
        _require(bool(args.edges), "the digraph family needs --edges FILE")
        make, inputs = digraph_design, [_read(args.edges, parse_edges_text)]
    else:
        make, names = _FAMILIES[args.family]
        inputs = [getattr(args, name) for name in names]
        needs = " and ".join(f"--{name}" for name in names)
        _require(None not in inputs, f"the {args.family} family needs {needs}")
    try:
        design = make(*inputs)
    except NotBalancedError as exc:
        raise CliError(EXIT_PRECONDITION, str(exc)) from exc
    except ValueError as exc:
        raise CliError(EXIT_PARAMS, str(exc)) from exc

    text = format_matrix_text(design.matrix)
    comments = [f"# run {i + 1}: {label}" for i, label in enumerate(design.run_labels)]
    comments += [f"# param {j + 1}: {label}" for j, label in enumerate(design.param_labels)]
    body = text + "\n".join(comments) + "\n"
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as file:
                file.write(body)
        except OSError as exc:
            raise CliError(EXIT_PARAMS, f"cannot write {args.output}: {exc}") from exc
        return EXIT_OK
    _emit(
        args,
        body.rstrip("\n").split("\n"),
        {
            "n_rows": design.matrix.n_rows,
            "n_cols": design.matrix.n_cols,
            "rows": [list(row) for row in design.matrix.rows],
            "run_labels": list(design.run_labels),
            "param_labels": list(design.param_labels),
        },
    )
    return EXIT_OK


def cmd_circuits(args: argparse.Namespace) -> int:
    matrix = _read(args.input, parse_matrix_text)
    if args.transpose:
        matrix = matrix.transpose()
    basis = circuit_basis(matrix)
    records: dict = {"circuits": len(basis)}
    listed = basis.circuits
    if args.nonnegative or args.binary:
        listed = nonnegative_circuits(basis)
        records["nonnegative"] = len(listed)
    if args.binary:
        listed = binary_circuits(basis)
        records["binary"] = len(listed)
    summary = " ".join(f"{key}={count}" for key, count in records.items())
    # %d prints an int as str does, and fails past the digit limit alike
    item = _int_list_template(matrix.n_cols, 4)
    records["vectors"] = (item % c.vector for c in listed)
    line = " ".join(["%d"] * matrix.n_cols)
    _emit(args, chain((line % c.vector for c in listed), [summary]), records)
    return EXIT_OK


def cmd_randomise(args: argparse.Namespace) -> int:
    model = _read(args.input, _model_of_text)
    if args.check:
        return _randomise_check(args, model)

    catalog = enumerate_circuit_randomisations(model, include_full=args.include_full)
    blocks = _cover_texts(
        catalog, lambda b: _int_list_template(len(b), 6) % tuple([i + 1 for i in b]), ",\n"
    )
    records: dict = {"systems": ("    [\n" + t + "\n    ]" for t in blocks)}
    # the human report's parts, chained once so each line passes one chain
    parts = [[f"systems={len(catalog)}"], _cover_texts(catalog, _format_block, " ")]
    if args.shapes:
        shape_counts = catalog.shape_counts
        parts.append(["shapes:"] + [f"{'+'.join(map(str, s))} {n}" for s, n in shape_counts.items()])
        records["shapes"] = [[list(shape), n] for shape, n in shape_counts.items()]
    if args.lattice:
        edge = _int_list_template(2, 4)
        records["lattice_edges"] = (edge % (c + 1, f + 1) for c, f in catalog._edges())
        # one edge from the single-block cover to each other system, else none
        full = any(len(c) == 1 for c in catalog.covers)
        parts.append([f"lattice-edges={len(catalog) - 1 if full else 0}"])
        parts.append(f"{c + 1} covers {f + 1}" for c, f in catalog._edges())
    _emit(args, chain.from_iterable(parts), records)
    return EXIT_OK


def _randomise_check(args: argparse.Namespace, model: ContrastModel) -> int:
    blocks = _read(args.check, parse_blocks_text)
    try:
        RandomisationSystem(model.n_runs, blocks)
    except ValueError as exc:
        raise CliError(EXIT_INVALID_SYSTEM, f"invalid system: {exc}") from exc
    # the first non-orthogonal block in file order, the order analyse reads
    violation = _block_violation(model, blocks)
    if violation is not None:
        block, j, product = violation
        raise CliError(
            EXIT_INVALID_SYSTEM,
            f"invalid system: block {_format_block(sorted(block))} has inner "
            f"product {product} with contrast column {j + 1}",
        )
    _emit(args, ["valid"], {"valid": True})
    return EXIT_OK


def cmd_tu(args: argparse.Namespace) -> int:
    _require(args.cap >= 0, f"--cap must be at least 0, got {args.cap}")
    matrix = _read(args.input, parse_matrix_text)
    try:
        verdict = is_totally_unimodular(matrix, size_cap=args.cap)
    except TooLargeError as exc:
        raise CliError(EXIT_BUDGET, f"budget exceeded: {exc}") from exc
    answer = "yes" if verdict else "no"
    _emit(args, [f"totally unimodular: {answer}"], {"totally_unimodular": verdict})
    return EXIT_OK


def cmd_analyse(args: argparse.Namespace) -> int:
    if args.simulate:
        return _analyse_simulate(args)
    if not args.input or not args.system or not args.y or args.gamma is None:
        raise CliError(
            EXIT_PARAMS,
            "analyse needs DESIGN --system FILE --y FILE --gamma FILE, or --simulate",
        )
    model = _read(args.input, _model_of_text)
    blocks = _read(args.system, parse_blocks_text)
    try:
        # checks the blocking before y and gamma are read; to_contrast_form
        # keeps the contrasts independent, so no RankDeficientError gets here
        covariance = covariance_comparison(model, blocks)
    except ValueError as exc:
        raise CliError(EXIT_INVALID_SYSTEM, f"invalid system: {exc}") from exc
    y = _read(args.y, parse_rational_list)
    gamma = _read(args.gamma, parse_rational_list)
    if len(y) != model.n_runs:
        raise CliError(
            EXIT_PARAMS, f"need {model.n_runs} responses, got {len(y)}"
        )
    if len(gamma) != len(blocks):
        raise CliError(
            EXIT_PARAMS, f"need {len(blocks)} block effects, got {len(gamma)}"
        )
    estimates = lse_contrast_estimates(model, y)
    bias = naive_block_bias(model, blocks, gamma)
    records = {
        "estimates": estimates,
        "bias": bias,
        # estimates are linear in y, so the shift moves them by exactly the bias
        "invariance": "violated" if any(bias) else "exact",
        "covariance": covariance.value,
    }
    lines = (
        f"{key}: {_format_fractions(value) if isinstance(value, tuple) else value}"
        for key, value in records.items()
    )
    _emit(args, lines, records)
    return EXIT_OK


def _analyse_simulate(args: argparse.Namespace) -> int:
    if args.n1 is None or args.n2 is None:
        raise CliError(EXIT_PARAMS, "--simulate needs --n1 and --n2")
    inputs = {
        name: getattr(args, name)
        for name in ("n1", "n2", "theta1", "theta2", "sd", "replications", "seed")
    }
    try:
        summary = simulate_ab(
            n1=args.n1,
            n2=args.n2,
            theta=(args.theta1, args.theta2),
            confounder_sd=args.sd,
            replications=args.replications,
            seed=args.seed,
        )
    except ValueError as exc:
        raise CliError(EXIT_PARAMS, str(exc)) from exc
    # argparse gives ints and floats, whose repr is what JSON writes too
    header = "simulate: " + " ".join(f"{key}={value!r}" for key, value in inputs.items())
    _emit(
        args,
        [header, f"mean={summary.mean!r}", f"se={summary.standard_error!r}"],
        {**inputs, "mean": summary.mean, "se": summary.standard_error},
    )
    return EXIT_OK


def _catalog_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("family", choices=(*_FAMILIES, "digraph"))
    p.add_argument("--k", type=int, help="factor count (factorial) or k (choice)")
    p.add_argument("--I", type=int, help="row levels (anova2)")
    p.add_argument("--J", type=int, help="column levels (anova2)")
    p.add_argument("--edges", help="edge list file (digraph family)")
    p.add_argument("-o", "--output", help="write the matrix file here instead of stdout")


def _circuits_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("input", help="matrix file")
    p.add_argument("--nonnegative", action="store_true", help="list nonnegative circuits only")
    p.add_argument("--binary", action="store_true", help="list binary circuits only")
    p.add_argument("--transpose", action="store_true", help="use the transposed matrix")


def _randomise_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("input", help="design matrix file")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--enumerate", action="store_true", help="list all circuit-based systems")
    mode.add_argument("--check", metavar="FILE", help="validate the partition in FILE")
    p.add_argument(
        "--include-full", action="store_true", help="include the single-block full randomisation"
    )
    p.add_argument("--shapes", action="store_true", help="print the block-shape count table")
    p.add_argument("--lattice", action="store_true", help="print refinement covering edges")


def _tu_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("input", help="matrix file")
    p.add_argument(
        "--cap",
        type=int,
        default=DEFAULT_SIZE_CAP,
        help="budget on the number of square submatrices the matrix has "
        "(not the number the test examines)",
    )


def _analyse_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("input", nargs="?", help="design matrix file")
    p.add_argument("--system", metavar="FILE", help="blocks file, one block per line")
    p.add_argument("--y", metavar="FILE", help="response vector file")
    p.add_argument("--gamma", metavar="FILE", help="block effect vector file")
    p.add_argument("--simulate", action="store_true", help="run the A/B Monte Carlo instead")
    p.add_argument("--n1", type=int, help="group A size (--simulate)")
    p.add_argument("--n2", type=int, help="group B size (--simulate)")
    p.add_argument("--theta1", type=float, default=0.0, help="group A mean (--simulate)")
    p.add_argument("--theta2", type=float, default=0.0, help="group B mean (--simulate)")
    p.add_argument("--sd", type=float, default=1.0, help="confounder sd (--simulate)")
    p.add_argument("--replications", type=int, default=1000, help="replication count")
    p.add_argument("--seed", type=int, default=0, help="RNG seed (--simulate)")


# name -> (help, adds the subcommand's own arguments, runs it), in the usage's order
_SUBCOMMANDS: dict[str, tuple[str, Callable, Callable[[argparse.Namespace], int]]] = {
    "catalog": ("generate a catalog design", _catalog_arguments, cmd_catalog),
    "circuits": ("compute a circuit basis", _circuits_arguments, cmd_circuits),
    "randomise": ("enumerate or check randomisation systems", _randomise_arguments, cmd_randomise),
    "tu": ("test total unimodularity", _tu_arguments, cmd_tu),
    "analyse": ("exact estimates and block diagnostics", _analyse_arguments, cmd_analyse),
}


@functools.cache
def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of one subcommand, or with ``None`` the full parser.

    The subcommand's parser is the subparser the full parser holds for it,
    built without its siblings.  Each is built on first use and shared by
    later calls; parsing leaves no state in a parser, since each call
    returns a fresh namespace.
    """
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format",
        choices=("human", "records"),
        default="human",
        help="human-readable report or JSON records with the same numbers",
    )
    if command is not None:
        parser = argparse.ArgumentParser(prog=f"circuitrand {command}", parents=[common])
        _SUBCOMMANDS[command][1](parser)
        return parser

    parser = argparse.ArgumentParser(
        prog="circuitrand",
        description="Circuit bases and valid randomisation systems, exactly.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_arguments, _) in _SUBCOMMANDS.items():
        add_arguments(sub.add_parser(name, parents=[common], help=help_text))
    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    """Parse ``argv`` as ``build_parser().parse_args`` does.

    A command line that starts with a subcommand is parsed by that
    subcommand's parser alone; it fails there as it would in the full
    parser's subparser.  One that leaves arguments over, and every other
    command line, goes to the full parser, so its usage and errors are the
    full parser's.
    """
    if argv and argv[0] in _SUBCOMMANDS:
        args, rest = build_parser(argv[0]).parse_known_args(argv[1:])
        if not rest:
            args.command = argv[0]
            return args
    return build_parser().parse_args(argv)


def main(argv: Sequence[str] | None = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else list(argv))
    try:
        code = _SUBCOMMANDS[args.command][2](args)
        # flush inside the try, so a closed pipe is caught here
        sys.stdout.flush()
        return code
    except CliError as exc:
        print(f"circuitrand: {exc}", file=sys.stderr)
        return exc.code
    except ValueError as exc:
        # int-to-str conversion has no exception type of its own; every input
        # is parsed under _read, so only a result being formatted gets here
        if "integer string conversion" not in str(exc):
            raise
        print(
            f"circuitrand: budget exceeded: a result has more than "
            f"{sys.get_int_max_str_digits()} digits, Python's limit for printing an integer",
            file=sys.stderr,
        )
        return EXIT_BUDGET
    except BrokenPipeError:
        # the reader went away; point stdout at devnull so the interpreter's
        # exit flush does not fail again, and exit 1 as Python does on EPIPE
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
