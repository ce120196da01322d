"""Command-line interface.

Subcommands::

    wmatch decide GRAPH          randomized perfect-matching decision
    wmatch find GRAPH            randomized perfect-matching search
    wmatch hungarian WEIGHTS     maximum-weight matching with certificate
    wmatch mwpm GRAPH WEIGHTS    minimum-weight perfect matching
    wmatch verify SUITE          exhaustive/randomized verification suites

Exit codes: 0 = yes/found/pass, 1 = no/failed, 2 = input error,
3 = enumeration budget exceeded, 141 (128 + SIGPIPE) = the reader
closed stdout early (``wmatch ... | head``), which ends the run
without a traceback.  Identical inputs, seed and flags produce
byte-identical output; the default seed is the documented constant
``wmatch.rng.DEFAULT_SEED`` (pass ``--seed random`` to opt into
entropy; the drawn seed is echoed in the report).

Most of a short command's wall time is interpreter start-up and
imports, so a command runs only the modules it uses.  The
verification suites (:mod:`wmatch.verify`) are imported lazily: the
module is in ``sys.modules`` as soon as this one is, so whatever
looks it up there (the benchmark's tracer does) finds it, but its
code runs on first use, which :func:`run_suite` makes on the first
``verify``.  ``secrets`` is imported only for ``--seed random`` and
``importlib.resources`` only by :func:`report_schema`; input files
are read with ``open`` rather than ``pathlib``.  The parser lists the
suites from :data:`wmatch.oracle.SUITE_NAMES` without running them.
"""

from __future__ import annotations

import argparse
import functools
import importlib.util
import json
import os
import sys

from .classical import cover_cost, hungarian_max_weight, is_cover, mwpm
from .edmonds import ZeroDeterminantError, extract_pm, lovasz_sample
from .graphs import (
    FileFormatError,
    Matching,
    _decimal,
    matching_weight,
    parse_graph,
    parse_weights,
)
from .linalg import det_berkowitz  # noqa: F401  (perfbench/tests wraps det_berkowitz here)
from .mvv import mvv_trial
from .oracle import BudgetExceededError, DEFAULT_BUDGET, SUITE_NAMES
from .rng import DEFAULT_SEED, derive_seed


def _import_lazily(name: str):
    """``import name``, except that the module's code runs on its first
    attribute access (the recipe in the :mod:`importlib` docs)."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    package, _, child = name.rpartition(".")
    setattr(sys.modules[package], child, module)
    return module


verify = _import_lazily(f"{__package__}.verify")

EXIT_YES = 0
EXIT_NO = 1
EXIT_INPUT_ERROR = 2
EXIT_BUDGET = 3
EXIT_BROKEN_PIPE = 141


def _seed_value(text: str) -> int:
    """``random``, or an ASCII decimal token below 2**64, read by
    :func:`~wmatch.graphs._decimal` as the file formats are."""
    if text == "random":
        import secrets

        return secrets.randbits(64)
    try:
        value = _decimal(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"seed must be an unsigned 64-bit integer or 'random', got {text!r}"
        ) from None
    if not 0 <= value < 1 << 64:
        raise argparse.ArgumentTypeError("seed must fit in 64 bits")
    return value


def _positive(text: str) -> int:
    """An ASCII decimal token of at least 1, read as in :func:`_seed_value`."""
    try:
        value = _decimal(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {text!r}"
        ) from None
    if value < 1:
        raise argparse.ArgumentTypeError("value must be >= 1")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once: ``parse_args`` returns a fresh
    namespace on every call and leaves the parser as it was."""
    parser = argparse.ArgumentParser(
        prog="wmatch",
        description="Exact randomized bipartite matching algorithms "
        "with verifiable failure-probability bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--seed", type=_seed_value, default=DEFAULT_SEED,
                       help="unsigned 64-bit seed, or 'random' (default: fixed constant)")
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("decide", help="decide perfect matching existence")
    p.add_argument("graph", help="graph file")
    p.add_argument("--trials", type=_positive, default=20)
    add_common(p)
    p.set_defaults(handler=cmd_decide)

    p = sub.add_parser("find", help="find a perfect matching")
    p.add_argument("graph", help="graph file")
    p.add_argument("--trials", type=_positive, default=20)
    add_common(p)
    p.set_defaults(handler=cmd_find)

    p = sub.add_parser("hungarian", help="maximum-weight matching with cover certificate")
    p.add_argument("weights", help="weight file")
    add_common(p)
    p.set_defaults(handler=cmd_hungarian)

    p = sub.add_parser("mwpm", help="minimum-weight perfect matching")
    p.add_argument("graph", help="graph file")
    p.add_argument("weights", help="weight file")
    add_common(p)
    p.set_defaults(handler=cmd_mwpm)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=SUITE_NAMES + ("all",))
    p.add_argument("--trials", type=_positive, default=1000,
                   help="trials for the success-rate checks")
    p.add_argument("--max-n", type=_positive, default=6,
                   help="cap on n in the det agreement and permutation checks, "
                        "the classical Hungarian and mwpm checks and the sz "
                        "complete-graph cases; the other checks ignore it")
    p.add_argument("--max-s", type=_positive, default=4)
    p.add_argument("--max-k", type=_positive, default=8)
    p.add_argument("--budget", type=_positive, default=DEFAULT_BUDGET,
                   help="cap on exhaustive enumeration sizes")
    add_common(p)
    p.set_defaults(handler=cmd_verify)

    return parser


def _read(path: str, parse):
    # Decoded without newline translation: the parser alone decides
    # where a line ends, so a lone "\r" is not a line break here either.
    try:
        with open(path, "rb") as f:
            text = f.read().decode("utf-8")
    except OSError as exc:
        raise FileFormatError(0, f"cannot read: {exc.strerror or exc}", source=path) from exc
    except UnicodeDecodeError as exc:
        raise FileFormatError(0, f"cannot read: {exc}", source=path) from exc
    try:
        return parse(text)
    except FileFormatError as exc:
        raise FileFormatError(exc.line, exc.message, source=path) from exc


_quote = json.encoder.encode_basestring_ascii


def _json_text(value, newline: str = "\n") -> str:
    """Exactly ``json.dumps(value, indent=2, sort_keys=True)``, without
    the pure-Python encoder that ``json`` falls back to whenever an
    indent is set.

    ``newline`` is a line break followed by the current depth's indent.
    Strings, ``None``, ``True``, ``False``, ints (through
    ``int.__repr__``), lists, tuples and dicts with only ``str`` keys
    are laid out here as ``json`` lays them out: sorted keys, ``": "``
    after a key, ``","`` at a line end, and empty containers as ``[]``
    and ``{}``; a list of plain ints is joined in one call.  Any other
    value, a float or a dict with a non-``str`` key say, is handed to
    ``json.dumps`` whole and re-indented to the current depth, which
    is exact because JSON text holds no raw newline inside a string;
    an unsupported type raises its ``TypeError`` there."""
    if isinstance(value, str):
        return _quote(value)
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = newline + "  "
        if all(type(x) is int for x in value):
            body = map(int.__repr__, value)
        else:
            body = [_json_text(x, inner) for x in value]
        return "[" + inner + ("," + inner).join(body) + newline + "]"
    if isinstance(value, dict) and all(type(k) is str for k in value):
        if not value:
            return "{}"
        inner = newline + "  "
        body = [_quote(k) + ": " + _json_text(x, inner) for k, x in sorted(value.items())]
        return "{" + inner + ("," + inner).join(body) + newline + "}"
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    return json.dumps(value, indent=2, sort_keys=True).replace("\n", newline)


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    """Print the report: ``payload`` as :func:`_json_text` writes it
    under ``--format json``, byte for byte what ``json.dumps(payload,
    indent=2, sort_keys=True)`` prints, else ``text_lines``."""
    if args.format == "json":
        print(_json_text(payload))
    else:
        for line in text_lines:
            print(line)


def _matching_json(m: Matching) -> list[list[int]]:
    return [[i, j] for i, j in m.pairs]


def _matching_text(m: Matching) -> str:
    if m.is_empty:
        return "(empty)"
    return " ".join(f"{i}->{j}" for i, j in m.pairs)


def _trial_report(args, t, fields: dict, text_lines: list[str]) -> int:
    """Print the report of ``decide`` or ``find`` and return its exit
    code.  ``t`` is the index of the first successful trial, or None
    when no trial succeeded; the JSON payload is ``command``, ``graph``,
    ``seed``, ``trials`` and ``trial`` with the command's own ``fields``
    added."""
    _emit(
        args,
        {
            "command": args.command,
            "graph": args.graph,
            "seed": args.seed,
            "trials": args.trials,
            "trial": t,
        }
        | fields,
        text_lines,
    )
    return EXIT_NO if t is None else EXIT_YES


def cmd_decide(args) -> int:
    """Lovasz's test, up to ``--trials`` times, with a matching on YES.

    On a graph with no perfect matching every evaluation of the edge
    matrix is singular, so every trial would answer no: the graph's
    :meth:`~wmatch.graphs.BipartiteGraph.has_perfect_matching` answers
    NO at once, with no trial run.  Otherwise each trial draws one
    random evaluation (:func:`~wmatch.edmonds.lovasz_sample`) and
    extracts a matching from it (:func:`~wmatch.edmonds.extract_pm`):
    the test and the matching mod the prime P
    (:func:`~wmatch.edmonds.extract_diagonal_mod`), and the exact
    :func:`~wmatch.linalg.cofactors` on the same sample only when the
    determinant is 0 mod P or a zero cofactor residue is not proved
    zero.  A zero determinant is therefore always decided exactly, and
    its :class:`~wmatch.edmonds.ZeroDeterminantError` ends the trial; a
    trial with a nonzero residue runs no exact elimination.  Both
    answers are printed by :func:`_trial_report`.
    """
    g = _read(args.graph, parse_graph)
    for t in range(args.trials if g.has_perfect_matching() else 0):
        try:
            m = extract_pm(g, lovasz_sample(g, derive_seed(args.seed, t)))
        except ZeroDeterminantError:
            continue
        return _trial_report(
            args,
            t,
            {"result": "yes", "matching": _matching_json(m)},
            ["YES", f"trial: {t}", f"matching: {_matching_text(m)}"],
        )
    return _trial_report(
        args, None, {"result": "no", "matching": None}, ["NO", f"trials: {args.trials}"]
    )


def cmd_find(args) -> int:
    """The MVV finder, up to ``--trials`` times.  A graph with no
    perfect matching fails every trial, so it gets FAILED at once, as
    in :func:`cmd_decide`, and no weights are drawn.  Both answers are
    printed by :func:`_trial_report`."""
    g = _read(args.graph, parse_graph)
    for t in range(args.trials if g.has_perfect_matching() else 0):
        trial = mvv_trial(g, derive_seed(args.seed, t))
        if trial.success:
            return _trial_report(
                args,
                t,
                {
                    "result": "found",
                    "matching": _matching_json(trial.matching),
                    "min_weight": trial.min_weight,
                    "weights": [list(row) for row in trial.weights.grid],
                },
                [
                    "FOUND",
                    f"trial: {t}",
                    f"matching: {_matching_text(trial.matching)}",
                    f"min-weight: {trial.min_weight}",
                    "weights:",
                ]
                + [" ".join(str(x) for x in row) for row in trial.weights.grid],
            )
    return _trial_report(
        args,
        None,
        {"result": "failed", "matching": None, "min_weight": None, "weights": None},
        ["FAILED", f"trials: {args.trials}"],
    )


def cmd_hungarian(args) -> int:
    w = _read(args.weights, parse_weights)
    m, cover = hungarian_max_weight(w.grid)
    weight = matching_weight(m, w)
    cost = cover_cost(cover)
    _emit(
        args,
        {
            "command": "hungarian",
            "weights": args.weights,
            "matching": _matching_json(m),
            "matching_weight": weight,
            "cover_u": list(cover.u),
            "cover_v": list(cover.v),
            "cover_cost": cost,
            "cover_valid": is_cover(w.grid, cover),
            "weight_equals_cost": weight == cost,
        },
        [
            f"matching: {_matching_text(m)}",
            f"weight: {weight}",
            f"cover-u: {' '.join(str(x) for x in cover.u)}",
            f"cover-v: {' '.join(str(x) for x in cover.v)}",
            f"cover-cost: {cost}",
            f"weight-equals-cost: {'true' if weight == cost else 'false'}",
        ],
    )
    return EXIT_YES


def cmd_mwpm(args) -> int:
    g = _read(args.graph, parse_graph)
    w = _read(args.weights, parse_weights)
    if w.n != g.n:
        raise FileFormatError(
            1,
            f"weight dimension {w.n} does not match graph dimension {g.n}",
            source=args.weights,
        )
    m = mwpm(g, w)
    if m.is_empty:
        result, matching, weight = "none", None, None
        lines = ["no perfect matching"]
    else:
        result, matching, weight = "found", _matching_json(m), matching_weight(m, w)
        lines = ["FOUND", f"matching: {_matching_text(m)}", f"weight: {weight}"]
    _emit(
        args,
        {
            "command": "mwpm",
            "graph": args.graph,
            "weights": args.weights,
            "result": result,
            "matching": matching,
            "matching_weight": weight,
        },
        lines,
    )
    return EXIT_NO if m.is_empty else EXIT_YES


def run_suite(name: str, **options):
    """:func:`wmatch.verify.run_suite`; the first call runs the suites'
    module, so that no other command does."""
    return verify.run_suite(name, **options)


def cmd_verify(args) -> int:
    report = run_suite(
        args.suite,
        seed=args.seed,
        trials=args.trials,
        max_n=args.max_n,
        max_s=args.max_s,
        max_k=args.max_k,
        budget=args.budget,
    )
    lines = [f"suite: {report.suite}"]
    for check in report.checks:
        lines.append(f"{'PASS' if check.passed else 'FAIL'} {check.name}")
    lines.append(f"result: {'PASS' if report.passed else 'FAIL'}")
    _emit(
        args,
        {"command": "verify", "seed": args.seed} | report.to_dict(),
        lines,
    )
    return EXIT_YES if report.passed else EXIT_NO


def report_schema() -> dict:
    """The JSON schema that every ``--format json`` output satisfies."""
    from importlib import resources

    schema = resources.files("wmatch").joinpath("schemas/report.schema.json")
    return json.loads(schema.read_text(encoding="utf-8"))


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.handler(args)
        # Flush here so a closed pipe surfaces inside this try block
        # rather than at interpreter exit.
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # Point stdout at devnull so the flush at exit cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except FileFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
