"""Command line front end.

    aaul check MODEL FORMULA [--state S] [--max-blocks N]
    aaul apply MODEL --update UPDATE [-o OUT]
    aaul bisim MODEL
    aaul dot MODEL [-o OUT]
    aaul encode-tiling TILES [--conjunct NAME]
    aaul tile-search TILES --max-period K
    aaul witness-model TILES --period K [--cell-props] [-o OUT]
    aaul sat-search FORMULA --max-states N [--agents A,B] [--props P,Q]
                    [--max-blocks N] [--limit N]

MODEL and TILES are file paths; `-` reads standard input. Exit codes:
0 for yes/success, 1 for a definite no, 2 for any error (bad input,
unknown state or agent, exceeded budget or search limit).
"""

from __future__ import annotations

import argparse
import functools
import sys

from .bisim import coarsest_partition
from .checker import Budget, DEFAULT_BUDGET, satisfies, update_model
from .errors import AaulError
from .kripke import export_dot, load_model, save_model
from .search import sat_search
from .syntax import parse_formula, parse_update, print_formula
from .tiling import build_torus_model, encode_parts, find_periodic_tiling, parse_tiles


class _UsageError(AaulError):
    pass


class _Help(Exception):
    """The help text --help asked for, carried to `run`."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)

    def print_help(self, file=None):
        # argparse would print to the process's stdout; run writes it to its own
        raise _Help(self.format_help())


@functools.cache  # once per process: parse_args keeps nothing between calls
def _build_parser() -> _Parser:
    parser = _Parser(prog="aaul", description="arrow update logic toolkit")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("check", help="evaluate a formula at a state")
    p.add_argument("model")
    p.add_argument("formula")
    p.add_argument("--state", help="defaults to the model's point")
    p.add_argument("--max-blocks", type=int)

    p = sub.add_parser("apply", help="apply an update to a model")
    p.add_argument("model")
    p.add_argument("--update", required=True, help='update literal, e.g. "{(p,a,true)}"')
    p.add_argument("-o", "--output")

    p = sub.add_parser("bisim", help="print bisimulation blocks, one per line")
    p.add_argument("model")

    p = sub.add_parser("dot", help="export a model as graphviz")
    p.add_argument("model")
    p.add_argument("-o", "--output")

    p = sub.add_parser("encode-tiling", help="print the formula for a tile instance")
    p.add_argument("tiles")
    p.add_argument("--conjunct", help="print a single named part instead")

    p = sub.add_parser("tile-search", help="look for a periodic tiling")
    p.add_argument("tiles")
    p.add_argument("--max-period", type=int, required=True)

    p = sub.add_parser("witness-model", help="build the torus model for a periodic tiling")
    p.add_argument("tiles")
    p.add_argument("--period", type=int, required=True)
    p.add_argument("--cell-props", action="store_true", help="add one private proposition per cell")
    p.add_argument("-o", "--output")

    p = sub.add_parser("sat-search", help="search for a small satisfying model")
    p.add_argument("formula")
    p.add_argument("--max-states", type=int, required=True)
    p.add_argument("--agents", help="comma separated; defaults to the formula's agents")
    p.add_argument("--props", help="comma separated; defaults to the formula's atoms")
    p.add_argument("--max-blocks", type=int)
    p.add_argument(
        "--limit", type=int, default=1_000_000,
        help="cap on candidate models, and on relabelling table entries per size",
    )

    return parser


def _read(path: str, stdin) -> str:
    if path == "-":
        return (stdin or sys.stdin).read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write(text: str, output: str | None, out):
    if output is None:
        out.write(text)
    else:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)


def _budget(args) -> Budget:
    if getattr(args, "max_blocks", None) is None:
        return DEFAULT_BUDGET
    return Budget(max_arrow_blocks=args.max_blocks)


def run(argv, stdin=None, stdout=None, stderr=None) -> int:
    out = stdout or sys.stdout
    err = stderr or sys.stderr
    try:
        args = _build_parser().parse_args(argv)
        return _dispatch(args, stdin, out)
    except _Help as h:
        out.write(str(h))
        return 0
    except (AaulError, ValueError, OSError) as e:
        err.write(f"error: {e}\n")
        return 2


def _dispatch(args, stdin, out) -> int:
    if args.command == "check":
        m = load_model(_read(args.model, stdin))
        f = parse_formula(args.formula)
        state = args.state if args.state is not None else m.point
        if state is None:
            raise AaulError("no --state given and the model has no point")
        verdict = satisfies(m, state, f, _budget(args))
        out.write("true\n" if verdict else "false\n")
        return 0 if verdict else 1

    if args.command == "apply":
        m = load_model(_read(args.model, stdin))
        u = parse_update(args.update)
        _write(save_model(update_model(m, u)), args.output, out)
        return 0

    if args.command == "bisim":
        m = load_model(_read(args.model, stdin))
        part = coarsest_partition(m)
        for block in part.blocks:
            out.write(" ".join(sorted(block, key=m.state_index)) + "\n")
        return 0

    if args.command == "dot":
        m = load_model(_read(args.model, stdin))
        _write(export_dot(m), args.output, out)
        return 0

    if args.command == "encode-tiling":
        inst = parse_tiles(_read(args.tiles, stdin))
        parts = encode_parts(inst)
        if args.conjunct is None:
            out.write(print_formula(parts.formula) + "\n")
            return 0
        named = parts.named()
        if args.conjunct not in named:
            raise AaulError(
                f"unknown conjunct {args.conjunct!r}; valid names: " + " ".join(named)
            )
        out.write(print_formula(named[args.conjunct]) + "\n")
        return 0

    if args.command == "tile-search":
        inst = parse_tiles(_read(args.tiles, stdin))
        if args.max_period < 1:
            raise AaulError("--max-period must be at least 1")
        for k in range(1, args.max_period + 1):
            tiling = find_periodic_tiling(inst, k)
            if tiling is not None:
                out.write(f"period {k}\n")
                for m_ in range(k):
                    for n in range(k):
                        out.write(f"{n} {m_} {tiling.grid[(n, m_)].name}\n")
                return 0
        out.write(f"no periodic tiling with period <= {args.max_period}\n")
        return 1

    if args.command == "witness-model":
        inst = parse_tiles(_read(args.tiles, stdin))
        if args.period < 1:
            raise AaulError("--period must be at least 1")
        tiling = find_periodic_tiling(inst, args.period)
        if tiling is None:
            out.write(f"no periodic tiling with period {args.period}\n")
            return 1
        model = build_torus_model(inst, tiling, cell_props=args.cell_props)
        _write(save_model(model), args.output, out)
        return 0

    if args.command == "sat-search":
        return _sat_search(args, out)

    raise AaulError(f"unknown command {args.command!r}")


def _names(text: str | None) -> tuple | None:
    """A comma separated option's names: None when it is not given, and
    none for an empty value."""
    if text is None:
        return None
    return tuple(text.split(",")) if text else ()


def _sat_search(args, out) -> int:
    f, budget = parse_formula(args.formula), _budget(args)
    if args.max_states < 1:
        raise AaulError("--max-states must be at least 1")
    found = sat_search(f, args.max_states, _names(args.agents), _names(args.props), budget, args.limit)
    if found is None:
        out.write(f"none up to {args.max_states} states\n")
        return 1
    out.write(save_model(found))
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
