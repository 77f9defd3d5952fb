"""Command-line front-end: every library operation over metric JSON documents.

Handlers return results; ``main`` is the one writer.  It writes a result or
error object with ``serialize._text`` (a trace by one format per step, a
metric by one per edge, everything else by the one JSON rule,
``core._jsonable``), a DOT string as is, and owns the exit codes: 0 success,
1 domain error (error object on stdout), 2 malformed input, bad usage, or a
result too long to write.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from . import serialize
from .core import as_rational, doubleton_dist, is_floppy, lower_envelope, shortest_path, validate
from .errors import MalformedInputError, MetricError
from .extension import _digits, _seed_of, full_extend, one_step_extend, verify_step_properties
from .game import adversary_player_two, play, winning_player_one
from .game import ProbeSecondPlayer, RandomSecondPlayer
from .generators import cantor_tree, complete_metric, cycle_metric, path_metric, random_floppy, star_metric
from .glue import floppy_certificate, glue, glue_hat, validate_patchwork
from .serialize import _ESCAPES, _parse_pair, _text, metric_to_dot


def _cmd_validate(args):
    m = serialize.load_metric(args.file)
    return metric_to_dot(m) if args.dot else validate(m)


def _cmd_query(args):
    m = serialize.load_metric(args.file)
    if args.hat:
        return {"value": shortest_path(m, *args.hat)}
    if args.check:
        return {"value": lower_envelope(m, *args.check)}
    return {"value": doubleton_dist(m, *map(_parse_pair, args.ddot))}


def _cmd_floppy(args):
    return is_floppy(serialize.load_metric(args.file))


def _cmd_step(args):
    m = serialize.load_metric(args.file)
    return one_step_extend(m, _parse_pair(args.pair), as_rational(args.r), args.mode)


def _cmd_pstep(args):
    m = serialize.load_metric(args.file)
    return verify_step_properties(m, _parse_pair(args.pair), as_rational(args.r))


def _cmd_extend(args):
    m = serialize.load_metric(args.file)
    choice = "midpoint"
    if args.choice != "midpoint":
        if not args.choice.startswith("set-file:"):
            raise MalformedInputError("--choice must be 'midpoint' or 'set-file:PATH'")
        choice = serialize.load_choice_map(args.choice.split(":", 1)[1])
    return full_extend(m, order=args.order, choice=choice)


def _make_player_two(spec: str):
    if spec == "adversary":
        return adversary_player_two()
    if spec.startswith("random:"):
        return RandomSecondPlayer(_seed_of(spec))
    if spec in ("low", "high", "mid"):
        return ProbeSecondPlayer(spec)
    raise MalformedInputError(f"unknown player-two strategy {spec!r}")


def _cmd_game(args):
    base = serialize.load_metric(args.file)
    length = args.game_length if args.game_length is not None else len(base.non_edges())
    return play(base, length, winning_player_one(base), _make_player_two(args.p2))


def _cmd_glue(args):
    pw = serialize.load_patchwork(args.file)
    if args.cert:
        return floppy_certificate(pw)
    if args.hat:
        return {"value": glue_hat(pw, *args.hat)}
    if args.check_only:
        return validate_patchwork(pw)
    return glue(pw)


def _count(text: str) -> int:
    """An integer option's value, ASCII digits only: ``int()`` would also read signs, spaces and ``_``."""
    return _digits(text, "an integer option")


@functools.cache
def _build_parser():
    """The argument parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(prog="floppymetrics", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="classify a metric document")
    p.add_argument("file")
    p.add_argument("--dot", action="store_true", help="emit DOT instead of the report")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("query", help="evaluate one derived distance")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--hat", nargs=2, metavar=("X", "Y"), help="shortest-path distance")
    group.add_argument("--check", nargs=2, metavar=("X", "Y"), help="extension lower envelope")
    group.add_argument("--ddot", nargs=2, metavar=("A,B", "U,V"), help="doubleton distance between pairs; " + _ESCAPES)
    p.add_argument("file")
    p.set_defaults(func=_cmd_query)

    p = sub.add_parser("floppy", help="floppiness report")
    p.add_argument("file")
    p.set_defaults(func=_cmd_floppy)

    p = sub.add_parser("step", help="one-step extension")
    p.add_argument("--pair", required=True, metavar="X,Y", help="vertex pair; " + _ESCAPES)
    p.add_argument("--r", required=True)
    p.add_argument("--mode", choices=["theorem", "proposition"], default="theorem")
    p.add_argument("file")
    p.set_defaults(func=_cmd_step)

    p = sub.add_parser("pstep", help="verify the step-extension properties")
    p.add_argument("--pair", required=True, metavar="X,Y", help="vertex pair; " + _ESCAPES)
    p.add_argument("--r", required=True)
    p.add_argument("file")
    p.set_defaults(func=_cmd_pstep)

    p = sub.add_parser("extend", help="extend to a full metric")
    p.add_argument("--order", default="lex", help="lex | maxgap | random:SEED")
    p.add_argument("--choice", default="midpoint", help="midpoint | set-file:PATH")
    p.add_argument("file")
    p.set_defaults(func=_cmd_extend)

    p = sub.add_parser("game", help="play the metric-extending game")
    p.add_argument("action", choices=["play"])
    p.add_argument("--p2", default="random:0", help="random:SEED | adversary | low | high | mid")
    p.add_argument("--lambda", dest="game_length", type=_count, default=None,
                   help="number of innings; the transcript keeps every inning, so memory grows with it")
    p.add_argument("file")
    p.set_defaults(func=_cmd_game)

    p = sub.add_parser("glue", help="glued-patchwork operations")
    group = p.add_mutually_exclusive_group()  # none of them: the glued metric
    group.add_argument("--cert", action="store_true", help="emit the floppiness certificate")
    group.add_argument("--check-only", dest="check_only", action="store_true", help="validate only")
    group.add_argument("--hat", nargs=2, metavar=("X", "Y"), help="closed-form glued distance")
    p.add_argument("file")
    p.set_defaults(func=_cmd_glue)

    p = sub.add_parser("gen", help="generate instances")
    p.set_defaults(func=lambda a: a.make(a))
    kinds = p.add_subparsers(dest="kind", required=True)  # each kind takes only its own options
    k = kinds.add_parser("cantor", help="truncated Cantor tree")
    k.add_argument("--depth", type=_count, default=2)
    k.set_defaults(make=lambda a: cantor_tree(a.depth))
    for kind, gen in (("path", path_metric), ("cycle", cycle_metric), ("star", star_metric), ("complete", complete_metric)):
        k = kinds.add_parser(kind, help=f"{kind} on n vertices, edges of weight scale")
        k.add_argument("--n", type=_count, default=4)
        k.add_argument("--scale", default="1")
        k.set_defaults(make=lambda a, gen=gen: gen(a.n, as_rational(a.scale)))
    k = kinds.add_parser("random", help="seeded random floppy metric")
    k.add_argument("--n", type=_count, default=4)
    k.add_argument("--density", default="1/2")
    k.add_argument("--seed", type=_count, default=0)
    k.add_argument("--scale", default="1")
    k.set_defaults(make=lambda a: random_floppy(a.n, as_rational(a.density), a.seed, scale=as_rational(a.scale)))

    return parser


def main(argv=None) -> int:
    try:
        try:
            args = _build_parser().parse_args(argv)  # a digits-only option raises MalformedInputError here
            result = args.func(args)
            text, code = (result if isinstance(result, str) else _text(result)), 0  # a DOT string as it is
        except MetricError as exc:
            text, code = _text(exc), 2 if isinstance(exc, MalformedInputError) else 1
    except SystemExit as exc:  # argparse: usage error, or --help
        return 2 if exc.code not in (0, None) else 0
    except ValueError as exc:
        if "integer string conversion" not in str(exc):  # CPython's digit limit, in a result or an error
            raise
        text, code = _text(MalformedInputError(
            "the result cannot be written: an integer in it is too long; set the environment variable"
            " PYTHONINTMAXSTRDIGITS to a higher digit limit, or to 0 for none")), 2
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # The reader closed stdout.  Point it at devnull so that the flush at
        # exit cannot fail again, as the Python ``signal`` docs advise.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
