"""Command-line interface; each ``gen`` and ``oracle`` kind is its own sub-command.

Exit codes: 0 = stable / found / ok, 2 = verified unstable or none exists
(witness or ``none`` on stdout), 1 = usage or input error.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys
from pathlib import Path
from typing import Optional, Sequence

from .cis import compute_cis, serialize_trace
from .errors import AshgError, GameFormatError
from .formats import parse_game, parse_partition, serialize_game, serialize_partition
from .gadgets import (
    PartitionInstance,
    example_six_player,
    parse_e3c,
    reduce_e3c,
    reduce_partition,
    solve_e3c,
    solve_partition,
)
from .stability import (
    BlockingWitness,
    DeviationMove,
    StabilityConcept,
    core_exists,
    find_cis_deviation,
    verify,
)

OK, ERROR, UNSTABLE = 0, 1, 2

_WEIGHT_RE = re.compile(r"[+-]?[0-9]+")


def _path(path: str) -> Path:
    if not path:  # Path("") is the current directory
        raise AshgError("empty file path")
    return Path(path)


def _write(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        _path(out).write_text(text, encoding="utf-8")


def _read(path: str) -> str:
    try:
        return _path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise GameFormatError(f"{path}: not UTF-8 text (byte {exc.start})") from None


def _parse_weights(spec: str) -> PartitionInstance:
    spec = spec.strip()
    tokens = spec.replace(",", " ").split()
    # ASCII digits only: int() alone also takes "1_0" and non-ASCII digits
    if not all(_WEIGHT_RE.fullmatch(t) for t in tokens):
        raise AshgError(f"bad weight list: {spec!r}")
    return PartitionInstance(tuple(_int(t, f"weight {k + 1}", AshgError) for k, t in enumerate(tokens)))


def _int(token: str, what: str, error) -> int:
    """``int(token)`` of a checked token; past int()'s digit limit, ``error`` names its length only."""
    try:
        return int(token)
    except ValueError:
        raise error(f"{what} too long: {len(token)} characters") from None


def _seed(token: str) -> int:
    # ASCII digits only, as in weight lists; int() alone takes "1_0" and " 10 "
    if not _WEIGHT_RE.fullmatch(token):
        raise argparse.ArgumentTypeError(f"invalid int value: {token!r}")
    return _int(token, "seed", argparse.ArgumentTypeError)


def _load_weights(args) -> PartitionInstance:
    if args.weights is not None:
        return _parse_weights(args.weights)
    return _parse_weights(_read(args.weights_file))


def _render_witness(game, witness) -> str:
    if isinstance(witness, DeviationMove):
        labs = " ".join(game.labels[p] for p in sorted(witness.target))
        return f"move {game.labels[witness.player]} -> {labs}".rstrip()
    if isinstance(witness, BlockingWitness):
        return "blocking " + " ".join(game.labels[p] for p in sorted(witness.coalition))
    return "pareto-dominating:\n" + serialize_partition(game, witness).rstrip()  # else a Partition


def cmd_gen_example6(args) -> int:
    _write(serialize_game(example_six_player(), default=-33), args.out)
    return OK


def cmd_gen_e3c(args) -> int:
    gadget = reduce_e3c(parse_e3c(_read(args.spec)))
    _write(serialize_game(gadget.game, default=-33), args.out)
    return OK


def cmd_gen_partition(args) -> int:
    # game file plus the grand-coalition partition file
    gadget, grand = reduce_partition(_load_weights(args))
    _write(serialize_game(gadget.game, default=0), args.out)
    path = args.partition_out
    if path is None and args.out is not None:
        path = args.out + ".partition"
    _write(serialize_partition(gadget.game, grand), path)  # stdout when neither path is given
    return OK


def cmd_solve_cis(args) -> int:
    game = parse_game(_read(args.game))
    partition, trace = compute_cis(game, seed=args.seed)
    # bug trap: the output must verify before it is reported
    if find_cis_deviation(game, partition) is not None:
        print("internal error: produced partition is not CIS stable", file=sys.stderr)
        return ERROR
    _write(serialize_partition(game, partition), args.out)
    if args.trace or args.trace_out is not None:
        _write(serialize_trace(game, trace), args.trace_out)
    return OK


def cmd_verify(args) -> int:
    game = parse_game(_read(args.game))
    partition = parse_partition(_read(args.partition), game)
    verdict = verify(game, partition, StabilityConcept(args.concept))
    if verdict.stable:
        print("stable")
        return OK
    print(_render_witness(game, verdict.witness))
    return UNSTABLE


def cmd_search(args) -> int:
    game = parse_game(_read(args.game))
    found = core_exists(game, strict=args.concept == "strict-core")
    if found is None:
        print("none")
        return UNSTABLE
    sys.stdout.write(serialize_partition(game, found))
    return OK


def cmd_oracle_e3c(args) -> int:
    cover = solve_e3c(parse_e3c(_read(args.spec)))
    if cover is None:
        print("none")
        return UNSTABLE
    print("cover: " + " ".join(str(k) for k in cover))
    return OK


def cmd_oracle_partition(args) -> int:
    split = solve_partition(_load_weights(args))
    if split is None:
        print("none")
        return UNSTABLE
    print("A1: " + " ".join(str(i) for i in split))
    return OK


def _add_weights(p: argparse.ArgumentParser) -> None:
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--weights", "-w", help="comma-separated weights")
    group.add_argument("--weights-file", help="one-integer-per-line weights file")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ashg",
        description="Additively separable hedonic games: solve, verify, generate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a gadget game file")
    kinds = gen.add_subparsers(dest="kind", required=True)
    kinds.add_parser("example6", help="the six-player empty-core game").set_defaults(func=cmd_gen_example6)
    p = kinds.add_parser("e3c", help="Exact-3-Cover gadget")
    p.add_argument("--spec", required=True, help="exact-cover spec file")
    p.set_defaults(func=cmd_gen_e3c)
    p = kinds.add_parser("partition", help="PARTITION gadget and its grand-coalition partition")
    _add_weights(p)
    p.add_argument("--partition-out", help="partition file path (default OUT.partition or stdout)")
    p.set_defaults(func=cmd_gen_partition)
    for p in kinds.choices.values():
        p.add_argument("--out", "-o", help="game file path (default stdout)")

    p = sub.add_parser("solve-cis", help="compute a contractually individually stable partition")
    p.add_argument("game")
    p.add_argument("--seed", type=_seed, help="seeded player pick order")
    p.add_argument("--trace", action="store_true", help="also emit the construction trace")
    p.add_argument("--trace-out", help="trace file path; implies --trace (default stdout)")
    p.add_argument("--out", "-o", help="partition file path (default stdout)")
    p.set_defaults(func=cmd_solve_cis)

    p = sub.add_parser("verify", help="verify a partition against a stability concept")
    p.add_argument("game")
    p.add_argument("partition")
    p.add_argument("--concept", required=True, choices=sorted(c.value for c in StabilityConcept))
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("search", help="exhaustively search for a stable partition")
    p.add_argument("game")
    p.add_argument("--concept", required=True, choices=["core", "strict-core"])
    p.set_defaults(func=cmd_search)

    oracle = sub.add_parser("oracle", help="brute-force solve a source problem instance")
    kinds = oracle.add_subparsers(dest="kind", required=True)
    p = kinds.add_parser("e3c", help="first exact cover, by triple index")
    p.add_argument("--spec", required=True, help="exact-cover spec file")
    p.set_defaults(func=cmd_oracle_e3c)
    p = kinds.add_parser("partition", help="first equal split, by weight index")
    _add_weights(p)
    p.set_defaults(func=cmd_oracle_partition)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        # argparse exits with status 2 on usage errors; remap to the
        # error code so 2 stays reserved for "verified unstable / none"
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return OK if exc.code == 0 else ERROR
    try:
        return args.func(args)
    except (AshgError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return ERROR


if __name__ == "__main__":
    sys.exit(main())
