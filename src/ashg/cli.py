"""Command-line interface.

Exit codes: 0 = stable / found / ok, 2 = verified unstable or none exists
(witness or ``none`` on stdout), 1 = usage or input error.
"""

from __future__ import annotations

import argparse
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
from .game import Partition
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


def _write(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise GameFormatError(f"{path}: not UTF-8 text (byte {exc.start})") from None


def _parse_weights(spec: str) -> PartitionInstance:
    spec = spec.strip()
    tokens = spec.replace(",", " ").split()
    # ASCII digits only: int() alone also takes "1_0" and non-ASCII digits
    if not all(_WEIGHT_RE.fullmatch(t) for t in tokens):
        raise AshgError(f"bad weight list: {spec!r}")
    return PartitionInstance(tuple(int(t) for t in tokens))


def _seed(token: str) -> int:
    # ASCII digits only, as in weight lists; int() alone takes "1_0" and " 10 "
    if not _WEIGHT_RE.fullmatch(token):
        raise argparse.ArgumentTypeError(f"invalid int value: {token!r}")
    return int(token)


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
    if isinstance(witness, Partition):
        return "pareto-dominating:\n" + serialize_partition(game, witness).rstrip()
    raise AssertionError(f"unrenderable witness: {witness!r}")


def cmd_gen(args) -> int:
    if args.kind == "example6":
        game = example_six_player()
        _write(serialize_game(game, default=-33), args.out)
        return OK
    if args.kind == "e3c":
        inst = parse_e3c(_read(args.spec))
        gadget = reduce_e3c(inst)
        _write(serialize_game(gadget.game, default=-33), args.out)
        return OK
    # kind == "partition": game file plus the grand-coalition partition file
    inst = _load_weights(args)
    gadget, grand = reduce_partition(inst)
    _write(serialize_game(gadget.game, default=0), args.out)
    partition_text = serialize_partition(gadget.game, grand)
    if args.partition_out is not None:
        _write(partition_text, args.partition_out)
    elif args.out is not None:
        _write(partition_text, args.out + ".partition")
    else:
        sys.stdout.write(partition_text)
    return OK


def cmd_solve_cis(args) -> int:
    game = parse_game(_read(args.game))
    partition, trace = compute_cis(game, seed=args.seed)
    # bug trap: the output must verify before it is reported
    if find_cis_deviation(game, partition) is not None:
        print("internal error: produced partition is not CIS stable", file=sys.stderr)
        return ERROR
    _write(serialize_partition(game, partition), args.out)
    if args.trace:
        _write(serialize_trace(game, trace), args.trace_out)
    return OK


_CONCEPTS = {c.value: c for c in StabilityConcept}


def cmd_verify(args) -> int:
    game = parse_game(_read(args.game))
    partition = parse_partition(_read(args.partition), game)
    verdict = verify(game, partition, _CONCEPTS[args.concept])
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


def cmd_oracle(args) -> int:
    if args.kind == "e3c":
        inst = parse_e3c(_read(args.spec))
        cover = solve_e3c(inst)
        if cover is None:
            print("none")
            return UNSTABLE
        print("cover: " + " ".join(str(k) for k in cover))
        return OK
    inst = _load_weights(args)
    split = solve_partition(inst)
    if split is None:
        print("none")
        return UNSTABLE
    print("A1: " + " ".join(str(i) for i in split))
    return OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ashg",
        description="Additively separable hedonic games: solve, verify, generate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a gadget game file")
    p.add_argument("kind", choices=["example6", "e3c", "partition"])
    p.add_argument("--spec", help="exact-cover spec file (kind=e3c)")
    p.add_argument("--weights", "-w", help="comma-separated weights (kind=partition)")
    p.add_argument("--weights-file", help="one-integer-per-line weights file")
    p.add_argument("--out", "-o", help="game file path (default stdout)")
    p.add_argument("--partition-out", help="partition file path (kind=partition)")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("solve-cis", help="compute a contractually individually stable partition")
    p.add_argument("game")
    p.add_argument("--seed", type=_seed, help="seeded player pick order")
    p.add_argument("--trace", action="store_true", help="also emit the construction trace")
    p.add_argument("--trace-out", help="trace file path (default stdout)")
    p.add_argument("--out", "-o", help="partition file path (default stdout)")
    p.set_defaults(func=cmd_solve_cis)

    p = sub.add_parser("verify", help="verify a partition against a stability concept")
    p.add_argument("game")
    p.add_argument("partition")
    p.add_argument("--concept", required=True, choices=sorted(_CONCEPTS))
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("search", help="exhaustively search for a stable partition")
    p.add_argument("game")
    p.add_argument("--concept", required=True, choices=["core", "strict-core"])
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("oracle", help="brute-force solve a source problem instance")
    p.add_argument("kind", choices=["e3c", "partition"])
    p.add_argument("--spec", help="exact-cover spec file (kind=e3c)")
    p.add_argument("--weights", "-w", help="comma-separated weights (kind=partition)")
    p.add_argument("--weights-file", help="one-integer-per-line weights file")
    p.set_defaults(func=cmd_oracle)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        # argparse exits with status 2 on usage errors; remap to the
        # error code so 2 stays reserved for "verified unstable / none"
        args = parser.parse_args(argv)
        if args.command == "gen" and args.kind == "e3c" and not args.spec:
            parser.error("gen e3c requires --spec")
        if args.command == "oracle" and args.kind == "e3c" and not args.spec:
            parser.error("oracle e3c requires --spec")
        needs_weights = (args.command == "gen" and args.kind == "partition") or (
            args.command == "oracle" and args.kind == "partition"
        )
        if needs_weights and args.weights is None and args.weights_file is None:
            parser.error(f"{args.command} partition requires --weights or --weights-file")
    except SystemExit as exc:
        return OK if exc.code == 0 else ERROR
    try:
        return args.func(args)
    except (AshgError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return ERROR


if __name__ == "__main__":
    sys.exit(main())
