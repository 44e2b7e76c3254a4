"""Additively separable hedonic games: exact stability analysis toolkit."""

from .cis import CisTrace, TraceStep, compute_cis, replay_trace, serialize_trace
from .errors import (
    AshgError,
    DuplicatePlayer,
    EmptyCoalition,
    EmptyGame,
    GameFormatError,
    InconsistentTrace,
    InvalidInstance,
    InvalidPartition,
    MissingPlayer,
    NotACover,
    NotAnEqualSplit,
    PlayerNotInCoalition,
    TooLarge,
    UnknownPlayer,
)
from .formats import (
    parse_game,
    parse_partition,
    parse_rational,
    serialize_game,
    serialize_partition,
)
from .gadgets import (
    E3CInstance,
    GadgetGame,
    PartitionInstance,
    example_six_player,
    parse_e3c,
    reduce_e3c,
    reduce_partition,
    solve_e3c,
    solve_partition,
    witness_partition_e3c,
    witness_partition_split,
)
from .game import (
    Game,
    Partition,
    friends,
    is_strict,
    is_symmetric,
    partition_utility,
    utility,
    validate_partition,
)
from .stability import (
    BlockingWitness,
    DeviationMove,
    StabilityConcept,
    StabilityVerdict,
    core_exists,
    find_cis_deviation,
    find_csc_violation,
    find_is_deviation,
    find_nash_deviation,
    find_pareto_improvement,
    find_strongly_blocking,
    find_weakly_blocking,
    is_individually_rational,
    verify,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
