"""Library entry points: well-typed arguments with mangled elements give a result or an
``AshgError`` with a short message, never another exception."""

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ashg
from ashg import TraceStep

GAME = ashg.Game(["a", "b", "c"])
E3C = ashg.reduce_e3c(ashg.E3CInstance(tuple("123456"), tuple(map(frozenset, ["123", "456", "124"]))))
SPLIT = ashg.reduce_partition(ashg.PartitionInstance((1, 1, 2)))[0]
TRACE = ashg.compute_cis(GAME)[1]
PART = [[0, 1], [2]]
UNIVERSE, TRIPLES = tuple("123456"), tuple(map(frozenset, ["123", "456"]))


# each entry point with well-typed arguments; a container argument keeps its type, only its elements change
CALLS = {
    "validate_partition": (lambda p: ashg.validate_partition(GAME, p), PART),
    "Partition": (ashg.Partition, PART),
    "Partition.of_labels": (lambda groups: ashg.Partition.of_labels(GAME, groups), [["a", "b"], ["c"]]),
    "Partition.block_of": (ashg.Partition(PART).block_of, 2),
    "Game": (ashg.Game, ["a", "b", "c"], {("a", "b"): 1, ("b", "c"): -2}, 0),
    "Game.from_matrix": (ashg.Game.from_matrix, ["a", "b", "c"], [[0, 1, 1], [1, 0, 1], [1, 1, 0]]),
    "Game.index": (GAME.index, "a"),
    "Game.label": (GAME.label, 0),
    "Game.value": (GAME.value, 0, 1),
    "utility": (lambda c, p: ashg.utility(GAME, c, p), [0, 1], 0),
    "partition_utility": (lambda part, p: ashg.partition_utility(GAME, part, p), PART, 2),
    "friends": (lambda p, pool: ashg.friends(GAME, p, pool), 0, [1, 2]),
    "is_symmetric": (lambda: ashg.is_symmetric(GAME),),
    "is_strict": (lambda: ashg.is_strict(GAME),),
    "verify": (lambda p, concept: ashg.verify(GAME, p, concept), PART, "core"),
    "is_individually_rational": (lambda p: ashg.is_individually_rational(GAME, p), PART),
    "core_exists": (lambda strict: ashg.core_exists(GAME, strict), True),
    "compute_cis": (lambda seed: ashg.compute_cis(GAME, seed), 3),
    "replay_trace": (lambda trace: ashg.replay_trace(GAME, trace), TRACE),
    "serialize_trace": (lambda trace: ashg.serialize_trace(GAME, trace), TRACE),
    "serialize_partition": (lambda p: ashg.serialize_partition(GAME, p), PART),
    "serialize_game": (lambda default: ashg.serialize_game(GAME, default), 0),
    "example_six_player": (ashg.example_six_player,),
    "witness_partition_e3c": (lambda cover: ashg.witness_partition_e3c(E3C, cover), [0, 1]),
    "witness_partition_split": (lambda half: ashg.witness_partition_split(SPLIT, half), [0, 1]),
    "E3CInstance": (ashg.E3CInstance, UNIVERSE, TRIPLES),
    "reduce_e3c": (lambda u, t: ashg.reduce_e3c(ashg.E3CInstance(u, t)), UNIVERSE, TRIPLES),
    "solve_e3c": (lambda u, t: ashg.solve_e3c(ashg.E3CInstance(u, t)), UNIVERSE, TRIPLES),
    "PartitionInstance": (ashg.PartitionInstance, (1, 1, 2)),
    "reduce_partition": (lambda w: ashg.reduce_partition(ashg.PartitionInstance(w)), (1, 1, 2)),
    "solve_partition": (lambda w: ashg.solve_partition(ashg.PartitionInstance(w)), (1, 1, 2)),
}
CALLS.update({name: (lambda p, find=getattr(ashg, name): find(GAME, p), PART)
              for name in ashg.__all__ if name.startswith("find_")})
# public callables outside the property: records store what they are given (the concept enum
# is checked by ``verify``), and a parser's input is a whole text, which the format tests mangle
RECORDS = {"BlockingWitness", "DeviationMove", "GadgetGame", "StabilityConcept", "StabilityVerdict", "TraceStep"}
PARSERS = {"parse_game", "parse_partition", "parse_rational", "parse_e3c"}

JUNK = st.sampled_from([[0], [[0]], ["a"], "a", 0, 1, -1, 7, True, False, 10**5000, "x" * 10**6, ["a", 0]])
CONTAINERS = (list, tuple, frozenset, dict)


def _hashable(value) -> bool:
    try:
        hash(value)
    except TypeError:
        return False
    return True


@st.composite
def mangled(draw, value):
    """``value`` with some elements replaced by junk, at any depth; a container stays a container,
    and a dict key that the junk would make unhashable keeps its old form."""
    if not isinstance(value, CONTAINERS):
        return value

    def swap(v):
        return draw(JUNK) if draw(st.integers(0, 3)) == 0 else draw(mangled(v))

    if isinstance(value, dict):
        return {(new if _hashable(new := swap(k)) else k): swap(v) for k, v in value.items()}
    items = [swap(v) for v in value]
    if isinstance(value, TraceStep):
        return TraceStep(*items)
    if isinstance(value, frozenset):
        return frozenset(items) if _hashable(tuple(items)) else items  # an unhashable element: a list
    return type(value)(items)


@given(data=st.data(), name=st.sampled_from(sorted(CALLS)))
@settings(max_examples=300, deadline=None)
def test_mangled_arguments_give_a_result_or_a_short_ashg_error(data, name):
    call, *args = CALLS[name]
    args = [data.draw(mangled(a) if isinstance(a, CONTAINERS) else st.one_of(st.just(a), JUNK), label=f"arg {k}")
            for k, a in enumerate(args)]
    try:
        call(*args)
    except ashg.AshgError as exc:
        assert len(str(exc)) < 300


@pytest.mark.parametrize("name", sorted(CALLS))
def test_the_well_typed_arguments_are_accepted(name):
    call, *args = CALLS[name]
    call(*args)


def test_every_public_callable_is_mangled_or_exempt():
    public = {name for name in ashg.__all__ if callable(getattr(ashg, name))}
    errors = {name for name in public if isinstance(getattr(ashg, name), type)
              and issubclass(getattr(ashg, name), Exception)}
    assert not {name for name in ashg.__all__ if type(getattr(ashg, name)) is type(ashg)}  # no submodules
    assert public - errors - RECORDS - PARSERS == {name.split(".")[0] for name in CALLS}


@pytest.mark.parametrize("key", ["ab", ("a",), ("a", "b", "c"), 0], ids=["str", "one", "three", "int"])
def test_a_value_key_is_a_tuple_of_two_labels(key):
    with pytest.raises(ashg.GameFormatError, match=r"^a value's key is a pair of labels, not "):
        ashg.Game(["a", "b"], {key: 1})


@pytest.mark.parametrize("row", [iter([0, 1]), 7], ids=["iterator", "int"])
def test_a_matrix_row_without_a_length_is_a_shape_error(row):
    with pytest.raises(ashg.GameFormatError, match="^matrix shape does not match the player count$"):
        ashg.Game.from_matrix(["a", "b"], [row, [1, 0]])


def test_the_labels_are_checked_before_the_values():
    with pytest.raises(ashg.EmptyGame):
        ashg.Game([], [1])


def test_verify_takes_a_concept_or_its_value():
    game, part = ashg.example_six_player(), ashg.Partition.singletons(6)
    assert ashg.verify(game, part, "core") == ashg.verify(game, part, ashg.StabilityConcept.CORE)
    assert ashg.verify(game, part, "core").concept is ashg.StabilityConcept.CORE
    with pytest.raises(ashg.AshgError, match="^unknown stability concept: 'kore'$"):
        ashg.verify(game, part, "kore")


@pytest.mark.parametrize("seed, kind", [([0], "list"), (1.5, "float"), ("x", "str"), (True, "bool")])
def test_a_seed_is_none_or_an_int(seed, kind):
    with pytest.raises(ashg.AshgError, match=f"^a seed is an int or None, not a {kind}$"):
        ashg.compute_cis(GAME, seed=seed)


def test_e3c_elements_of_one_type_that_do_not_order_are_ordered_by_their_shown_form():
    universe = ((1,), ("a",), 3)
    assert ashg.E3CInstance(universe, (frozenset(universe),)).triples == (frozenset(universe),)
    with pytest.raises(ashg.InvalidInstance, match=r"^each triple needs 3 distinct universe elements: "
                                                   r"\[\('a',\), \(1,\), 4\]$"):
        ashg.E3CInstance(universe, (frozenset({(1,), ("a",), 4}),))


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="this Python writes ints of any length")
def test_a_universe_element_too_long_to_write_is_refused_by_the_reduction():
    big = 10**5000
    inst = ashg.E3CInstance((big, "2", "3"), (frozenset({big, "2", "3"}),))
    with pytest.raises(ashg.InvalidInstance, match="^a universe element is too long to name a player$"):
        ashg.reduce_e3c(inst)


@pytest.mark.parametrize("step, message", [
    (TraceStep("leader", 1, 0), "malformed leader step"),
    (TraceStep([0], 1, (0,)), "unknown trace event: a step of unknown kind"),
], ids=["int-players", "list-kind"])
def test_serialize_trace_refuses_what_replay_trace_refuses(step, message):
    with pytest.raises(ashg.InconsistentTrace, match=f"^{message}$"):
        ashg.serialize_trace(ashg.Game(["a"]), (step,))
