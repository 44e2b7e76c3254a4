"""Library entry points: well-typed arguments with mangled elements give a result or an
``AshgError`` with a short message, never another exception."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ashg
from ashg import TraceStep

GAME = ashg.Game(["a", "b", "c"])
E3C = ashg.reduce_e3c(ashg.E3CInstance(tuple("123456"), tuple(map(frozenset, ["123", "456", "124"]))))
SPLIT = ashg.reduce_partition(ashg.PartitionInstance((1, 1, 2)))[0]
TRACE = ashg.compute_cis(GAME)[1]

# each entry point with well-typed arguments; a container argument keeps its type, only its elements change
CALLS = {
    "validate_partition": (lambda p: ashg.validate_partition(GAME, p), [[0, 1], [2]]),
    "Partition": (ashg.Partition, [[0, 1], [2]]),
    "Partition.of_labels": (lambda groups: ashg.Partition.of_labels(GAME, groups), [["a", "b"], ["c"]]),
    "Game.index": (GAME.index, "a"),
    "Game.label": (GAME.label, 0),
    "Game.value": (GAME.value, 0, 1),
    "utility": (lambda c, p: ashg.utility(GAME, c, p), [0, 1], 0),
    "partition_utility": (lambda part, p: ashg.partition_utility(GAME, part, p), [[0, 1], [2]], 2),
    "friends": (lambda p, pool: ashg.friends(GAME, p, pool), 0, [1, 2]),
    "witness_partition_e3c": (lambda cover: ashg.witness_partition_e3c(E3C, cover), [0, 1]),
    "witness_partition_split": (lambda half: ashg.witness_partition_split(SPLIT, half), [0, 1]),
    "E3CInstance": (ashg.E3CInstance, tuple("123456"), tuple(map(frozenset, ["123", "456"]))),
    "replay_trace": (lambda trace: ashg.replay_trace(GAME, trace), TRACE),
}
JUNK = st.sampled_from([[0], [[0]], ["a"], "a", 0, 1, -1, 7, True, False, 10**5000, "x" * 10**6, ["a", 0]])
CONTAINERS = (list, tuple, frozenset)


@st.composite
def mangled(draw, value):
    """``value`` with some elements replaced by junk, at any depth; a container stays a container."""
    if not isinstance(value, CONTAINERS):
        return value
    items = [draw(JUNK) if draw(st.integers(0, 3)) == 0 else draw(mangled(v)) for v in value]
    if isinstance(value, TraceStep):
        return TraceStep(*items)
    if isinstance(value, frozenset):
        try:
            return frozenset(items)
        except TypeError:  # an unhashable element: the triple stays a list
            return items
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
