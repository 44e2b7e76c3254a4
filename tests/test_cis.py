"""The polynomial-time CIS solver: outputs, traces, and the stability guarantee."""

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ashg
from ashg.cis import KINDS, TraceStep
from ashg.errors import InconsistentTrace

from conftest import random_game, random_rational_rows, reference_cis, sparse_game


def blocks_by_label(game, partition):
    return {frozenset(game.labels[p] for p in b) for b in partition.blocks}


class TestComputeCis:
    def test_example_game(self, example6):
        part, trace = ashg.compute_cis(example6)
        assert blocks_by_label(example6, part) == {
            frozenset("12356"),
            frozenset("4"),
        }
        # leader 1 takes helpers {2,3,5,6}; 4 is barred and founds a singleton
        assert trace.steps[0] == TraceStep("leader", 1, (0,))
        assert trace.steps[1] == TraceStep("helpers", 1, (1, 2, 4, 5))
        assert trace.steps[2] == TraceStep("leader", 2, (3,))

    def test_all_zero_game_gives_singletons(self):
        g = ashg.Game(["a", "b", "c"])
        part, trace = ashg.compute_cis(g)
        assert part == ashg.Partition.singletons(3)
        assert all(s.kind == "leader" for s in trace.steps)

    def test_split_gadget(self, split_gadget_112):
        gadget, _ = split_gadget_112
        part, _ = ashg.compute_cis(gadget.game)
        assert blocks_by_label(gadget.game, part) == {
            frozenset({"x1", "y1", "y2", "z1", "z2", "z3"}),
            frozenset({"x2"}),
        }

    def test_latecomer_join(self):
        # leader a recruits b; c likes nobody left but gains 2 in {a,b}, whose
        # members are both indifferent to c
        g = ashg.Game(["a", "b", "c"], {("a", "b"): 1, ("b", "a"): 1, ("c", "a"): 1, ("c", "b"): 1})
        part, trace = ashg.compute_cis(g)
        assert part == ashg.Partition.grand(3)
        assert TraceStep("latecomer", 1, (2,)) in trace.steps

    def test_needed_player_absorption(self):
        # b is the leader's helper; c is liked by b and tolerated by a
        g = ashg.Game(["a", "b", "c"], {("a", "b"): 1, ("b", "c"): 1})
        part, trace = ashg.compute_cis(g)
        assert part == ashg.Partition.grand(3)
        assert TraceStep("needed", 1, (2,)) in trace.steps

    def test_nonir_output_regression(self, example6):
        # player 2 ends at 6 + 5 - 33 - 33 inside the leader's coalition
        part, _ = ashg.compute_cis(example6)
        two = example6.index("2")
        assert ashg.partition_utility(example6, part, two) == -55
        ok, violator = ashg.is_individually_rational(example6, part)
        assert not ok and violator == two


class TestOrderPolicy:
    def test_seeded_runs_are_reproducible(self, example6):
        a = ashg.compute_cis(example6, seed=42)
        b = ashg.compute_cis(example6, seed=42)
        assert a == b

    def test_every_order_yields_cis(self, example6):
        for seed in range(30):
            part, _ = ashg.compute_cis(example6, seed=seed)
            assert ashg.find_cis_deviation(example6, part) is None


class TestTraceReplay:
    def test_replay_matches_output(self, example6, split_gadget_112):
        gadget, _ = split_gadget_112
        for g in (example6, gadget.game):
            for seed in (None, 3, 9):
                part, trace = ashg.compute_cis(g, seed=seed)
                assert ashg.replay_trace(g, trace) == part

    def test_one_player_trace(self):
        g = ashg.Game(["p"])
        trace = ashg.CisTrace((TraceStep("leader", 1, (0,)),))
        assert ashg.replay_trace(g, trace) == ashg.Partition.grand(1)

    def test_unknown_player(self):
        g = ashg.Game(["p"])
        with pytest.raises(InconsistentTrace):
            ashg.replay_trace(g, ashg.CisTrace((TraceStep("leader", 1, (5,)),)))

    def test_player_placed_twice(self):
        g = ashg.Game(["a", "b"])
        trace = ashg.CisTrace((TraceStep("leader", 1, (0,)), TraceStep("needed", 1, (0,))))
        with pytest.raises(InconsistentTrace):
            ashg.replay_trace(g, trace)

    def test_wrong_coalition_number(self):
        g = ashg.Game(["a", "b"])
        trace = ashg.CisTrace((TraceStep("leader", 2, (0,)),))
        with pytest.raises(InconsistentTrace):
            ashg.replay_trace(g, trace)

    def test_unplaced_players(self):
        g = ashg.Game(["a", "b"])
        with pytest.raises(InconsistentTrace):
            ashg.replay_trace(g, ashg.CisTrace((TraceStep("leader", 1, (0,)),)))

    @pytest.mark.parametrize("step", [
        ("leader", 1, (1,)),                    # a plain tuple, not a TraceStep
        5,
        TraceStep("founder", 1, (1,)),         # an unknown kind
        TraceStep("helpers", "1", (1,)),       # a coalition that is not an int
        TraceStep("needed", 1.0, (1,)),
        TraceStep("helpers", 1, 5),            # players that are not a tuple
        TraceStep("needed", 1, [1]),
        TraceStep("needed", 1, ()),            # not one player outside helpers
        TraceStep("latecomer", 1, (1, 2)),
        TraceStep("needed", 1, (1.0,)),        # a player that is not an int
    ], ids=["plain-tuple", "not-a-step", "unknown-kind", "str-coalition", "float-coalition",
            "int-players", "list-players", "no-player", "two-players", "float-player"])
    def test_malformed_step_is_an_inconsistent_trace(self, step):
        g = ashg.Game(["a", "b", "c"])
        trace = ashg.CisTrace((TraceStep("leader", 1, (0,)), step))
        with pytest.raises(InconsistentTrace):
            ashg.replay_trace(g, trace)

    def test_serialized_trace_lines(self, example6):
        _, trace = ashg.compute_cis(example6)
        lines = ashg.serialize_trace(example6, trace).splitlines()
        assert lines[0] == "leader 1 1"
        assert lines[1] == "helpers 1 2 3 5 6"
        assert lines[2] == "leader 4 2"


FIELDS = st.one_of(st.integers(-1, 6), st.booleans(), st.none(), st.floats(0, 6), st.text(max_size=2))
STEPS = st.one_of(
    st.builds(TraceStep, st.sampled_from(KINDS) | st.text(max_size=9), st.integers(0, 6) | FIELDS,
              st.lists(st.integers(-1, 6) | FIELDS, max_size=3).map(tuple) | FIELDS),
    st.tuples(st.sampled_from(KINDS), st.integers(1, 3), st.tuples(st.integers(0, 4))),
)


@given(data=st.data(), n=st.integers(1, 5), game_seed=st.integers(0, 99), seed=st.none() | st.integers(0, 99))
@settings(max_examples=300, deadline=None)
def test_replay_returns_a_partition_or_an_inconsistent_trace(data, n, game_seed, seed):
    """A valid trace prefix followed by arbitrary steps replays or fails as an input error."""
    game = random_game(random.Random(game_seed), n)
    valid = ashg.compute_cis(game, seed=seed)[1].steps
    steps = valid[:data.draw(st.integers(0, len(valid)))] + tuple(data.draw(st.lists(STEPS, max_size=4)))
    try:
        part = ashg.replay_trace(game, ashg.CisTrace(steps))
    except InconsistentTrace:
        return
    assert sorted(p for b in part.blocks for p in b) == list(range(n))


def check_role_conditions(game, trace, seed=None):
    """Walk a trace asserting the admission rule each role was added under.

    Also asserts the order contract: every leader or latecomer is the first
    unplaced player in the pick order, every needed player is the
    lowest-index one the coalition admits, and an absorption phase ends only
    when the coalition admits nobody left.
    """
    n = game.n
    rows = [[game.value(i, j) for j in range(n)] for i in range(n)]
    order = list(range(n))
    if seed is not None:
        random.Random(seed).shuffle(order)
    placed = set()
    coalitions = []
    leader_of = {}
    absorbing = None  # members of the coalition whose absorption phase is open

    def first_admitted(members):
        for j in range(n):
            if j not in placed and all(rows[i][j] >= 0 for i in members) and any(
                rows[i][j] > 0 for i in members
            ):
                return j
        return None

    for kind, k, players in trace.steps:
        remaining = set(range(n)) - placed
        if kind != "helpers":
            assert len(players) == 1
        if kind in ("leader", "latecomer"):
            if absorbing is not None:
                assert first_admitted(absorbing) is None
            assert players[0] == next(p for p in order if p not in placed)
        if kind == "leader":
            coalitions.append(set(players))
            leader_of[k] = players[0]
            placed.update(players)
            absorbing = coalitions[-1]
        elif kind == "helpers":
            leader = leader_of[k]
            for p in players:
                assert rows[leader][p] > 0  # helpers are strictly liked
                coalitions[k - 1].add(p)
                placed.add(p)
        elif kind == "needed":
            (p,) = players
            members = coalitions[k - 1]
            assert members is absorbing
            assert all(rows[i][p] >= 0 for i in members)
            assert any(rows[i][p] > 0 for i in members)
            assert p == first_admitted(members)
            members.add(p)
            placed.add(p)
        else:
            assert kind == "latecomer"
            (p,) = players
            members = coalitions[k - 1]
            assert all(rows[i][p] == 0 for i in members)
            pool_best = sum(rows[p][b] for b in remaining if rows[p][b] > 0)
            joined = sum(rows[p][b] for b in members)
            assert joined > pool_best
            members.add(p)
            placed.add(p)
            absorbing = members
    if absorbing is not None:
        assert first_admitted(absorbing) is None


def test_role_conditions_hold_on_random_games():
    rng = random.Random(23)
    for _ in range(200):
        n = rng.randint(1, 10)
        g = random_game(rng, n)
        seed = rng.choice([None, rng.randint(0, 999)])
        part, trace = ashg.compute_cis(g, seed=seed)
        check_role_conditions(g, trace, seed)
        assert ashg.replay_trace(g, trace) == part
    # sparse games: long absorption phases and many latecomers
    for n in (50, 100, 200, 300):
        g = random_game(rng, n, density=0.02)
        for seed in (None, rng.randint(0, 999)):
            part, trace = ashg.compute_cis(g, seed=seed)
            check_role_conditions(g, trace, seed)
            assert ashg.replay_trace(g, trace) == part


def test_cis_guarantee_random_batch():
    rng = random.Random(29)
    for _ in range(300):
        n = rng.randint(1, 10)
        g = random_game(rng, n)
        for seed in (None, rng.randint(0, 10**6)):
            part, _ = ashg.compute_cis(g, seed=seed)
            assert ashg.find_cis_deviation(g, part) is None, (ashg.serialize_game(g), part)


def test_runtime_smoke_large_game():
    rng = random.Random(31)
    g = random_game(rng, 200)
    start = time.time()
    part, _ = ashg.compute_cis(g)
    assert time.time() - start < 10
    assert sum(len(b) for b in part.blocks) == 200


# --- differential tests against the rescanning reference -------------------


def assert_matches_reference(game, seed):
    part, trace = ashg.compute_cis(game, seed=seed)
    ref_part, ref_trace = reference_cis(game, seed=seed)
    assert part.blocks == ref_part.blocks, (ashg.serialize_game(game), seed)
    assert trace.steps == ref_trace.steps, (ashg.serialize_game(game), seed)


def test_matches_reference_on_criterion_3_corpus():
    rng = random.Random(2024)
    for _ in range(1000):
        n = rng.randint(1, 12)
        game = random_game(rng, n, lo=-10, hi=10, density=0.5)
        for seed in [None] + [rng.randint(0, 2**32) for _ in range(20)]:
            assert_matches_reference(game, seed)


@pytest.mark.parametrize("n, default", [(50, 0), (150, 0), (400, 0), (150, -1)],
                         ids=["50", "150", "400", "150-default-1"])
def test_matches_reference_on_sparse_games(n, default):
    rng = random.Random(n)
    game = sparse_game(rng, n, degree=8)
    if default:  # the listed values stay; every other pair takes the default
        values = {(game.labels[i], game.labels[j]): game.value(i, j) for i, row in enumerate(game.rows)
                  for j in row}
        game = ashg.Game(game.labels, values, default=default)
    for seed in [None] + [rng.randint(0, 2**32) for _ in range(3)]:
        assert_matches_reference(game, seed)


# player p2 joins {p0,p3,p5} as a latecomer under seed 4; the output is not
# CIS stable (a known defect of the construction, reproduced on purpose)
BUG6 = {
    ("p0", "p1"): -10, ("p0", "p3"): 9, ("p0", "p5"): 7, ("p1", "p3"): 1,
    ("p1", "p4"): 4, ("p2", "p1"): 5, ("p2", "p3"): 10, ("p2", "p4"): 8,
    ("p2", "p5"): 1, ("p3", "p5"): 5, ("p5", "p0"): 6,
}


def test_matches_reference_on_rational_games(example6):
    rng = random.Random(41)
    for _ in range(100):
        n = rng.randint(1, 12)
        game = ashg.Game.from_matrix([f"p{i}" for i in range(n)], random_rational_rows(rng, n))
        for seed in (None, rng.randint(0, 2**32)):
            assert_matches_reference(game, seed)
    for seed in [None] + list(range(30)):
        assert_matches_reference(example6, seed)
    bug6 = ashg.Game([f"p{i}" for i in range(6)], BUG6)
    assert_matches_reference(bug6, 4)


@given(data=st.data(), n=st.integers(1, 9), seed=st.none() | st.integers(0, 2**32))
@settings(max_examples=300, deadline=None)
def test_matches_reference_property(data, n, seed):
    # values in -3..3 make ties, zeros and vetoes common
    values = data.draw(st.lists(st.integers(-3, 3), min_size=n * n, max_size=n * n))
    rows = [[0 if i == j else values[i * n + j] for j in range(n)] for i in range(n)]
    assert_matches_reference(ashg.Game.from_matrix([f"p{i}" for i in range(n)], rows), seed)
