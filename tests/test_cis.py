"""The polynomial-time CIS solver: outputs, traces, and the stability guarantee."""

import random
import time

import pytest

import ashg
from ashg.cis import HelpersAdded, LatecomerJoined, LeaderChosen, NeededAdded
from ashg.errors import InconsistentTrace

from conftest import random_game


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
        assert trace.steps[0] == LeaderChosen(0, 1)
        assert trace.steps[1] == HelpersAdded(1, (1, 2, 4, 5))
        assert trace.steps[2] == LeaderChosen(3, 2)

    def test_all_zero_game_gives_singletons(self):
        g = ashg.Game(["a", "b", "c"])
        part, trace = ashg.compute_cis(g)
        assert part == ashg.Partition.singletons(3)
        assert all(isinstance(s, LeaderChosen) for s in trace.steps)

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
        assert LatecomerJoined(2, 1) in trace.steps

    def test_needed_player_absorption(self):
        # b is the leader's helper; c is liked by b and tolerated by a
        g = ashg.Game(["a", "b", "c"], {("a", "b"): 1, ("b", "c"): 1})
        part, trace = ashg.compute_cis(g)
        assert part == ashg.Partition.grand(3)
        assert NeededAdded(2, 1) in trace.steps

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
        trace = ashg.CisTrace((LeaderChosen(0, 1),))
        assert ashg.replay_trace(g, trace) == ashg.Partition.grand(1)

    def test_unknown_player(self):
        g = ashg.Game(["p"])
        with pytest.raises(InconsistentTrace):
            ashg.replay_trace(g, ashg.CisTrace((LeaderChosen(5, 1),)))

    def test_player_placed_twice(self):
        g = ashg.Game(["a", "b"])
        trace = ashg.CisTrace((LeaderChosen(0, 1), NeededAdded(0, 1)))
        with pytest.raises(InconsistentTrace):
            ashg.replay_trace(g, trace)

    def test_wrong_coalition_number(self):
        g = ashg.Game(["a", "b"])
        trace = ashg.CisTrace((LeaderChosen(0, 2),))
        with pytest.raises(InconsistentTrace):
            ashg.replay_trace(g, trace)

    def test_unplaced_players(self):
        g = ashg.Game(["a", "b"])
        with pytest.raises(InconsistentTrace):
            ashg.replay_trace(g, ashg.CisTrace((LeaderChosen(0, 1),)))

    def test_serialized_trace_lines(self, example6):
        _, trace = ashg.compute_cis(example6)
        lines = ashg.serialize_trace(example6, trace).splitlines()
        assert lines[0] == "leader 1 1"
        assert lines[1] == "helpers 1 2 3 5 6"
        assert lines[2] == "leader 4 2"


def check_role_conditions(game, trace):
    """Walk a trace asserting the admission rule each role was added under."""
    rows = [[game.value(i, j) for j in range(game.n)] for i in range(game.n)]
    placed = set()
    coalitions = []
    leader_of = {}
    for step in trace.steps:
        remaining = set(range(game.n)) - placed
        if isinstance(step, LeaderChosen):
            coalitions.append({step.player})
            leader_of[step.coalition] = step.player
            placed.add(step.player)
        elif isinstance(step, HelpersAdded):
            leader = leader_of[step.coalition]
            for p in step.players:
                assert rows[leader][p] > 0  # helpers are strictly liked
                coalitions[step.coalition - 1].add(p)
                placed.add(p)
        elif isinstance(step, NeededAdded):
            members = coalitions[step.coalition - 1]
            assert all(rows[i][step.player] >= 0 for i in members)
            assert any(rows[i][step.player] > 0 for i in members)
            members.add(step.player)
            placed.add(step.player)
        elif isinstance(step, LatecomerJoined):
            members = coalitions[step.coalition - 1]
            assert all(rows[i][step.player] == 0 for i in members)
            pool_best = sum(
                rows[step.player][b] for b in remaining if rows[step.player][b] > 0
            )
            joined = sum(rows[step.player][b] for b in members)
            assert joined > pool_best
            members.add(step.player)
            placed.add(step.player)


def test_role_conditions_hold_on_random_games():
    rng = random.Random(23)
    for _ in range(200):
        n = rng.randint(1, 10)
        g = random_game(rng, n)
        seed = rng.choice([None, rng.randint(0, 999)])
        part, trace = ashg.compute_cis(g, seed=seed)
        check_role_conditions(g, trace)
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
