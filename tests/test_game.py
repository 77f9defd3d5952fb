from fractions import Fraction

import pytest

from floppymetrics import (
    PLAYER_I_WINS,
    PLAYER_II_WINS,
    ChoiceSet,
    Move,
    PartialMetric,
    adversary_player_two,
    pair,
    play,
    replay_sabotage,
    sabotage_witness,
    validate,
    winning_player_one,
)
from floppymetrics.errors import (
    MalformedInputError,
    MissingChoiceSetError,
    NotFloppyError,
    NotGraphMetricError,
)
from floppymetrics.game import (
    ProbeSecondPlayer,
    RandomSecondPlayer,
    ScriptedFirstPlayer,
    accumulate,
)
from floppymetrics.generators import cantor_tree, random_floppy

from conftest import metric_state


class TestChoiceSet:
    def test_points_and_intervals(self):
        cs = ChoiceSet.of_points(1, "3/2")
        assert cs.contains(Fraction(3, 2))
        assert not cs.contains(2)
        iv = ChoiceSet.open_interval(1, 2)
        assert iv.contains(Fraction(3, 2))
        assert not iv.contains(1) and not iv.contains(2)

    def test_unbounded_interval(self):
        cs = ChoiceSet.open_interval(5)
        assert cs.contains(10**9)
        assert cs.diameter() == float("inf")

    def test_diameter(self):
        assert ChoiceSet.of_points(1, 100).diameter() == 99
        assert ChoiceSet.open_interval(1, 3).diameter() == 2

    def test_unbounded_diameter_past_float_range(self):
        # the lower bound is no float; the diameter is still inf, not an OverflowError
        assert ChoiceSet(intervals=[(2**1100, None)]).diameter() == float("inf")
        assert ChoiceSet(points=[1], intervals=[(2**1100, None)]).diameter() == float("inf")

    def test_rejects_empty_and_degenerate(self):
        with pytest.raises(MalformedInputError):
            ChoiceSet()
        with pytest.raises(MalformedInputError):
            ChoiceSet.open_interval(3, 2)
        with pytest.raises(MalformedInputError):
            ChoiceSet.of_points(0)

    @pytest.mark.parametrize(
        "kwargs",
        [{"points": "12"}, {"intervals": ["12"]}, {"intervals": [(1,)]}, {"points": 5}, {"points": {"3": 1}}],
        ids=["string-points", "string-interval", "one-item-interval", "int-points", "dict-points"],
    )
    def test_rejects_malformed_shapes(self, kwargs):
        """Points are a list, tuple, set or frozenset, intervals a list or tuple of 2-item (lo, hi); a string
        used to be read as its digits and a short interval raised a bare ValueError."""
        with pytest.raises(MalformedInputError):
            ChoiceSet(**kwargs)

    def test_element_far_from(self):
        cs = ChoiceSet.of_points(1, 100)
        assert cs.element_far_from(Fraction(1), Fraction(2)) == 100
        assert cs.element_far_from(Fraction(50), Fraction(60)) is None
        iv = ChoiceSet.open_interval(1, 10)
        v = iv.element_far_from(Fraction(2), Fraction(3))
        assert v is not None and abs(v - 2) > 3 and iv.contains(v)

    def test_element_far_from_whenever_three_gaps_fit_in_the_diameter(self):
        """sabotage_witness relies on this: 3 * gap < diameter() means a member more than gap from any centre."""
        import random

        rng = random.Random(11)

        def rational(top):
            den = rng.choice((1, 2, 3, 7))
            return Fraction(rng.randrange(top * den), den)

        fired = 0
        for _ in range(3000):
            points = [rational(40) + 1 for _ in range(rng.randrange(3))]
            intervals = []
            for _ in range(rng.randrange(3) if points else rng.randrange(1, 3)):
                lo = rational(40)
                intervals.append((lo, None if rng.random() < 0.15 else lo + rational(20) + Fraction(1, 5)))
            cs = ChoiceSet(points=points, intervals=intervals)
            center, gap = rational(50), rational(15)
            if 3 * gap < cs.diameter():
                fired += 1
                v = cs.element_far_from(center, gap)
                assert v is not None and cs.contains(v) and abs(v - center) > gap, (cs, center, gap)
        assert fired > 1000

    def test_sample_is_member_and_seeded(self):
        import random

        cs = ChoiceSet(points=frozenset([Fraction(7)]), intervals=((Fraction(1), Fraction(2)),))
        a = [cs.sample(random.Random(5)) for _ in range(10)]
        b = [cs.sample(random.Random(5)) for _ in range(10)]
        assert a == b
        assert all(cs.contains(v) for v in a)


class TestReferee:
    def test_winning_player_beats_random(self, h_graph):
        t = play(h_graph, 3, winning_player_one(h_graph), RandomSecondPlayer(0))
        assert t.verdict == PLAYER_I_WINS
        assert t.reason.kind == "FULL_METRIC"
        relation, conflict = accumulate(h_graph, t.moves)
        assert conflict is None
        rep = validate(relation)
        assert rep.full and rep.graph_metric

    def test_short_game_loses_on_missing_pair(self, h_graph):
        t = play(h_graph, 2, winning_player_one(h_graph), RandomSecondPlayer(0))
        assert t.verdict == PLAYER_II_WINS
        assert t.reason.kind == "MISSING_PAIR"

    def test_extra_innings_are_burned_safely(self, h_graph):
        t = play(h_graph, 5, winning_player_one(h_graph), RandomSecondPlayer(1))
        assert t.verdict == PLAYER_I_WINS
        assert len(t.moves) == 5

    def test_multivalued_pair_loses_for_player_one(self, path_abc):
        script = [
            (pair("a", "c"), ChoiceSet.of_points(Fraction(3, 2))),
            (pair("a", "c"), ChoiceSet.of_points(Fraction(7, 4))),
        ]
        t = play(path_abc, 2, ScriptedFirstPlayer(script), ProbeSecondPlayer("mid"))
        assert t.verdict == PLAYER_II_WINS
        assert t.reason.kind == "MULTIVALUED_PAIR"

    def test_repeated_pair_same_value_is_fine(self, path_abc):
        script = [
            (pair("a", "c"), ChoiceSet.of_points(Fraction(3, 2))),
            (pair("a", "c"), ChoiceSet.of_points(Fraction(3, 2))),
        ]
        t = play(path_abc, 2, ScriptedFirstPlayer(script), ProbeSecondPlayer("mid"))
        assert t.verdict == PLAYER_I_WINS

    def test_illegal_move_by_player_one(self, path_abc):
        script = [(pair("a", "z"), ChoiceSet.of_points(1))]
        t = play(path_abc, 1, ScriptedFirstPlayer(script), ProbeSecondPlayer("mid"))
        assert t.verdict == PLAYER_II_WINS
        assert t.reason.kind == "ILLEGAL_MOVE_I"

    @pytest.mark.parametrize(
        "proposal, message",
        [
            ((("a", "c"), ChoiceSet.open_interval(1, 20)), "a proposal must be a (Doubleton, ChoiceSet) pair"),
            ((pair("a", "c"),), "a proposal must be a (Doubleton, ChoiceSet) pair"),
            (pair("a", "c"), "a proposal must be a (Doubleton, ChoiceSet) pair"),
            (None, "a proposal must be a (Doubleton, ChoiceSet) pair"),
            ((pair("a", "c"), ChoiceSet.of_points(1), 3), "a proposal must be a (Doubleton, ChoiceSet) pair"),
            ((pair("a", "c"), (1, 20)), "offered set must be a ChoiceSet"),
        ],
        ids=["tuple-pair", "one-tuple", "bare-pair", "none", "three-tuple", "tuple-offer"],
    )
    def test_malformed_proposal_loses_for_player_one(self, path_abc, proposal, message):
        """A proposal that is not a (Doubleton, ChoiceSet) pair ends the game, like an offer that is not a ChoiceSet."""
        t = play(path_abc, 1, ScriptedFirstPlayer([proposal]), ProbeSecondPlayer("mid"))
        assert (t.verdict, t.reason.kind, t.moves) == (PLAYER_II_WINS, "ILLEGAL_MOVE_I", [])
        assert t.reason.detail["message"].startswith(message)

    def test_answer_outside_offered_set(self, path_abc):
        class Cheat:
            def respond(self, base, history, pair, offered):
                return Fraction(999)

        script = [(pair("a", "c"), ChoiceSet.of_points(Fraction(3, 2)))]
        t = play(path_abc, 1, ScriptedFirstPlayer(script), Cheat())
        assert t.verdict == PLAYER_I_WINS
        assert t.reason.kind == "ILLEGAL_MOVE_II"

    def test_bad_answer_that_breaks_polygonal(self, path_abc):
        script = [(pair("a", "c"), ChoiceSet.of_points(Fraction(99)))]
        t = play(path_abc, 1, ScriptedFirstPlayer(script), ProbeSecondPlayer("mid"))
        assert t.verdict == PLAYER_II_WINS
        assert t.reason.kind == "POLYGONAL_VIOLATION"
        assert t.reason.detail["chain"] == ["a", "b", "c"]

    @pytest.mark.parametrize("length", [True, 1.5, "3", None], ids=["bool", "float", "str", "none"])
    def test_rejects_a_length_that_is_not_an_int(self, h_graph, length):
        with pytest.raises(MalformedInputError, match="game length must be a nonnegative int"):
            play(h_graph, length, winning_player_one(h_graph), RandomSecondPlayer(0))

    def test_requires_graph_metric_base(self):
        bad = PartialMetric(
            ["a", "b", "c"],
            {pair("a", "b"): 1, pair("b", "c"): 1, pair("a", "c"): 5},
        )
        with pytest.raises(NotGraphMetricError):
            play(bad, 1, ScriptedFirstPlayer([]), ProbeSecondPlayer("mid"))


class TestWinningStrategy:
    def test_rejects_non_floppy_base(self, collinear_witness):
        with pytest.raises(NotFloppyError):
            winning_player_one(collinear_witness)

    def test_beats_every_provided_opponent(self, h_graph):
        opponents = [
            adversary_player_two(),
            ProbeSecondPlayer("low"),
            ProbeSecondPlayer("high"),
            ProbeSecondPlayer("mid"),
        ] + [RandomSecondPlayer(s) for s in range(20)]
        for base in (h_graph, cantor_tree(2), random_floppy(5, Fraction(1, 2), 17)):
            length = len(base.non_edges())
            for p2 in opponents:
                t = play(base, length, winning_player_one(base), p2)
                assert t.verdict == PLAYER_I_WINS, (p2, t.reason.to_json())

    def test_strategy_object_is_reusable_across_games(self, h_graph):
        p1 = winning_player_one(h_graph)
        for seed in range(5):
            t = play(h_graph, 3, p1, RandomSecondPlayer(seed))
            assert t.verdict == PLAYER_I_WINS

    def test_strategy_restarts_after_aborted_game(self):
        class CheatOnSecondInning:
            def respond(self, base, history, pair, offered):
                if history:
                    return Fraction(10**6)
                return offered.least_element()

        base = cantor_tree(2)
        length = len(base.non_edges())
        p1 = winning_player_one(base)
        aborted = play(base, length, p1, CheatOnSecondInning())
        assert aborted.reason.kind == "ILLEGAL_MOVE_II"
        assert len(aborted.moves) == 2

        reused = play(base, length, p1, ProbeSecondPlayer("high"))
        fresh = play(base, length, winning_player_one(base), ProbeSecondPlayer("high"))
        assert reused.verdict == PLAYER_I_WINS
        assert [mv.offered for mv in reused.moves] == [mv.offered for mv in fresh.moves]

    def test_two_games_leave_the_base_unchanged(self):
        """The strategy adjoins into its own copy of the base, at construction and on restart."""
        base = cantor_tree(2)
        length = len(base.non_edges())
        p1 = winning_player_one(base)
        before = metric_state(base)
        for p2 in (ProbeSecondPlayer("mid"), ProbeSecondPlayer("low")):
            assert play(base, length, p1, p2).verdict == PLAYER_I_WINS
            assert metric_state(base) == before


class TestSabotage:
    def test_wide_set_triggers_witness(self, path_abcd):
        sets = {d: ChoiceSet.of_points(1, 100) for d in path_abcd.non_edges()}
        plan = sabotage_witness(path_abcd, sets)
        assert plan is not None
        assert abs(plan.r_p - plan.r_q) > plan.separation
        assert 3 * plan.separation < sets[plan.p].diameter()

    def test_replay_defeats_player_one(self, path_abcd):
        sets = {d: ChoiceSet.of_points(1, 100) for d in path_abcd.non_edges()}
        plan = sabotage_witness(path_abcd, sets)
        t = replay_sabotage(path_abcd, sets, plan)
        assert t.verdict == PLAYER_II_WINS
        assert t.reason.kind == "POLYGONAL_VIOLATION"
        assert "chain" in t.reason.detail

    def test_unbounded_sets_past_float_range(self, path_abcd):
        sets = {d: ChoiceSet(intervals=[(2**1100, None)]) for d in path_abcd.non_edges()}
        plan = sabotage_witness(path_abcd, sets)
        assert plan is not None
        assert sets[plan.p].contains(plan.r_p) and sets[plan.q].contains(plan.r_q)
        assert abs(plan.r_p - plan.r_q) > plan.separation

    def test_plan_to_json(self, path_abcd):
        sets = {d: ChoiceSet.of_points(1, 100) for d in path_abcd.non_edges()}
        assert sabotage_witness(path_abcd, sets).to_json() == {
            "p": ["a", "c"],
            "q": ["a", "d"],
            "r_p": "100",
            "r_q": "1",
            "separation": "1",
        }

    def test_narrow_sets_give_no_witness(self, path_abcd):
        # diameter 0 sets can never beat the trigger
        sets = {d: ChoiceSet.of_points(2) for d in path_abcd.non_edges()}
        assert sabotage_witness(path_abcd, sets) is None

    def test_missing_set_raises(self, path_abcd):
        with pytest.raises(MissingChoiceSetError):
            sabotage_witness(path_abcd, {})

    def test_adversary_exploits_wide_offers(self, path_abcd):
        # Player I foolishly offers the full wide set each inning
        missing = sorted(path_abcd.non_edges())
        script = [(d, ChoiceSet.of_points(1, 100)) for d in missing]
        t = play(path_abcd, len(script), ScriptedFirstPlayer(script), adversary_player_two())
        assert t.verdict == PLAYER_II_WINS


class TestTranscriptSerialization:
    def test_round_trip_shape(self, h_graph):
        t = play(h_graph, 3, winning_player_one(h_graph), RandomSecondPlayer(2))
        doc = t.to_json()
        assert set(doc) == {"base", "moves", "verdict", "reason"}
        assert len(doc["moves"]) == 3
        for mv in doc["moves"]:
            assert set(mv) == {"pair", "offered", "answer"}
