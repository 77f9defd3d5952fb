import random
from fractions import Fraction
from itertools import combinations

import pytest

from floppymetrics import (
    PLAYER_I_WINS,
    PLAYER_II_WINS,
    ChoiceSet,
    Move,
    PartialMetric,
    adversary_player_two,
    doubleton_dist,
    pair,
    play,
    replay_sabotage,
    sabotage_witness,
    shortest_path,
    validate,
    winning_player_one,
)
from floppymetrics.errors import (
    DisconnectedError,
    MalformedInputError,
    MissingChoiceSetError,
    NotFloppyError,
    NotGraphMetricError,
    UnknownVertexError,
)
from floppymetrics.game import (
    ProbeSecondPlayer,
    RandomSecondPlayer,
    SabotagePlan,
    ScriptedFirstPlayer,
    AdversarySecondPlayer,
    accumulate,
)
from floppymetrics.generators import cantor_tree, random_floppy
from floppymetrics.glue import floppy_certificate, gateway_slack, glue, glue_hat, validate_patchwork

from conftest import ReferenceAdversary, metric_state


class TestWrongTypes:
    """Every game and glue entry point rejects a base that is not a metric, or a patchwork that is not a
    ``Patchwork``, with ``MalformedInputError`` before any other work."""

    CALLS = {
        "accumulate": lambda x: accumulate(x, []),
        "play": lambda x: play(x, 1, ScriptedFirstPlayer([]), ProbeSecondPlayer("mid")),
        "winning_player_one": winning_player_one,
        "sabotage_witness": lambda x: sabotage_witness(x, {}),
        "replay_sabotage": lambda x: replay_sabotage(x, {}, None),
        "validate_patchwork": validate_patchwork,
        "glue": glue,
        "glue_hat": lambda x: glue_hat(x, "a", "b"),
        "gateway_slack": lambda x: gateway_slack(x, "a", ["b"]),
        "floppy_certificate": floppy_certificate,
    }

    @pytest.mark.parametrize("call", CALLS.values(), ids=CALLS.keys())
    @pytest.mark.parametrize("arg", [None, "x", [1]], ids=["none", "str", "list"])
    def test_rejected_as_malformed(self, call, arg):
        message = f"^expected a (PartialMetric|Patchwork), got {type(arg).__name__}$"
        with pytest.raises(MalformedInputError, match=message):
            call(arg)

    @pytest.mark.parametrize("call", ["validate_patchwork", "glue", "glue_hat", "gateway_slack", "floppy_certificate"])
    def test_a_metric_is_not_a_patchwork(self, call, path_abcd):
        with pytest.raises(MalformedInputError, match="^expected a Patchwork, got PartialMetric$"):
            self.CALLS[call](path_abcd)


class TestChoiceSet:
    def test_one_class_from_extension(self):
        """``ChoiceSet`` lives in ``extension``; the package and ``game`` import the same class."""
        import floppymetrics
        from floppymetrics import extension, game

        assert floppymetrics.ChoiceSet is game.ChoiceSet is extension.ChoiceSet
        assert extension.ChoiceSet.__module__ == "floppymetrics.extension"

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
        with pytest.raises(MalformedInputError, match="game length must be an int"):
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

    def test_every_set_must_be_a_choice_set(self, path_abcd):
        """Checked for every missing pair before the search, as ``full_extend`` checks each step's set."""
        sets = {d: ChoiceSet.of_points(1, 100) for d in path_abcd.non_edges()}
        sets[max(sets)] = (1, 100)
        with pytest.raises(MalformedInputError, match="must be a ChoiceSet"):
            sabotage_witness(path_abcd, sets)

    @pytest.mark.parametrize("sets", [[], None, "a,c"], ids=["list", "none", "str"])
    def test_sets_must_be_a_mapping(self, path_abcd, sets):
        with pytest.raises(MalformedInputError, match="choice sets must be a mapping"):
            sabotage_witness(path_abcd, sets)
        with pytest.raises(MalformedInputError, match="choice sets must be a mapping"):
            replay_sabotage(path_abcd, sets, None)

    def test_trigger_matches_the_diameter_rule(self, path_abcd):
        """The two-end trigger plans as ``3 * sep < diameter()`` did, on the criterion-6 corpus and on seeded
        sets with unbounded intervals and ends past the float range."""
        def reference(base, sets):
            for p in base.non_edges():
                for q in base.non_edges():
                    sep = doubleton_dist(base, p, q)
                    if q != p and 3 * sep < sets[p].diameter():
                        r_q = sets[q].least_element()
                        return SabotagePlan(p, q, sets[p].element_far_from(r_q, sep), r_q, sep)
            return None

        cases = []
        for seed in range(100):  # criterion 6
            rng = random.Random(seed)
            w = [Fraction(rng.randrange(1, 9)) for _ in range(3)]
            base = PartialMetric(["a", "b", "c", "d"], {pair("a", "b"): w[0], pair("b", "c"): w[1], pair("c", "d"): w[2]})
            spread = 3 * doubleton_dist(base, pair("a", "c"), pair("b", "d")) + rng.randrange(1, 20)
            sets = {d: ChoiceSet.of_points(shortest_path(base, d.a, d.b)) for d in base.non_edges()}
            sets[pair("a", "c")] = ChoiceSet.of_points(Fraction(1, 2), Fraction(1, 2) + spread)
            cases.append((base, sets))
        rng = random.Random(25)
        for trial in range(300):
            base = path_abcd if trial % 3 == 0 else random_floppy(rng.choice((4, 5)), Fraction(1, 2), trial)
            shift = rng.choice((0, 0, 2**1100))
            sets = {}
            for d in base.non_edges():
                cs = _random_choice_set(rng, rng.choice(("points", "points", "bounded", "unbounded", "mixed")))
                if trial % 4 == 1:  # narrow sets: at most one point and one interval of width 1/7
                    lo = _rational(rng, 40)
                    cs = ChoiceSet(points=[lo][:rng.randrange(2)], intervals=[(lo, lo + Fraction(1, 7))])
                sets[d] = ChoiceSet(points=[v + shift for v in cs.points],
                                    intervals=[(lo + shift, hi and hi + shift) for lo, hi in cs.intervals])
            cases.append((base, sets))
        plans = [sabotage_witness(base, sets) for base, sets in cases]
        assert plans == [reference(base, sets) for base, sets in cases]
        assert sum(plan is None for plan in plans) > 50 and sum(plan is not None for plan in plans) > 200
        assert any(plan and plan.r_p > 2**1100 and sets[plan.p].diameter() < float("inf")
                   for plan, (_, sets) in zip(plans, cases))

    def test_adversary_exploits_wide_offers(self, path_abcd):
        # Player I foolishly offers the full wide set each inning
        missing = sorted(path_abcd.non_edges())
        script = [(d, ChoiceSet.of_points(1, 100)) for d in missing]
        t = play(path_abcd, len(script), ScriptedFirstPlayer(script), adversary_player_two())
        assert t.verdict == PLAYER_II_WINS



def _rational(rng, top):
    den = rng.choice((1, 2, 3, 7))
    return Fraction(rng.randrange(1, top * den), den)


def _random_choice_set(rng, kind, ends=()):
    """A set of one kind: points only, bounded intervals, unbounded intervals or mixed.  Each end is drawn
    from ``ends`` (positive exact values such as a +- g) a third of the time, else at random."""
    def value():
        return rng.choice(ends) if ends and rng.random() < 1 / 3 else _rational(rng, 40)

    points, intervals = [], []
    if kind in ("points", "mixed"):
        points = [value() for _ in range(rng.randrange(1, 4))]
    if kind in ("bounded", "unbounded", "mixed"):
        for _ in range(rng.randrange(1, 3)):
            lo, hi = sorted((value(), value()))
            if kind == "unbounded" or (kind == "mixed" and rng.random() < 0.2):
                hi = None
            elif hi == lo:
                hi = lo + _rational(rng, 5)
            intervals.append((lo, hi))
    return ChoiceSet(points=points, intervals=intervals)


class _Checked:
    """Plays the adversary and asserts, inning by inning, that the reference answers the same value."""

    def __init__(self, player):
        self.player, self.innings, self.fired = player, 0, 0

    def respond(self, base, history, pair, offered):
        got = self.player.respond(base, history, pair, offered)
        want = ReferenceAdversary().respond(base, history, pair, offered)
        assert (type(got), got) == (type(want), want), (pair, offered, len(history))
        self.innings += 1
        self.fired += got != offered.least_element()
        return got


class TestAdversary:
    def test_matches_the_reference_on_the_criterion_5_bases(self, h_graph):
        """Against the winning strategy, 0-2 burned innings, and against the bases' own wide offers."""
        bases = [h_graph, cantor_tree(2)] + [random_floppy(4 + k % 2, Fraction(1, 2), 9000 + k) for k in range(20)]
        checked = _Checked(AdversarySecondPlayer())
        for base in bases:
            missing = len(base.non_edges())
            for burn in range(3):
                assert play(base, missing + burn, winning_player_one(base), checked).verdict == PLAYER_I_WINS
            script = [(d, ChoiceSet(points=[1, 100], intervals=[(2, 3)])) for d in base.non_edges()] * 2
            play(base, len(script), ScriptedFirstPlayer(script), checked)
        assert checked.innings > 500 and checked.fired > 20

    def test_matches_the_reference_on_random_histories(self):
        """Seeded histories over random floppy bases with repeated moves, moves on the offered pair, and set
        ends at exactly a +- g of an earlier move, where that move must not fire."""
        rng = random.Random(24)
        counts = dict.fromkeys(("fired", "repeats", "same_pair", "ties"), 0)
        for trial in range(60):
            base = random_floppy(rng.choice((4, 5, 6)), Fraction(rng.choice((1, 2)), 3), 100 + trial)
            pairs = [pair(u, v) for u, v in combinations(sorted(base.vertices), 2)]
            player, history = AdversarySecondPlayer(), []
            for _ in range(30):
                d = history[-1].pair if history and rng.random() < 0.2 else rng.choice(pairs)
                counts["same_pair"] += any(mv.pair == d for mv in history)
                ends = []
                for mv in rng.sample(history, min(2, len(history))):
                    if mv.pair != d:
                        g = doubleton_dist(base, d, mv.pair)
                        ends += [v for v in (mv.answer + g, mv.answer - g) if v > 0]
                offered = _random_choice_set(rng, rng.choice(("points", "bounded", "unbounded", "mixed")), ends)
                top, bottom = offered._ends()
                counts["ties"] += top in ends or bottom in ends
                got = player.respond(base, history, d, offered)
                want = ReferenceAdversary().respond(base, history, d, offered)
                assert (type(got), got) == (type(want), want), (trial, len(history), d, offered)
                counts["fired"] += got != offered.least_element()
                if history and rng.random() < 0.3:  # repeat an earlier (pair, answer) under a new offer
                    old = rng.choice(history)
                    history.append(Move(old.pair, offered, old.answer))
                    counts["repeats"] += 1
                else:
                    history.append(Move(d, offered, got if rng.random() < 0.5 else offered.sample(rng)))
        assert min(counts.values()) > 100, counts

    @pytest.mark.parametrize("offered", [
        ChoiceSet.of_points(Fraction(23, 3)),
        ChoiceSet.of_points(Fraction(11, 3), Fraction(23, 3)),
        ChoiceSet.open_interval(Fraction(11, 3), Fraction(23, 3)),
        ChoiceSet(points=[Fraction(11, 3)], intervals=[(Fraction(11, 3), 5), (6, Fraction(23, 3))]),
    ], ids=["top-point", "both-points", "interval", "mixed"])
    def test_exact_ties_do_not_fire(self, h_graph, offered):
        """|v - a| = g is not far: with a = 17/3 and g = dd(xy, ab) = 2 every element lies in [a - g, a + g]."""
        earlier = Move(pair("a", "b"), ChoiceSet.of_points(5), Fraction(17, 3))
        xy = pair("x", "y")
        g = doubleton_dist(h_graph, xy, earlier.pair)
        assert (earlier.answer - g, earlier.answer + g) == (Fraction(11, 3), Fraction(23, 3))
        for history in ([earlier], [earlier, earlier], [Move(xy, offered, Fraction(1000))]):
            got = AdversarySecondPlayer().respond(h_graph, history, xy, offered)
            assert got == ReferenceAdversary().respond(h_graph, history, xy, offered) == offered.least_element()
        beyond = Fraction(23, 3) + Fraction(1, 10**9)
        wider = ChoiceSet(points=offered.points | {beyond}, intervals=offered.intervals)
        assert AdversarySecondPlayer().respond(h_graph, [earlier], xy, wider) == beyond

    def test_raises_the_errors_of_doubleton_dist(self):
        split = PartialMetric(["a", "b", "c", "d"], {pair("a", "b"): 1, pair("c", "d"): 1})
        offered = ChoiceSet.of_points(1)
        for base, history, d, error in [
            (split, [Move(pair("c", "d"), offered, Fraction(1))], pair("a", "b"), DisconnectedError),
            (split, [Move(pair("a", "z"), offered, Fraction(1))], pair("a", "b"), UnknownVertexError),
            (split, [Move(pair("a", "b"), offered, Fraction(1))], pair("a", "z"), UnknownVertexError),
        ]:
            with pytest.raises(error) as want:
                ReferenceAdversary().respond(base, history, d, offered)
            with pytest.raises(error) as got:
                AdversarySecondPlayer().respond(base, history, d, offered)
            assert str(got.value) == str(want.value)
        # no earlier move on another pair: nothing is read, as before
        assert AdversarySecondPlayer().respond(split, [], pair("a", "z"), offered) == 1

    def test_two_ends_decide_element_far_from(self):
        """element_far_from(a, g) is None exactly when top <= a + g and bottom >= a - g, including the equalities
        at top, at bottom, at a point and with an unbounded interval."""
        rng = random.Random(7)
        seen = dict.fromkeys(("top", "bottom", "point", "unbounded"), 0)
        for _ in range(4000):
            cs = _random_choice_set(rng, rng.choice(("points", "bounded", "unbounded", "mixed")))
            top, bottom = cs._ends()
            a = _rational(rng, 40)
            g = rng.choice([_rational(rng, 20), abs(rng.choice([v for v in (top, bottom) if v is not None]) - a)])
            far = top is None or top > a + g or bottom < a - g
            assert (cs.element_far_from(a, g) is not None) == far, (cs, a, g)
            seen["top"] += top == a + g
            seen["bottom"] += bottom == a - g
            seen["point"] += any(abs(p - a) == g for p in cs.points)
            seen["unbounded"] += top is None
        assert min(seen.values()) > 100, seen
        unbounded = ChoiceSet(points=[3], intervals=[(2, None)])
        assert unbounded._ends() == (None, 2)
        assert unbounded.element_far_from(Fraction(10**9), Fraction(10**9)) is not None

    def test_one_player_serves_games_bases_and_shrinking_histories(self, path_abcd, h_graph):
        """Reused across two games, two bases and a history cut short, the player answers as a fresh one."""
        wide = ChoiceSet(points=[1, 100], intervals=[(2, 3)])
        shared = AdversarySecondPlayer()
        for base in (path_abcd, path_abcd, h_graph, path_abcd):
            script = [(d, wide) for d in base.non_edges()] * 2
            games = [play(base, len(script), ScriptedFirstPlayer(script), p2) for p2 in (shared, AdversarySecondPlayer())]
            assert games[0].to_json() == games[1].to_json()
        # ac at 3 ties at ad (dd = 1, both points 1 away); bd at 1/2 is far from 4 (dd = 1)
        ac, bd, ad = pair("a", "c"), pair("b", "d"), pair("a", "d")
        offered = ChoiceSet.of_points(2, 4)
        history = [Move(ac, offered, Fraction(3)), Move(bd, offered, Fraction(1, 2))]
        assert shared.respond(path_abcd, history, ad, offered) == 4
        del history[1:]  # the same list, cut short: a new game on it
        assert shared.respond(path_abcd, history, ad, offered) == 2
        history.append(Move(bd, offered, Fraction(1, 2)))
        assert shared.respond(path_abcd, history, ad, offered) == 4
        # another list, as long as the last one
        assert shared.respond(path_abcd, [history[0], history[0]], ad, offered) == 2
        for player in (shared, AdversarySecondPlayer()):
            assert [player.respond(path_abcd, history[:k], ad, offered) for k in (0, 1, 2)] == [2, 2, 4]

class _ThreeBranchProbe:
    """The probe's answers as three branches: ``lo + span/1024``, ``hi - span/1024`` and ``lo + span/2``."""

    def __init__(self, mode):
        self.mode = mode

    def respond(self, base, history, pair, offered):
        if offered.intervals:
            lo, hi = offered.intervals[0]
            if hi is None:
                hi = lo + 2
            span = hi - lo
            if self.mode == "low":
                return lo + span / 1024
            if self.mode == "high":
                return hi - span / 1024
            return lo + span / 2
        return offered.least_element()


class TestProbe:
    @pytest.mark.parametrize("mode", ["low", "mid", "high"])
    def test_matches_the_three_branches(self, h_graph, mode):
        """On the criterion-5 bases against the winning strategy, 0-2 burned innings, and on seeded sets with
        unbounded intervals."""
        probe, branches = ProbeSecondPlayer(mode), _ThreeBranchProbe(mode)
        offers = []

        class Checked:
            def respond(self, base, history, pair, offered):
                got, want = probe.respond(base, history, pair, offered), branches.respond(base, history, pair, offered)
                assert (type(got), got) == (type(want), want), (pair, offered)
                offers.append(offered)
                return got

        bases = [h_graph, cantor_tree(2)] + [random_floppy(4 + k % 2, Fraction(1, 2), 9000 + k) for k in range(20)]
        for base in bases:
            for burn in range(3):
                t = play(base, len(base.non_edges()) + burn, winning_player_one(base), Checked())
                assert t.verdict == PLAYER_I_WINS
        rng = random.Random(5)
        for _ in range(300):
            Checked().respond(None, [], None, _random_choice_set(rng, rng.choice(("points", "unbounded", "mixed"))))
        assert sum(not cs.intervals for cs in offers) > 50
        assert sum(bool(cs.intervals) and cs.intervals[0][1] is None for cs in offers) > 50

    def test_rejects_an_unknown_mode(self):
        with pytest.raises(MalformedInputError, match="unknown probe mode"):
            ProbeSecondPlayer("middle")


class TestTranscriptSerialization:
    def test_round_trip_shape(self, h_graph):
        t = play(h_graph, 3, winning_player_one(h_graph), RandomSecondPlayer(2))
        doc = t.to_json()
        assert set(doc) == {"base", "moves", "verdict", "reason"}
        assert len(doc["moves"]) == 3
        for mv in doc["moves"]:
            assert set(mv) == {"pair", "offered", "answer"}
