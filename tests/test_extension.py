import importlib
from fractions import Fraction

import pytest

from floppymetrics import (
    PROPOSITION,
    PartialMetric,
    THEOREM,
    admissible_interval,
    doubleton_dist,
    full_extend,
    is_floppy,
    lower_envelope,
    one_step_extend,
    pair,
    shortest_path,
    validate,
    verify_step_properties,
)
from floppymetrics.errors import (
    AlreadyEdgeError,
    ChoiceSetMissesIntervalError,
    DisconnectedError,
    MalformedInputError,
    MetricError,
    MissingChoiceSetError,
    NotFloppyError,
    ROutOfRangeError,
)
from floppymetrics.extension import _bisect_unused
from floppymetrics.game import ChoiceSet
from floppymetrics.generators import cantor_tree, random_floppy, star_metric

from conftest import brute_check, brute_hat


class TestAdmissibleInterval:
    def test_h_graph(self, h_graph):
        iv = admissible_interval(h_graph, pair("x", "y"))
        assert (iv.lo, iv.hi) == (Fraction(32, 3), 12)
        assert iv.contains(Fraction(32, 3))
        assert not iv.contains(12)
        assert iv.midpoint == Fraction(34, 3)

    def test_path(self, path_abc):
        iv = admissible_interval(path_abc, pair("a", "c"))
        assert (iv.lo, iv.hi) == (Fraction(4, 3), 2)

    def test_rejects_edges(self, h_graph):
        with pytest.raises(AlreadyEdgeError):
            admissible_interval(h_graph, pair("a", "b"))

    def test_rejects_non_floppy(self, collinear_witness):
        with pytest.raises(NotFloppyError):
            admissible_interval(collinear_witness, pair("a", "c"))


class TestOneStepTheorem:
    def test_keeps_floppiness_at_lo(self, h_graph):
        extended = one_step_extend(h_graph, pair("x", "y"), Fraction(32, 3))
        assert extended.weight(pair("x", "y")) == Fraction(32, 3)
        assert is_floppy(extended).floppy

    def test_keeps_floppiness_at_midpoint(self, h_graph):
        extended = one_step_extend(h_graph, pair("x", "y"), Fraction(34, 3))
        assert is_floppy(extended).floppy
        assert validate(extended).graph_metric

    def test_rejects_below_lo(self, h_graph):
        with pytest.raises(ROutOfRangeError) as exc:
            one_step_extend(h_graph, pair("x", "y"), 10)
        assert exc.value.details["bound"] == "lo"

    def test_rejects_hi_itself(self, h_graph):
        # the interval is half-open: r = hat(x, y) is not admissible
        with pytest.raises(ROutOfRangeError) as exc:
            one_step_extend(h_graph, pair("x", "y"), 12)
        assert exc.value.details["bound"] == "hi"

    def test_rejects_existing_edge(self, h_graph):
        with pytest.raises(AlreadyEdgeError):
            one_step_extend(h_graph, pair("a", "b"), 10)

    def test_unknown_mode(self, h_graph):
        with pytest.raises(MalformedInputError):
            one_step_extend(h_graph, pair("x", "y"), 11, "midpoint")


class TestOneStepProposition:
    def test_accepts_both_endpoints(self, h_graph):
        for r in (8, 12):
            extended = one_step_extend(h_graph, pair("x", "y"), r, PROPOSITION)
            assert validate(extended).graph_pseudometric

    def test_accepts_values_theorem_mode_rejects(self, h_graph):
        extended = one_step_extend(h_graph, pair("x", "y"), 9, PROPOSITION)
        assert validate(extended).graph_pseudometric
        # but the extension may no longer be floppy: ac gets pinned tighter
        with pytest.raises(ROutOfRangeError):
            one_step_extend(h_graph, pair("x", "y"), 9, THEOREM)

    def test_rejects_below_envelope(self, h_graph):
        with pytest.raises(ROutOfRangeError):
            one_step_extend(h_graph, pair("x", "y"), 7, PROPOSITION)

    def test_rejects_above_distance(self, h_graph):
        with pytest.raises(ROutOfRangeError):
            one_step_extend(h_graph, pair("x", "y"), 13, PROPOSITION)


class TestStepOracle:
    """``one_step_extend`` does not check its result; the brute-force oracles
    of ``conftest`` do, on small random floppy metrics.  A proposition step
    must give a graph pseudometric: every edge weight is the shortest chain
    between its endpoints.  A theorem step must also stay floppy: check is
    below hat at every remaining non-edge."""

    @staticmethod
    def assert_pseudometric(m):
        for d, w in m.edges.items():
            assert w == brute_hat(m, d.a, d.b), (d, w)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_slice(self, seed):
        m = random_floppy(6, Fraction(1, 2), seed + 40)
        for d in m.non_edges()[:2]:
            h, c = shortest_path(m, d.a, d.b), lower_envelope(m, d.a, d.b)
            for r in (c, (c + h) / 2, h):
                self.assert_pseudometric(one_step_extend(m, d, r, PROPOSITION))
            iv = admissible_interval(m, d)
            for r in (iv.lo, iv.midpoint):
                extended = one_step_extend(m, d, r, THEOREM)
                self.assert_pseudometric(extended)
                for u in extended.non_edges():
                    assert brute_check(extended, u.a, u.b) < brute_hat(extended, u.a, u.b), (d, r, u)


class TestErrorOrder:
    """Each input has two faults; the entry point raises the one checked first.
    ``one_step_extend`` checks the mode, that the pair is not an edge, that
    the metric is floppy, that r is a rational, and last that r is in range."""

    @pytest.mark.parametrize(
        "metric, xy, r, mode, code",
        [
            ("h_graph", ("a", "b"), 10, "midpoint", "REJECT_MALFORMED"),  # unknown mode, edge
            ("collinear_witness", ("a", "c"), 2, "midpoint", "REJECT_MALFORMED"),  # unknown mode, not floppy
            ("collinear_witness", ("a", "b"), 1, THEOREM, "ALREADY_EDGE"),  # edge, not floppy
            ("h_graph", ("a", "b"), "1.5", THEOREM, "ALREADY_EDGE"),  # edge, malformed r
            ("collinear_witness", ("a", "c"), "1.5", PROPOSITION, "NOT_FLOPPY"),  # not floppy, malformed r
            ("collinear_witness", ("a", "c"), 100, THEOREM, "NOT_FLOPPY"),  # not floppy, r out of range
            ("h_graph", ("x", "y"), "1e3", THEOREM, "REJECT_MALFORMED"),  # malformed r, out of range
            ("h_graph", ("x", "y"), "1e3", PROPOSITION, "REJECT_MALFORMED"),  # malformed r, out of range
        ],
    )
    def test_one_step_extend(self, request, metric, xy, r, mode, code):
        with pytest.raises(MetricError) as exc:
            one_step_extend(request.getfixturevalue(metric), pair(*xy), r, mode)
        assert exc.value.code == code

    def test_admissible_interval(self, collinear_witness):
        with pytest.raises(MetricError) as exc:
            admissible_interval(collinear_witness, pair("a", "b"))  # edge, not floppy
        assert exc.value.code == "ALREADY_EDGE"

    @pytest.mark.parametrize(
        "metric, xy, message",
        [
            ([1, 2], pair("0", "1"), "expected a PartialMetric, got list"),
            (cantor_tree(2), ("0", "1"), "expected a Doubleton pair, got tuple"),
            (cantor_tree(2), "0,1", "expected a Doubleton pair, got str"),
            (None, ("0", "1"), "expected a PartialMetric, got NoneType"),  # the metric is checked first
        ],
        ids=["list-metric", "tuple-pair", "str-pair", "both"],
    )
    @pytest.mark.parametrize("entry", ["one_step_extend", "admissible_interval", "verify_step_properties"])
    def test_arguments_are_checked_first(self, metric, xy, message, entry):
        """Before the mode, the edge test or r: ``one_step_extend`` gets an unknown mode and a malformed r."""
        calls = {"one_step_extend": lambda: one_step_extend(metric, xy, "1.5", "midpoint"),
                 "admissible_interval": lambda: admissible_interval(metric, xy),
                 "verify_step_properties": lambda: verify_step_properties(metric, xy, "1.5")}
        with pytest.raises(MalformedInputError) as exc:
            calls[entry]()
        assert str(exc.value) == message


class TestStepProperties:
    def test_h_graph_midpoint(self, h_graph):
        rep = verify_step_properties(h_graph, pair("x", "y"), Fraction(34, 3))
        assert rep.ok
        assert rep.statements[1].applicable == 6  # every vertex pair

    def test_holds_across_whole_proposition_range(self, h_graph):
        h = shortest_path(h_graph, "x", "y")
        c = lower_envelope(h_graph, "x", "y")
        for k in range(9):
            r = c + (h - c) * Fraction(k, 8)
            assert verify_step_properties(h_graph, pair("x", "y"), r).ok

    def test_statement5_guard(self, h_graph):
        # r below the strong lower bound: statement (5) is vacuous
        rep = verify_step_properties(h_graph, pair("x", "y"), 9)
        assert rep.statements[5].applicable == 0
        assert rep.ok

    def test_random_corpus_slice(self):
        for seed in range(6):
            m = random_floppy(6, Fraction(1, 2), seed + 40)
            for d in m.non_edges()[:2]:
                h = shortest_path(m, d.a, d.b)
                c = lower_envelope(m, d.a, d.b)
                for k in (0, 2, 5, 8):
                    r = c + (h - c) * Fraction(k, 8)
                    rep = verify_step_properties(m, d, r)
                    assert rep.ok, (seed, d, r, rep.to_json())

    def test_rejects_out_of_range_r(self, h_graph):
        with pytest.raises(ROutOfRangeError):
            verify_step_properties(h_graph, pair("x", "y"), 13)

    def test_pair_inside_one_component_of_disconnected_metric(self, h_graph):
        """xy has finite hat and check, but the statements range over every
        vertex pair, and pairs across components have no distance."""
        m = PartialMetric(h_graph.vertices | {"p", "q"}, {**h_graph.edges, pair("p", "q"): 1})
        assert not validate(m).connected
        with pytest.raises(DisconnectedError):
            verify_step_properties(m, pair("x", "y"), Fraction(34, 3))


class TestFullExtend:
    def test_lex_midpoints(self, h_graph):
        trace = full_extend(h_graph)
        result = trace.result
        rep = validate(result)
        assert rep.full and rep.graph_metric
        assert [s.pair for s in trace.steps] == sorted(h_graph.non_edges())
        for s in trace.steps:
            assert s.interval.contains(s.value)
        # base weights survive untouched
        for d, w in h_graph.edges.items():
            assert result.weight(d) == w

    def test_orders_agree_on_validity(self, h_graph):
        for order in ("lex", "maxgap", "random:7"):
            rep = validate(full_extend(h_graph, order=order).result)
            assert rep.full and rep.graph_metric

    def test_random_order_is_seeded(self, h_graph):
        a = full_extend(h_graph, order="random:3")
        b = full_extend(h_graph, order="random:3")
        assert [s.to_json() for s in a.steps] == [s.to_json() for s in b.steps]

    def test_unknown_order(self, h_graph):
        with pytest.raises(MalformedInputError):
            full_extend(h_graph, order="fifo")
        with pytest.raises(MalformedInputError):  # a random order needs its seed, "random:SEED"
            full_extend(h_graph, order="random")
        with pytest.raises(MalformedInputError):  # SEED is ASCII digits; int() would read "1_0" as 10
            full_extend(h_graph, order="random:1_0")

    def test_maxgap_reads_each_chosen_pair_once(self, monkeypatch):
        """Cantor depth 4's 367 maxgap steps re-score 1,721 heap tops; the
        step interval comes from the last re-score, with no read of its own."""
        ext = importlib.import_module("floppymetrics.extension")
        calls = []
        hat_check = ext._hat_check

        def counted(m, xy):
            calls.append(xy)
            return hat_check(m, xy)

        monkeypatch.setattr(ext, "_hat_check", counted)
        trace = full_extend(cantor_tree(4), order="maxgap")
        assert (len(trace.steps), len(calls)) == (367, 1721)

    @staticmethod
    def chain(lo, hi, used):
        """The Fraction chain v = (lo + hi) / 2, v = (v + hi) / 2 while v is in ``used``."""
        v = (lo + hi) / 2
        while v in used:
            v = (v + hi) / 2
        return v

    @pytest.mark.parametrize("lo, hi", [(Fraction(2, 3), 1), (Fraction(32, 3), 12), (Fraction(1, 6), Fraction(7, 10)),
                                        (0, Fraction(1, 3)), (Fraction(-5, 4), Fraction(9, 8)), (3, 4)])
    def test_bisection_matches_the_fraction_chain(self, lo, hi):
        """Forced collisions: ``used`` holds the chain's first k values, and other values; ``used`` is only read."""
        lo, hi = Fraction(lo), Fraction(hi)
        for k in range(8):
            used = {Fraction(1, 7), lo, hi}
            for _ in range(k):
                used.add(self.chain(lo, hi, used))
            expected, before = self.chain(lo, hi, used), set(used)
            got = _bisect_unused(lo, hi, used)
            assert type(got) is Fraction and got == expected and lo < got < hi
            assert used == before

    def test_choice_set_pick_reads_used(self):
        used = {Fraction(1)}
        cs = ChoiceSet(frozenset({Fraction(1), Fraction(3, 2)}), ((Fraction(1), Fraction(2)),))
        picks = []
        for _ in range(3):  # a point, then the interval
            picks.append(cs.pick(Fraction(1), Fraction(2), used))
            used.add(picks[-1])
        assert picks == [Fraction(3, 2), Fraction(7, 4), Fraction(15, 8)]
        only_points = ChoiceSet.of_points(Fraction(3, 2))
        assert only_points.pick(Fraction(1), Fraction(2), used) == Fraction(3, 2)  # a repeat: points alone
        assert used == {Fraction(1), *picks}

    def test_values_distinct_with_midpoint_choice(self):
        m = random_floppy(7, Fraction(2, 5), 11)
        trace = full_extend(m)
        values = [s.value for s in trace.steps]
        assert len(values) == len(set(values))

    def test_choice_sets_dense(self, h_graph):
        sets = {d: ChoiceSet.open_interval(0) for d in h_graph.non_edges()}
        trace = full_extend(h_graph, choice=sets)
        values = [s.value for s in trace.steps]
        assert len(values) == len(set(values))
        assert validate(trace.result).full

    def test_choice_sets_of_points(self, h_graph):
        """Each pair takes its first unused in-range point; out-of-range points are skipped."""
        sets = {
            pair("a", "y"): ChoiceSet.of_points(1, Fraction(21, 2), Fraction(32, 3)),
            pair("b", "x"): ChoiceSet.of_points(Fraction(21, 2), Fraction(32, 3), 12),
            pair("x", "y"): ChoiceSet.of_points(11),
        }
        trace = full_extend(h_graph, choice=sets)
        assert [(s.pair, s.value) for s in trace.steps] == [
            (pair("a", "y"), Fraction(21, 2)),
            (pair("b", "x"), Fraction(32, 3)),
            (pair("x", "y"), 11),
        ]

    def test_choice_sets_of_points_reuse_when_all_used(self, h_graph):
        """Points alone cannot always keep values distinct: with its only
        in-range point taken, a pair takes that point again."""
        sets = {
            pair("a", "y"): ChoiceSet.of_points(Fraction(21, 2)),
            pair("b", "x"): ChoiceSet.of_points(Fraction(21, 2)),
            pair("x", "y"): ChoiceSet.of_points(11),
        }
        trace = full_extend(h_graph, choice=sets)
        assert [s.value for s in trace.steps] == [Fraction(21, 2), Fraction(21, 2), 11]
        assert validate(trace.result).graph_metric

    def test_distinct_values_need_an_open_interval_in_each_set(self):
        """One point per set repeats that point at every step; adding an open
        interval that meets the admissible interval makes the values distinct."""
        m = star_metric(3)
        points = {d: ChoiceSet.of_points(Fraction(3, 2)) for d in m.non_edges()}
        trace = full_extend(m, choice=points)
        assert [(s.interval.lo, s.interval.hi, s.value) for s in trace.steps] == [(Fraction(4, 3), 2, Fraction(3, 2))] * 3
        dense = {d: ChoiceSet(frozenset({Fraction(3, 2)}), ((Fraction(7, 5), Fraction(8, 5)),)) for d in m.non_edges()}
        values = [s.value for s in full_extend(m, choice=dense).steps]
        assert values[0] == Fraction(3, 2) and len(set(values)) == 3

    @pytest.mark.parametrize("order", ["lex", "maxgap", "random:5"])
    @pytest.mark.parametrize("choice", ["midpoint", "points", "intervals"])
    def test_every_value_lies_in_its_interval(self, order, choice):
        """``full_extend`` does not check its values; this does, for every kind of choice."""
        m = random_floppy(7, Fraction(2, 5), 11)
        if choice == "points":
            choice = {d: ChoiceSet.of_points(*(Fraction(k, 4) for k in range(1, 200))) for d in m.non_edges()}
        elif choice == "intervals":
            spans = ((0, 3), (Fraction(5, 2), 9), (4, None))
            choice = {d: ChoiceSet(frozenset(), spans) for d in m.non_edges()}
        for s in full_extend(m, order=order, choice=choice).steps:
            assert s.interval.lo < s.interval.hi and s.interval.contains(s.value), s.to_json()

    def test_choice_set_missing_pair(self, h_graph):
        sets = {pair("x", "y"): ChoiceSet.open_interval(0)}
        with pytest.raises(MissingChoiceSetError):
            full_extend(h_graph, choice=sets)

    @pytest.mark.parametrize("choice", ["random", "lex", 5, None], ids=["random", "lex", "int", "none"])
    def test_rejects_a_choice_that_is_not_a_mapping(self, h_graph, choice):
        with pytest.raises(MalformedInputError, match="choice must be 'midpoint' or a mapping"):
            full_extend(h_graph, choice=choice)

    def test_rejects_a_choice_value_that_is_not_a_choice_set(self, h_graph):
        sets = {d: "x" for d in h_graph.non_edges()}
        with pytest.raises(MalformedInputError, match="must be a ChoiceSet"):
            full_extend(h_graph, choice=sets)

    def test_choice_set_misses_interval(self, h_graph):
        sets = {d: ChoiceSet.of_points(Fraction(1, 100)) for d in h_graph.non_edges()}
        with pytest.raises(ChoiceSetMissesIntervalError):
            full_extend(h_graph, choice=sets)

    def test_rejects_non_floppy_start(self, collinear_witness):
        with pytest.raises(NotFloppyError):
            full_extend(collinear_witness)

    def test_extension_respects_envelope_everywhere(self, star_cuvw):
        trace = full_extend(star_cuvw, order="maxgap")
        for s in trace.steps:
            d = s.pair
            assert lower_envelope(star_cuvw, d.a, d.b) <= s.value
            assert s.value < shortest_path(star_cuvw, d.a, d.b)
