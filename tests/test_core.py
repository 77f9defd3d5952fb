import dataclasses
import random
import re
from fractions import Fraction
from itertools import combinations

import pytest

from floppymetrics import (
    Doubleton,
    PartialMetric,
    admissible_interval,
    as_rational,
    doubleton_dist,
    full_extend,
    is_floppy,
    lower_envelope,
    minimal_floppy_extension,
    one_step_extend,
    pair,
    shortest_chain,
    shortest_path,
    validate,
    verify_step_properties,
)
from floppymetrics.errors import (
    DisconnectedError,
    MalformedInputError,
    MetricError,
    NotGraphMetricError,
    UnknownVertexError,
)
from floppymetrics.generators import cantor_tree, random_floppy

from conftest import brute_check, brute_ddot, brute_hat, random_connected_graph


class TestDoubleton:
    def test_canonical_order(self):
        assert Doubleton("b", "a") == Doubleton("a", "b")
        assert Doubleton("b", "a").a == "a"

    @pytest.mark.parametrize("a, b", [("b", "a"), ("a", "b"), (10, 2), (2, 10), ("", "\x00")])
    def test_stores_the_labels_sorted(self, a, b):
        d = Doubleton(a, b)
        assert (d.a, d.b) == (min(a, b), max(a, b))
        assert Doubleton(b=b, a=a) == d and tuple(d) == (d.a, d.b)

    def test_rejects_equal_endpoints(self):
        with pytest.raises(MalformedInputError):
            Doubleton("a", "a")

    @pytest.mark.parametrize(
        "a, b, message",
        [
            ("a", "a", "doubleton needs two distinct vertices, got 'a' twice"),
            ([1], [1], "doubleton needs two distinct vertices, got [1] twice"),  # equal before unhashable
            ([1], [2], "doubleton labels must hash and compare, got [1] and [2]"),  # lists compare, but do not hash
            ("a", 1, "doubleton labels must hash and compare, got 'a' and 1"),  # these hash, but do not compare
        ],
        ids=["equal", "equal-unhashable", "unhashable", "incomparable"],
    )
    def test_errors(self, a, b, message):
        with pytest.raises(MalformedInputError) as exc:
            Doubleton(a, b)
        assert str(exc.value) == message

    def test_is_frozen(self):
        d = Doubleton("b", "a")
        for name in ("a", "b", "c"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(d, name, "z")
        assert (d.a, d.b) == ("a", "b") and hash(d) == hash(Doubleton("a", "b"))


class TestDigitFastPath:
    """Text of ASCII digits alone takes ``as_rational``'s one-``int()`` path; the grammar and errors stay."""

    @pytest.mark.parametrize("text", ["0", "007", "000", "42", "9" * 4300])
    def test_reads_digits_as_fraction_does(self, text):
        got = as_rational(text)
        assert type(got) is Fraction and got == Fraction(text) and got.denominator == 1

    @pytest.mark.parametrize("text", ["\u0663", "\uff17", "\u00b2", "7\u0663", "\u0663/1"],
                             ids=["arabic-indic", "fullwidth", "superscript", "mixed", "ratio"])
    def test_rejects_digits_that_are_not_ascii(self, text):
        with pytest.raises(MalformedInputError, match="not a rational"):
            as_rational(text)

    def test_rejects_more_digits_than_int_reads(self):
        with pytest.raises(MalformedInputError, match="not a rational") as exc:
            as_rational("7" * 4301)
        assert isinstance(exc.value.__cause__, ValueError)

    def test_p_over_zero_is_still_rejected(self):
        with pytest.raises(MalformedInputError, match="not a rational"):
            as_rational("007/000")


class TestConstruction:
    def test_rejects_empty_vertex_set(self):
        with pytest.raises(MalformedInputError):
            PartialMetric([], {})

    def test_rejects_stray_endpoint(self):
        with pytest.raises(MalformedInputError):
            PartialMetric(["a", "b"], {pair("a", "z"): 1})

    def test_rejects_negative_weight(self):
        with pytest.raises(MalformedInputError):
            PartialMetric(["a", "b"], {pair("a", "b"): "-1"})

    def test_rejects_float_weight(self):
        with pytest.raises(MalformedInputError):
            PartialMetric(["a", "b"], {pair("a", "b"): 1.5})

    @pytest.mark.parametrize("text", ["1e100000000", "1.5", "1/2e3", " 3/2", "3/2 ", "1_000", "3/-2", "++1", "",
                                      "\u0663", "inf", "nan", "1/0"])
    def test_rejects_text_outside_the_grammar(self, text):
        """Only ``[+-]?\\d+(/\\d+)?`` in ASCII digits is a rational; no decimal, exponent or space."""
        with pytest.raises(MalformedInputError):
            as_rational(text)

    @pytest.mark.parametrize("text, value", [("7", 7), ("-4/6", Fraction(-2, 3)), ("+3/2", Fraction(3, 2)), ("0", 0)])
    def test_reads_integers_and_ratios(self, text, value):
        assert as_rational(text) == value

    def test_reads_the_grammar_as_fraction_does(self):
        """``as_rational`` parses the regex's groups itself; ``Fraction(str)`` is the oracle."""
        rng = random.Random(2201)
        texts = ["0", "-0", "+0", "007", "-007/0042", "+10/5", "0/3", "-0/1", "1/1", "000/001"]
        for _ in range(300):
            digits = "".join(rng.choice("0123456789") for _ in range(rng.randrange(1, 30)))
            text = rng.choice(["", "+", "-"]) + rng.choice(["", "0", "00"]) + digits
            if rng.random() < 0.6:
                text += "/" + rng.choice(["", "0"]) + str(rng.randrange(1, 10**rng.randrange(1, 25)))
            texts.append(text)
        for text in texts:
            got = as_rational(text)
            assert type(got) is Fraction and got == Fraction(text), text

    @pytest.mark.parametrize("text", ["1/0", "-5/000", "+0/0", "1" * 4301, "-" + "9" * 4301 + "/2", "2/" + "7" * 4301],
                             ids=["p-over-0", "zeros", "zero-over-zero", "4301-digits", "4301-digit-p", "4301-digit-q"])
    def test_rejects_zero_denominators_and_the_digit_limit(self, text):
        with pytest.raises(MalformedInputError):
            as_rational(text)

    @pytest.mark.parametrize("value", [True, False])
    def test_rejects_bool_weight(self, value):
        with pytest.raises(MalformedInputError):
            as_rational(value)
        with pytest.raises(MalformedInputError):
            PartialMetric(["a", "b"], {pair("a", "b"): value})

    def test_rejects_labels_that_do_not_sort_together(self):
        with pytest.raises(MalformedInputError):
            PartialMetric([1, "a"], {})
        with pytest.raises(MalformedInputError):
            PartialMetric([1, "a", "b"], {pair("a", "b"): 1})
        for labels in ([1, 2, 3], ["a", "b", "c"]):
            m = PartialMetric(labels, {pair(labels[0], labels[1]): 1, pair(labels[1], labels[2]): 2})
            assert validate(m).graph_metric
            assert shortest_path(m, labels[0], labels[2]) == 3

    @pytest.mark.parametrize("edges", [{("a", "b"): 1, ("b", "a"): 2}, {pair("a", "b"): "1/2", ("b", "a"): "1/3"}])
    def test_rejects_conflicting_duplicate_keys(self, edges):
        """Two keys that name one pair with different weights; the constructor used to keep the last."""
        with pytest.raises(MalformedInputError, match="duplicate edge .* with conflicting weights"):
            PartialMetric(["a", "b"], edges)

    def test_accepts_equal_duplicate_keys(self):
        m = PartialMetric(["a", "b"], {("a", "b"): 1, ("b", "a"): "2/2", pair("a", "b"): Fraction(1)})
        assert dict(m.edges) == {pair("a", "b"): 1}

    @pytest.mark.parametrize(
        "entries",
        [[(("a", "b"), 1), (("a", "b"), 2)], [(pair("a", "b"), "1/2"), (("b", "a"), "1/3")],
         iter([(("b", "c"), 1), (("a", "b"), 1), (("b", "c"), 2)])],
        ids=["same-key", "either-orientation", "iterator"],
    )
    def test_rejects_conflicting_duplicate_entries(self, entries):
        """An entry list names one pair twice with different weights; no dict collapses it first."""
        with pytest.raises(MalformedInputError, match="duplicate edge .* with conflicting weights"):
            PartialMetric(["a", "b", "c"], entries)

    @pytest.mark.parametrize(
        "vertices, edges",
        [(["a", "b"], [("a", "b", 1)]), (["a", "b"], [(("a", "b"),)]), (["a", "b"], [(("a",), 1)]),
         (["a", "b"], {("a",): 1}), (["a", "b"], 5), (["a", "b"], [("ab", 1)]), ("ab", {}), (["a", "b"], "ab"),
         (["a", "b"], [((1, "a"), 1)]), (["a", "b"], [(([1], "a"), 1)]), (["a", "b"], [((None, "a"), 1)]),
         (["a", "b"], {("a", ("x",)): 1}), (["a", "b"], [(([1], [2]), 1)]), ([[1], [2]], {}),
         (["a", "b"], ((pair(1, "a"), 1) for _ in range(1)))],
        ids=["three-item-entry", "one-item-entry", "one-label-pair", "one-label-key", "int-edges", "string-pair",
             "string-vertices", "string-edges", "int-str-pair", "list-str-pair", "none-str-pair", "tuple-label-key",
             "unhashable-pair", "unhashable-vertices", "pair-call"],
    )
    def test_rejects_malformed_shapes(self, vertices, edges):
        """An entry is a 2-item tuple or list, a pair is a Doubleton or a 2-item tuple or list of labels, and
        neither argument is a str; labels hash and compare (``pair`` is called as the entries are read).  The
        constructor used to raise a bare ValueError or TypeError, or read a string as its characters."""
        with pytest.raises(MalformedInputError):
            PartialMetric(vertices, edges)

    @pytest.mark.parametrize("labels", [["a", "b", "a"], ("x", "x"), [1, 2, 2]])
    def test_rejects_repeated_vertex_labels(self, labels):
        with pytest.raises(MalformedInputError, match="vertex labels must be pairwise distinct"):
            PartialMetric(labels, {})

    def test_equal_duplicate_entries_match_the_mapping_form(self):
        entries = [(("a", "b"), 1), (("b", "c"), "3/2"), (("b", "a"), "2/2"), (pair("c", "b"), Fraction(3, 2))]
        m = PartialMetric(["a", "b", "c"], entries)
        assert m == PartialMetric(["a", "b", "c"], {pair("a", "b"): 1, pair("b", "c"): Fraction(3, 2)})
        assert m._scale == 2 and shortest_path(m, "a", "c") == Fraction(5, 2)

    def test_single_vertex_is_full_and_floppy(self):
        m = PartialMetric(["a"], {})
        rep = validate(m)
        assert rep.connected and rep.full and rep.graph_metric
        assert is_floppy(m).floppy
        assert is_floppy(m).worst_pair is None


class TestNotAMetric:
    """Every grade check and every per-pair query rejects an argument that is not a ``PartialMetric``."""

    CALLS = {
        "validate": validate,
        "is_floppy": is_floppy,
        "full_extend": full_extend,
        "minimal_floppy_extension": minimal_floppy_extension,
        "shortest_path": lambda m: shortest_path(m, "a", "b"),
        "shortest_chain": lambda m: shortest_chain(m, "a", "b"),
        "lower_envelope": lambda m: lower_envelope(m, "a", "b"),
        "doubleton_dist": lambda m: doubleton_dist(m, pair("a", "b"), pair("a", "c")),
    }

    @pytest.mark.parametrize("call", CALLS.values(), ids=CALLS.keys())
    @pytest.mark.parametrize("arg", [[1, 2], (["a", "b"], {("a", "b"): 1}, True), None], ids=["list", "tuple", "none"])
    def test_rejected_as_malformed(self, call, arg):
        with pytest.raises(MalformedInputError):
            call(arg)


class TestNotAPair:
    """Every public call that takes a pair admits only a ``Doubleton``: a str, tuple or list is not read as one."""

    CALLS = {
        "doubleton_dist-p": lambda m, d: doubleton_dist(m, d, pair("a", "b")),
        "doubleton_dist-q": lambda m, d: doubleton_dist(m, pair("a", "b"), d),
        "is_edge": lambda m, d: m.is_edge(d),
        "weight": lambda m, d: m.weight(d),
        "with_edge": lambda m, d: m.with_edge(d, 11),
        "admissible_interval": admissible_interval,
        "one_step_extend": lambda m, d: one_step_extend(m, d, Fraction(34, 3)),
        "verify_step_properties": lambda m, d: verify_step_properties(m, d, Fraction(34, 3)),
    }

    @pytest.mark.parametrize("call", CALLS.values(), ids=CALLS.keys())
    @pytest.mark.parametrize("d", ["xy", ("x", "y"), ["x", "y"], 5], ids=["str", "tuple", "list", "int"])
    def test_rejected_as_malformed(self, h_graph, call, d):
        with pytest.raises(MalformedInputError, match=f"^expected a Doubleton pair, got {type(d).__name__}$"):
            call(h_graph, d)


class TestValidate:
    def test_two_edge_path(self, path_abc):
        rep = validate(path_abc)
        assert (rep.connected, rep.graph_pseudometric, rep.graph_metric, rep.full) == (
            True,
            True,
            True,
            False,
        )

    def test_triangle_violation(self):
        m = PartialMetric(
            ["a", "b", "c"],
            {pair("a", "b"): 1, pair("b", "c"): 1, pair("a", "c"): 5},
        )
        rep = validate(m)
        assert not rep.graph_pseudometric
        assert not rep.graph_metric

    def test_equilateral_triangle_is_full(self):
        m = PartialMetric(
            ["a", "b", "c"],
            {pair("a", "b"): 1, pair("b", "c"): 1, pair("a", "c"): 1},
        )
        rep = validate(m)
        assert rep.full and rep.graph_metric and rep.connected

    def test_disconnected_flagged(self):
        m = PartialMetric(["a", "b", "c", "d"], {pair("a", "b"): 1, pair("c", "d"): 1})
        assert not validate(m).connected

    def test_zero_weight_is_pseudometric_not_metric(self):
        m = PartialMetric(["a", "b"], {pair("a", "b"): 0})
        rep = validate(m)
        assert rep.graph_pseudometric and not rep.graph_metric


class TestShortestPath:
    def test_path(self, path_abc):
        assert shortest_path(path_abc, "a", "c") == 2
        assert shortest_path(path_abc, "a", "a") == 0

    def test_h_graph(self, h_graph):
        assert shortest_path(h_graph, "x", "y") == brute_hat(h_graph, "x", "y") == 12

    def test_cantor_depth_one_siblings(self):
        m = cantor_tree(1)
        assert shortest_path(m, "0", "1") == brute_hat(m, "0", "1") == 1

    def test_unknown_vertex(self, path_abc):
        """Every per-pair query rejects an unknown label in each position,
        also when both labels are the same unknown one."""
        for x, y in (("a", "z"), ("z", "a"), ("z", "z")):
            for query in (shortest_path, shortest_chain, lower_envelope):
                with pytest.raises(UnknownVertexError):
                    query(path_abc, x, y)
        ab, first, second, both = pair("a", "b"), pair("0", "b"), pair("a", "z"), pair("0", "z")
        for p, q in ((first, ab), (second, ab), (ab, first), (ab, second), (both, both)):
            with pytest.raises(UnknownVertexError):
                doubleton_dist(path_abc, p, q)

    def test_chain_realizes_distance(self, h_graph):
        chain = shortest_chain(h_graph, "x", "y")
        assert chain == ["x", "a", "b", "y"]
        total = sum(
            h_graph.weight(pair(u, v)) for u, v in zip(chain, chain[1:])
        )
        assert total == 12

    def test_oracle_equivalence_small_graphs(self, rng):
        for _ in range(25):
            m = random_connected_graph(rng, rng.randrange(3, 8))
            verts = sorted(m.vertices)
            for u, v in combinations(verts, 2):
                assert shortest_path(m, u, v) == brute_hat(m, u, v)


class TestDoubletonDist:
    def test_identity(self, h_graph):
        assert doubleton_dist(h_graph, pair("a", "b"), pair("a", "b")) == 0

    def test_h_graph(self, h_graph):
        assert doubleton_dist(h_graph, pair("a", "b"), pair("x", "y")) == 2

    def test_path_abcd(self, path_abcd):
        assert doubleton_dist(path_abcd, pair("a", "c"), pair("b", "d")) == 2

    def test_triangle_inequality_and_pair_bound(self, rng):
        # pseudometric on doubletons, plus hat(a,b) <= hat(u,v) + ddot(ab, uv)
        for _ in range(10):
            m = random_connected_graph(rng, rng.randrange(4, 8))
            doubles = [pair(u, v) for u, v in combinations(sorted(m.vertices), 2)]
            for p in doubles:
                for q in doubles:
                    duv = doubleton_dist(m, p, q)
                    assert shortest_path(m, p.a, p.b) <= shortest_path(m, q.a, q.b) + duv
                    for s in doubles:
                        assert doubleton_dist(m, p, s) <= duv + doubleton_dist(m, q, s)

class TestLowerEnvelope:
    def test_path(self, path_abc):
        assert lower_envelope(path_abc, "a", "c") == 0

    def test_h_graph(self, h_graph):
        assert lower_envelope(h_graph, "x", "y") == brute_check(h_graph, "x", "y") == 8

    def test_cantor_closed_form(self):
        m = cantor_tree(2)
        for s in sorted(m.vertices):
            for t in sorted(m.vertices):
                if s < t:
                    expected = abs(
                        Fraction(1, 2 ** len(s)) - Fraction(1, 2 ** len(t))
                    )
                    assert lower_envelope(m, s, t) == expected

    def test_edges_of_graph_metric_pin_envelope(self, rng):
        # for every edge: envelope == distance == weight, exactly
        for seed in range(8):
            m = random_floppy(6, Fraction(1, 2), seed)
            for d, w in m.edges.items():
                assert lower_envelope(m, d.a, d.b) == shortest_path(m, d.a, d.b) == w

    def test_non_edges_bounded_by_distance(self, rng):
        for seed in range(8):
            m = random_floppy(6, Fraction(1, 2), seed + 100)
            for d in m.non_edges():
                assert lower_envelope(m, d.a, d.b) <= shortest_path(m, d.a, d.b)


class TestMetricReads:
    """The metric's own integer reads, which every other module uses."""

    def test_reads_are_the_fraction_api_times_l(self, rng):
        """``_hat``, ``_envelope`` and ``_dd`` times 1/L are the Fraction API, ``_pairs`` is the per-pair reads in
        sorted order, and the reads raise the API's errors."""
        for _ in range(10):
            m = random_connected_graph(rng, rng.randrange(4, 8))
            scale, labels = m._denominator(), sorted(m.vertices)
            doubles = [pair(u, v) for u, v in combinations(labels, 2)]
            for x in labels:
                for y in labels:
                    assert Fraction(m._hat(x, y), scale) == shortest_path(m, x, y), (x, y)
                    assert Fraction(m._envelope(x, y), scale) == lower_envelope(m, x, y), (x, y)
            for p in doubles:
                assert [Fraction(m._dd(p, q), scale) for q in doubles] == [doubleton_dist(m, p, q) for q in doubles]
            assert list(m._pairs()) == [(u, v, m._hat(u, v), m._envelope(u, v)) for u, v in combinations(labels, 2)]
        split = PartialMetric(["a", "b", "c", "p", "q"], {pair("a", "b"): 1, pair("b", "c"): 1, pair("p", "q"): 2})
        with pytest.raises(DisconnectedError, match="^no chain connects 'a' and 'p'$"):
            verify_step_properties(split, pair("a", "c"), Fraction(3, 2))
        with pytest.raises(UnknownVertexError, match="^unknown vertex 'z'$"):
            doubleton_dist(split, pair("a", "b"), pair("a", "z"))
        ab, pq = pair("a", "b"), pair("p", "q")
        for read, want in [(lambda: split._dd(ab, pq), "pairs {a,b} and {p,q} span disconnected components"),
                           (lambda: split._dd(pair("a", "z"), pq), "unknown vertex 'z'"),
                           (lambda: split._hat("a", "q"), "no chain connects 'a' and 'q'"),
                           (lambda: split._envelope("z", "a"), "unknown vertex 'z'")]:
            with pytest.raises(MetricError, match=f"^{re.escape(want)}$"):
                read()


def seeded_graph_metrics(seed, count):
    """Graph metrics on 3-6 int labels whose numeric order is not their text order (2 < 10): each edge of a
    random connected graph reweighted to its brute-force distance, which makes every weight its own hat."""
    rng = random.Random(seed)
    for _ in range(count):
        g = random_connected_graph(rng, rng.randrange(3, 7), extra_edges=rng.randrange(4))
        label = dict(zip(sorted(g.vertices), rng.sample(range(1, 30), len(g.vertices))))
        yield PartialMetric(label.values(), {pair(label[d.a], label[d.b]): brute_hat(g, d.a, d.b) for d in g.edges})


class TestSweepsAgainstBruteForce:
    """``non_edges`` and ``is_floppy`` walk table index pairs and build a ``Doubleton`` only for a pair they
    report; the oracle walks the sorted labels with the brute-force hat and check."""

    @pytest.mark.parametrize("m", list(seeded_graph_metrics(2301, 16)))
    def test_non_edges_and_worst_pair(self, m):
        missing = [pair(u, v) for u, v in combinations(sorted(m.vertices), 2) if pair(u, v) not in m.edges]
        assert m.non_edges() == missing
        gaps = {d: brute_hat(m, d.a, d.b) - brute_check(m, d.a, d.b) for d in missing}
        rep = is_floppy(m)
        if not gaps:
            assert (rep.floppy, rep.worst_pair, rep.gap) == (True, None, None)
            return
        worst = min(gaps, key=gaps.get)  # the first minimal gap in sorted order
        assert (rep.floppy, rep.worst_pair, rep.gap) == (gaps[worst] > 0, worst, gaps[worst])

    def test_the_corpus_has_floppy_unfloppy_and_full_metrics(self):
        kinds = {(not m.non_edges(), is_floppy(m).floppy) for m in seeded_graph_metrics(2301, 16)}
        assert kinds == {(True, True), (False, True), (False, False)}


class TestIsFloppy:
    def test_full_metric_floppy_no_worst_pair(self):
        m = PartialMetric(
            ["a", "b", "c"],
            {pair("a", "b"): 1, pair("b", "c"): 1, pair("a", "c"): 1},
        )
        rep = is_floppy(m)
        assert rep.floppy and rep.worst_pair is None

    def test_h_graph_gaps(self, h_graph):
        rep = is_floppy(h_graph)
        assert rep.floppy
        gaps = {
            d: shortest_path(h_graph, d.a, d.b) - lower_envelope(h_graph, d.a, d.b)
            for d in h_graph.non_edges()
        }
        assert gaps == {pair("x", "y"): 4, pair("a", "y"): 2, pair("b", "x"): 2}
        assert rep.gap == 2

    def test_star_is_floppy(self, star_cuvw):
        assert lower_envelope(star_cuvw, "u", "v") == 0
        assert is_floppy(star_cuvw).floppy

    def test_collinear_witness_not_floppy(self, collinear_witness):
        rep = is_floppy(collinear_witness)
        assert not rep.floppy
        assert rep.worst_pair == pair("a", "c")
        assert rep.gap == 0

    def test_requires_graph_metric(self):
        bad = PartialMetric(
            ["a", "b", "c"],
            {pair("a", "b"): 1, pair("b", "c"): 1, pair("a", "c"): 5},
        )
        with pytest.raises(NotGraphMetricError):
            is_floppy(bad)

    def test_report_is_kept_and_copies_start_without_one(self, collinear_witness):
        rep = is_floppy(collinear_witness)
        assert is_floppy(collinear_witness) is rep and not rep.floppy
        full = collinear_witness.with_edge(pair("a", "c"), 2)  # the forced pair, so the copy is floppy
        assert is_floppy(full).floppy
        assert is_floppy(collinear_witness) is rep

    def test_grade_is_checked_on_every_call(self):
        """A zero weight is pseudometric grade: every call rejects it, and none keeps a report."""
        zero = PartialMetric(["a", "b", "c"], {pair("a", "b"): 0, pair("b", "c"): 1})
        for _ in range(2):
            with pytest.raises(NotGraphMetricError, match="not a graph metric"):
                is_floppy(zero)
        assert zero._floppy is None


class TestMinimalFloppyExtension:
    def test_h_graph_unchanged(self, h_graph):
        assert minimal_floppy_extension(h_graph) == h_graph

    def test_path_unchanged(self, path_abc):
        assert minimal_floppy_extension(path_abc) == path_abc

    def test_collinear_witness_forces_pair(self, collinear_witness):
        extended = minimal_floppy_extension(collinear_witness)
        assert extended.is_edge(pair("a", "c"))
        assert extended.weight(pair("a", "c")) == 2
        assert minimal_floppy_extension(extended) is extended  # one round settles it
        assert is_floppy(extended).floppy  # now full

    def test_contains_original(self, collinear_witness):
        extended = minimal_floppy_extension(collinear_witness)
        for d, w in collinear_witness.edges.items():
            assert extended.weight(d) == w


class TestIncrementalTable:
    def test_with_edge_matches_full_recompute(self, rng):
        for seed in range(10):
            m = random_floppy(6, Fraction(1, 2), seed + 300)
            non_edges = m.non_edges()
            if not non_edges:
                continue
            d = non_edges[rng.randrange(len(non_edges))]
            h = shortest_path(m, d.a, d.b)
            r = h * Fraction(rng.randrange(1, 8), 8)
            fast = m.with_edge(d, r)  # m's table exists, so fast's is derived by relaxation
            slow = PartialMetric(m.vertices, {**dict(m.edges), d: r})
            for u in sorted(m.vertices):
                for v in sorted(m.vertices):
                    assert shortest_path(fast, u, v) == shortest_path(slow, u, v), (seed, u, v)
                    assert lower_envelope(fast, u, v) == lower_envelope(slow, u, v), (seed, u, v)
