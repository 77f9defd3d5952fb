import random
from fractions import Fraction
from itertools import combinations

import pytest

from floppymetrics import (
    Doubleton,
    PartialMetric,
    as_rational,
    doubleton_dist,
    is_floppy,
    lower_envelope,
    minimal_floppy_extension,
    pair,
    shortest_chain,
    shortest_path,
    validate,
)
from floppymetrics.errors import (
    MalformedInputError,
    NotGraphMetricError,
    UnknownVertexError,
)
from floppymetrics.generators import cantor_tree, random_floppy

from conftest import brute_check, brute_ddot, brute_hat, random_connected_graph


class TestDoubleton:
    def test_canonical_order(self):
        assert Doubleton("b", "a") == Doubleton("a", "b")
        assert Doubleton("b", "a").a == "a"

    def test_rejects_equal_endpoints(self):
        with pytest.raises(MalformedInputError):
            Doubleton("a", "a")


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

    def test_single_vertex_is_full_and_floppy(self):
        m = PartialMetric(["a"], {})
        rep = validate(m)
        assert rep.connected and rep.full and rep.graph_metric
        assert is_floppy(m).floppy
        assert is_floppy(m).worst_pair is None


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


class TestMinimalFloppyExtension:
    def test_h_graph_unchanged(self, h_graph):
        assert minimal_floppy_extension(h_graph) == h_graph

    def test_path_unchanged(self, path_abc):
        assert minimal_floppy_extension(path_abc) == path_abc

    def test_collinear_witness_forces_pair(self, collinear_witness):
        extended, iterations = minimal_floppy_extension(collinear_witness, return_iterations=True)
        assert extended.is_edge(pair("a", "c"))
        assert extended.weight(pair("a", "c")) == 2
        assert iterations >= 1
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
