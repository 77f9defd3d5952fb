"""Differential tests for the distance/envelope kernel.

The library builds its distance table with an integer-scaled Floyd-Warshall,
derives tables of ``with_edge`` copies by relaxation, and evaluates envelopes
through max-plus rows that a metric builds, carries and caches whole.  These tests check ``shortest_path`` and
``lower_envelope`` against two references that share none of that code:

* the brute-force oracles in ``conftest.py`` (small connected graphs), and
* the per-edge envelope scan over a Fraction Floyd-Warshall on a
  label-keyed table, kept here as the reference implementation.

``TestCarriedRows`` covers the envelope rows that ``with_edge`` copies carry
over from a connected parent that holds all of its rows, and the cold copies
of every other parent.
``TestIntegerRows`` covers the common denominator those rows are scaled by,
when a chain brings in new denominators, also ones past the float range, and
weights whose values pass the float range between components.
``TestIntegerTable`` covers the distance table, held as ints over the same
denominator, and the Fractions the API builds from it.
``TestAffectedPairs`` covers the weights that decide which pairs a new edge
can shorten: just below hat, as the extension driver and the game choose
them, and exact ties on the boundary of the affected sets.
``TestRunningMetric`` covers the running metric that ``full_extend`` and
``minimal_floppy_extension`` adjoin into in place: the same steps as a
``with_edge`` chain, and an input left as it was.

A property test then checks the lemma the constructive instances rely on at
sizes the brute oracles cannot reach.
"""

import itertools
import math
import random
from fractions import Fraction
from itertools import combinations

import pytest

from floppymetrics import (
    PartialMetric,
    cantor_tree,
    doubleton_dist,
    full_extend,
    is_floppy,
    lower_envelope,
    minimal_floppy_extension,
    pair,
    shortest_path,
    validate,
)
from floppymetrics.core import _envelope_rows
from floppymetrics.errors import DisconnectedError

from conftest import brute_check, brute_hat, metric_state, random_connected_graph


def reference_table(m):
    """Label-keyed Floyd-Warshall over Fractions; ``None`` if unreachable.

    ``None`` is never added or compared, so weights past the float range
    stay exact here too.
    """
    verts = sorted(m.vertices)
    dist = {(u, v): (Fraction(0) if u == v else None) for u in verts for v in verts}
    for d, w in m.edges.items():
        old = dist[(d.a, d.b)]
        dist[(d.a, d.b)] = dist[(d.b, d.a)] = w if old is None else min(w, old)
    for k in verts:
        for u in verts:
            for v in verts:
                uk, kv, uv = dist[(u, k)], dist[(k, v)], dist[(u, v)]
                if uk is not None and kv is not None and (uv is None or uk + kv < uv):
                    dist[(u, v)] = uk + kv
    return dist


def reference_envelope(m, table, x, y):
    """Max over edges ab of w(ab) - doubleton_dist(ab, xy), clamped at 0.

    An endpoint matching that crosses components contributes nothing.
    """
    if x == y:
        return Fraction(0)
    best = Fraction(0)
    for d, w in m.edges.items():
        for a, b in ((d.a, d.b), (d.b, d.a)):
            ax, by = table[(a, x)], table[(b, y)]
            if ax is not None and by is not None:
                best = max(best, w - ax - by)
    return best


def assert_matches_reference(m, label=""):
    """Every ordered pair: shortest_path and lower_envelope equal the reference."""
    table = reference_table(m)
    for u in sorted(m.vertices):
        for v in sorted(m.vertices):
            if table[(u, v)] is None:
                with pytest.raises(DisconnectedError):
                    shortest_path(m, u, v)
            else:
                assert shortest_path(m, u, v) == table[(u, v)], (label, u, v)
            got = lower_envelope(m, u, v)
            assert type(got) is Fraction, (label, u, v)
            assert got == reference_envelope(m, table, u, v), (label, u, v)


def random_weight(rng, zero_share=0.0):
    if rng.random() < zero_share:
        return Fraction(0)
    return Fraction(rng.randrange(1, 40), rng.randrange(1, 9))


def random_graph(rng, n, p, zero_share=0.0):
    """Arbitrary weights on G(n, p); may be disconnected."""
    verts = [f"v{i}" for i in range(n)]
    edges = {pair(u, v): random_weight(rng, zero_share) for u, v in combinations(verts, 2) if rng.random() < p}
    return PartialMetric(verts, edges)


class TestAgainstBruteOracles:
    def test_random_connected_graphs(self):
        rng = random.Random(4101)
        for trial in range(25):
            m = random_connected_graph(rng, rng.randrange(2, 8), extra_edges=rng.randrange(0, 6))
            for x, y in combinations(sorted(m.vertices), 2):
                assert shortest_path(m, x, y) == brute_hat(m, x, y), (trial, x, y)
                assert lower_envelope(m, x, y) == brute_check(m, x, y), (trial, x, y)

    def test_zero_weights(self):
        rng = random.Random(4102)
        for trial in range(20):
            base = random_connected_graph(rng, rng.randrange(3, 8), extra_edges=rng.randrange(0, 5))
            m = PartialMetric(
                base.vertices,
                {d: (Fraction(0) if rng.random() < 0.3 else w) for d, w in base.edges.items()},
            )
            for x, y in combinations(sorted(m.vertices), 2):
                assert shortest_path(m, x, y) == brute_hat(m, x, y), (trial, x, y)
                assert lower_envelope(m, x, y) == brute_check(m, x, y), (trial, x, y)


class TestAgainstPerEdgeScan:
    def test_random_connected_graphs(self):
        rng = random.Random(4201)
        for trial in range(15):
            n = rng.randrange(2, 13)
            assert_matches_reference(random_connected_graph(rng, n, extra_edges=rng.randrange(0, 2 * n)), trial)

    def test_zero_weights(self):
        rng = random.Random(4202)
        for trial in range(15):
            assert_matches_reference(random_graph(rng, rng.randrange(2, 11), 0.5, zero_share=0.3), trial)

    def test_disconnected_graphs(self):
        rng = random.Random(4203)
        seen_disconnected = 0
        for trial in range(20):
            m = random_graph(rng, rng.randrange(2, 12), 0.15, zero_share=0.1)
            seen_disconnected += not validate(m).connected
            assert_matches_reference(m, trial)
        assert seen_disconnected >= 10

    def test_edgeless_and_single_vertex(self):
        assert_matches_reference(PartialMetric(["a"], {}))
        assert_matches_reference(PartialMetric(["a", "b", "c"], {}))

    def test_with_edge_chains(self):
        """Tables derived through chains of with_edge match fresh references.

        Envelopes are queried at every link, so rows are built on derived
        tables too.  Chains add arbitrary weights (also zero, and edges that
        join components) and occasionally replace an existing edge.  A copy
        carries the table only together with the rows, and only from a
        connected parent, so the first link's parent gets both.
        """
        rng = random.Random(4204)
        for trial in range(12):
            m = random_graph(rng, rng.randrange(3, 10), 0.2, zero_share=0.15)
            validate(m)  # builds m's table
            lower_envelope(m, *sorted(m.vertices)[:2])  # and its rows; each connected link relaxes both
            for link in range(6):
                if m.edges and rng.random() < 0.15:
                    d = rng.choice(sorted(m.edges))
                else:
                    missing = m.non_edges()
                    if not missing:
                        break
                    d = rng.choice(missing)
                m = m.with_edge(d, random_weight(rng, zero_share=0.15))
                assert_matches_reference(m, (trial, link))


def assert_no_infinity(m, label=""):
    """A connected metric's table and rows, carried or built, hold no ``None``."""
    for cache in (m._dist, m._rows):
        assert cache is None or all(None not in row for row in cache), label


def cache_rows(m, mode):
    """Return m with its table built and the envelope rows of ``mode`` cached.

    ``carried``: m as derived, with whatever rows it carried; ``none`` and
    ``all``: a fresh copy of m with no rows or every row.  ``cold``: a fresh
    copy with no table either (the copy starts cold too).
    """
    if mode == "carried":
        return m
    m = PartialMetric(m.vertices, m.edges)
    if mode == "cold":
        return m
    validate(m)
    if mode == "all":
        verts = sorted(m.vertices)
        for x in verts:
            lower_envelope(m, x, verts[0] if x != verts[0] else verts[-1])
    return m


def grow_chain(rng, m, links, *, zero_share=0.0, replace_share=0.0, prefer=None, weight=None):
    """Metrics along a with_edge chain, plus one sibling per link.

    Each parent gets a random row-cache state before its children are built.
    Nothing is compared until the whole chain exists, so children derive from
    parents with and without cached rows, and every parent is checked after
    its children:
    a child that wrote into a shared row would show up in its parent or its
    sibling.  ``prefer(m)`` narrows the candidate new pairs when non-empty;
    ``weight(rng, parent, d)`` draws the new weight of pair ``d`` (default
    ``random_weight``).
    """
    draw = weight or (lambda rng, *_: random_weight(rng, zero_share))
    out = [m]
    for _ in range(links):
        parent = cache_rows(out[-1], rng.choice(["carried", "carried", "none", "all", "all", "cold"]))
        if parent is not out[-1]:
            out.append(parent)
        picks = []
        for _ in range(2):
            if parent.edges and rng.random() < replace_share:
                picks.append(rng.choice(sorted(parent.edges)))
            else:
                missing = (prefer and prefer(parent)) or parent.non_edges()
                if missing:
                    picks.append(rng.choice(missing))
        if not picks:
            break
        sibling, child = (parent.with_edge(d, draw(rng, parent, d)) for d in (picks[0], picks[-1]))
        out += [sibling, child]
    return out


def cross_component_pairs(m):
    table = reference_table(m)
    return [d for d in m.non_edges() if table[(d.a, d.b)] is None]


class TestCarriedRows:
    """A metric builds its envelope rows whole, and with_edge carries all of
    a connected parent's rows through the new edge, or none.

    Every copy, parent and sibling is compared with ``reference_envelope``
    over ``reference_table`` after the whole chain is built.
    """

    def test_one_query_builds_every_row(self):
        rng = random.Random(4406)
        m = random_graph(rng, 9, 0.3)
        lower_envelope(m, "v0", "v1")
        assert len(m._rows) == 9
        assert all(row is not None for row in m._rows)

    def test_chains_from_all_some_or_no_cached_rows(self):
        rng = random.Random(4401)
        for trial in range(12):
            m = random_connected_graph(rng, rng.randrange(3, 11), extra_edges=rng.randrange(0, 8))
            for k, link in enumerate(grow_chain(rng, m, 6)):
                assert_matches_reference(link, (trial, k))
                assert_no_infinity(link, (trial, k))

    def test_component_joins(self):
        rng = random.Random(4402)
        for trial in range(12):
            m = random_graph(rng, rng.randrange(4, 12), 0.12)
            for k, link in enumerate(grow_chain(rng, m, 6, prefer=cross_component_pairs)):
                assert_matches_reference(link, (trial, k))

    def test_zero_weights(self):
        rng = random.Random(4403)
        for trial in range(12):
            m = random_graph(rng, rng.randrange(3, 11), 0.35, zero_share=0.3)
            for k, link in enumerate(grow_chain(rng, m, 6, zero_share=0.3)):
                assert_matches_reference(link, (trial, k))

    def test_edge_replacement(self):
        rng = random.Random(4404)
        for trial in range(12):
            m = random_connected_graph(rng, rng.randrange(3, 10), extra_edges=rng.randrange(0, 6))
            for k, link in enumerate(grow_chain(rng, m, 6, replace_share=0.3)):
                assert_matches_reference(link, (trial, k))
                assert_no_infinity(link, (trial, k))

    def test_which_rows_are_carried(self):
        """All rows carry from a fully cached parent; none from a cold one or
        through a replaced edge; parent rows are never written."""
        rng = random.Random(4405)
        m = random_connected_graph(rng, 8, extra_edges=4)
        full = cache_rows(m, "all")
        snapshot = [list(row) for row in full._rows]
        d = m.non_edges()[0]
        child = full.with_edge(d, Fraction(100))  # raises new-edge entries in unchanged rows
        assert all(row is not None for row in child._rows)
        assert [list(row) for row in full._rows] == snapshot
        assert cache_rows(m, "none").with_edge(d, 1)._rows is None
        assert full.with_edge(sorted(m.edges)[0], 1)._rows is None

    def test_disconnected_metric_copies_cold(self):
        """A metric with a vertex that no edge reaches keeps ``None`` in its
        caches, so its copies and ``with_edge`` children start cold, even from
        a fully cached parent; one vertex alone has no edge and copies cold too."""
        rng = random.Random(4409)
        metrics = [PartialMetric(["a"], {}), PartialMetric(["a", "b", "c"], {pair("a", "b"): 1})]
        for _ in range(8):
            m = random_graph(rng, rng.randrange(3, 10), 0.4, zero_share=0.2)
            metrics.append(PartialMetric([*m.vertices, "z"], m.edges))  # z is isolated
        for trial, m in enumerate(metrics):
            _envelope_rows(m)  # builds the table and every row
            children = [m._copy()]
            if m.non_edges():
                children.append(m.with_edge(rng.choice(m.non_edges()), random_weight(rng)))
            for child in children:
                assert (child._dist, child._rows) == (None, None), trial
                assert_matches_reference(child, trial)

    @pytest.mark.parametrize("warm", [is_floppy, validate, None], ids=["is_floppy", "validate", "cold"])
    def test_table_travels_with_the_rows(self, warm):
        """Every ``_copy`` and ``with_edge`` result holds both the table and the
        rows, or neither: both from a parent that swept them (``is_floppy``),
        neither from one that built only its table (``validate``) or nothing,
        and neither through a reweighted edge."""
        rng = random.Random(4407)
        for trial in range(8):
            m, _ = taxicab_plus_one_subgraph(rng, rng.randrange(3, 9), Fraction(rng.randrange(3), 4))
            if warm:
                warm(m)
            carried = warm is is_floppy
            children = [(m._copy(), carried), (m.with_edge(rng.choice(sorted(m.edges)), 1), False)]
            if m.non_edges():
                d = rng.choice(m.non_edges())
                children.append((m.with_edge(d, shortest_path(m, d.a, d.b) - Fraction(1, 3)), carried))
            for child, both in children:
                assert (child._dist is not None, child._rows is not None) == (both, both), trial
                assert_matches_reference(child, trial)

    def test_reweighting_builds_the_constructors_metric(self):
        """``with_edge`` on an existing edge gives the constructor's metric, at
        its own common denominator, cold and without a report, and leaves its
        parent's dict, table, rows and report as they were."""
        rng = random.Random(4408)
        metrics = [PartialMetric(["a", "b", "c"], {pair("a", "b"): Fraction(1, 7), pair("b", "c"): 1})]
        metrics += [taxicab_plus_one_subgraph(rng, rng.randrange(3, 9), Fraction(1, 2))[0] for _ in range(6)]
        for trial, m in enumerate(metrics):
            is_floppy(m)
            before = metric_state(m)
            d = min(m.edges)
            child = m.with_edge(d, 2)
            fresh = PartialMetric(m.vertices, {**m.edges, d: 2})
            assert (child, child._scale) == (fresh, fresh._scale), trial
            assert child._dist is None and child._rows is None and child._floppy is None, trial
            assert metric_state(m) == before, trial
            assert_matches_reference(child, trial)


def weights_over(denominators, zero_share=0.0, magnitudes=(1,)):
    """Weight draws whose denominators take ``denominators`` in turn, and
    whose values are scaled by ``magnitudes`` in turn."""
    queue = itertools.cycle(denominators)
    factors = itertools.cycle(magnitudes)

    def draw(rng, *_):
        q, k = next(queue), next(factors)
        return Fraction(0) if rng.random() < zero_share else Fraction(rng.randrange(1, 40 * q) * k, q)

    return draw


def integer_graph(rng, n, p):
    """G(n, p) with integer weights, so every fractional weight added later
    changes the common denominator; may be disconnected."""
    verts = [f"v{i}" for i in range(n)]
    return PartialMetric(verts, {pair(u, v): rng.randrange(1, 40) for u, v in combinations(verts, 2) if rng.random() < p})


class TestIntegerRows:
    """Envelope rows are ints over the metric's common denominator L, and a
    ``with_edge`` copy carries them to L' = lcm(L, w.denominator).

    Every copy, parent and sibling is compared with ``reference_envelope``
    after the whole chain is built, so a carried row left at the parent's
    scale, a parent row rescaled in place, or a through-term shifted at the
    wrong scale shows up in some metric of the chain.
    """

    def test_new_denominators_mid_chain(self):
        rng = random.Random(4501)
        for trial in range(12):
            m = random_connected_graph(rng, rng.randrange(3, 11), extra_edges=rng.randrange(0, 8))
            m = PartialMetric(m.vertices, {d: w.numerator for d, w in m.edges.items()})
            draw = weights_over([1, 2, 3, 7, 2, 11, 13, 5])
            for k, link in enumerate(grow_chain(rng, m, 6, weight=draw)):
                assert_matches_reference(link, (trial, k))

    def test_denominators_past_float_range(self):
        """L, and some weights' values, exceed the float range while
        disconnected graphs keep ``None`` (unreachable) entries in the
        tables; a float sentinel met by such a value would raise
        ``OverflowError``."""
        rng = random.Random(4502)
        for trial in range(10):
            m = integer_graph(rng, rng.randrange(4, 11), 0.25)
            draw = weights_over([2**1100, 3, 3**700, 1, 2**1100 + 1], magnitudes=[1, 2**1100, 1, 3**700])
            for k, link in enumerate(grow_chain(rng, m, 5, weight=draw, prefer=cross_component_pairs)):
                assert_matches_reference(link, (trial, k))

    def test_disconnected_zero_weights_and_replacement(self):
        rng = random.Random(4503)
        for trial in range(12):
            m = integer_graph(rng, rng.randrange(4, 12), 0.2)
            draw = weights_over([2, 3, 5, 7, 1], zero_share=0.25, magnitudes=[1, 1, 2**1030])
            for k, link in enumerate(grow_chain(rng, m, 6, replace_share=0.3, weight=draw)):
                assert_matches_reference(link, (trial, k))

    def test_weight_past_float_range_between_components(self):
        """Regression: ab weighs 2**1100 and cd 1, so the table holds a
        value no float can represent next to unreachable pairs."""
        m = PartialMetric(["a", "b", "c", "d"], {pair("a", "b"): Fraction(2**1100), pair("c", "d"): 1})
        validate(m)  # builds the table, so with_edge relaxes it
        with pytest.raises(DisconnectedError):
            doubleton_dist(m, pair("a", "b"), pair("a", "c"))
        joined = m.with_edge(pair("b", "c"), 2**1100)
        assert shortest_path(joined, "a", "d") == 2**1101 + 1
        for link in (m, joined):
            assert_matches_reference(link)


def assert_integer_table(m, label=""):
    """m's table holds ints (or ``None``) equal to the reference times ``m._scale``."""
    table = reference_table(m)
    verts = sorted(m.vertices)
    for u, row in zip(verts, m._table()):
        for v, got in zip(verts, row):
            ref = table[(u, v)]
            assert got is None if ref is None else type(got) is int and got == ref * m._scale, (label, u, v)


class TestIntegerTable:
    """The distance table holds ints times the common denominator L, or
    ``None`` between components, whether Floyd-Warshall built it or a
    ``with_edge`` copy derived it through a new edge, also one that moves L;
    ``shortest_path``, ``doubleton_dist`` and ``lower_envelope`` turn its
    values into Fractions."""

    def test_half_table_floyd_warshall_equals_brute_chains(self):
        """The half-table Floyd-Warshall against ``brute_hat``, on graphs that
        may be disconnected and may hold zero weights; ``None`` exactly between
        components, and both orientations of every pair written."""
        rng = random.Random(4702)
        for trial in range(40):
            m = random_graph(rng, rng.randrange(1, 9), rng.choice([0.15, 0.3, 0.5]), zero_share=rng.choice([0, 0.3]))
            table, index = m._table(), sorted(m.vertices)
            component = {}
            for v in index:  # label each component by its least vertex
                stack = [v]
                while stack:
                    u = stack.pop()
                    if u not in component:
                        component[u] = v
                        stack += [b if a == u else a for a, b in m.edges if u in (a, b)]
            for (i, u), (j, v) in itertools.product(enumerate(index), repeat=2):
                want = 0 if u == v else brute_hat(m, u, v) * m._scale if component[u] == component[v] else None
                assert table[i][j] == want, (trial, u, v)

    def test_floyd_warshall_builds_ints(self):
        rng = random.Random(4701)
        for trial in range(12):
            m = random_graph(rng, rng.randrange(2, 11), 0.3, zero_share=0.1)
            assert m._dist is None  # the first read builds it
            assert_integer_table(m, trial)

    def test_chains_with_new_denominators(self):
        rng = random.Random(4702)
        derived = 0
        for trial in range(10):
            m = integer_graph(rng, rng.randrange(4, 11), 0.3)
            draw = weights_over([2, 3, 7, 2**1100 + 1], magnitudes=[1, 1, 2**1100])
            chain = grow_chain(rng, m, 6, weight=draw)
            derived += sum(link._dist is not None for link in chain[1:])
            for k, link in enumerate(chain):
                assert_integer_table(link, (trial, k))
        assert derived >= 20  # most links relaxed a parent's table rather than building their own

    def test_rescaling_copy_leaves_parent_lists(self):
        """A copy whose weight moves L lifts the parent's table and rows into
        new lists; the parent keeps its own, unchanged and still correct."""
        rng = random.Random(4703)
        base = random_connected_graph(rng, 8, extra_edges=4)
        m = cache_rows(PartialMetric(base.vertices, {d: w.numerator for d, w in base.edges.items()}), "all")
        dist, rows = [list(r) for r in m._dist], [list(r) for r in m._rows]
        d = m.non_edges()[0]
        child = m.with_edge(d, shortest_path(m, d.a, d.b) - Fraction(1, 7))
        assert (m._scale, child._scale) == (1, 7)
        assert child._dist is not None and child._rows is not None
        assert [list(r) for r in m._dist] == dist and [list(r) for r in m._rows] == rows
        for link in (m, child):
            assert_integer_table(link)
            assert_matches_reference(link)

    def test_api_returns_fractions(self):
        rng = random.Random(4704)
        for trial in range(6):
            m = integer_graph(rng, rng.randrange(3, 8), 0.4)
            chain = grow_chain(rng, m, 4, weight=weights_over([1, 3, 7, 1]))
            for k, link in enumerate(chain):
                table = reference_table(link)
                doubletons = [pair(u, v) for u, v in combinations(sorted(link.vertices), 2)]
                for u, v in doubletons:
                    c = lower_envelope(link, u, v)
                    assert type(c) is Fraction and c == reference_envelope(link, table, u, v), (trial, k, u, v)
                    if table[(u, v)] is not None:
                        h = shortest_path(link, u, v)
                        assert type(h) is Fraction and h == table[(u, v)], (trial, k, u, v)
                for p, q in combinations(doubletons, 2):
                    sums = [table[(p.a, a)] + table[(p.b, b)] for a, b in ((q.a, q.b), (q.b, q.a))
                            if table[(p.a, a)] is not None and table[(p.b, b)] is not None]
                    if sums:
                        got = doubleton_dist(link, p, q)
                        assert type(got) is Fraction and got == min(sums), (trial, k, p, q)


def below_hat(ks, zero_share=0.0):
    """Weight draws h - (h - c)/k at the new pair, with h and c from the
    references (so the parent's caches stay as they are) and k taking ``ks``
    in turn; a pair between components gets a ``random_weight``."""
    queue = itertools.cycle(ks)

    def draw(rng, m, d):
        table = reference_table(m)
        h = table[(d.a, d.b)]
        if h is None:
            return random_weight(rng, zero_share)
        return h - (h - reference_envelope(m, table, d.a, d.b)) / next(queue)

    return draw


def exact_tie(rng, m, d):
    """A weight w = |hat(a, v) - hat(b, v)| for a random vertex v, so that
    hat(b, v) + w == hat(a, v) (or its mirror): v lies on the boundary of an
    affected set.  Between components, a ``random_weight``."""
    table = reference_table(m)
    ties = [
        abs(table[(d.a, v)] - table[(d.b, v)])
        for v in sorted(m.vertices)
        if table[(d.a, v)] is not None and table[(d.b, v)] is not None
    ]
    return rng.choice(ties) if ties else random_weight(rng)


class TestAffectedPairs:
    """``with_edge`` updates only the pairs that the new edge ij of weight w
    can shorten: hat(j, v) + w < hat(i, v) or its mirror.

    The weights here sit where that set is decided: just below hat(x, y), as
    ``full_extend`` and the game choose them, and exactly on the boundary.
    Every copy, parent and sibling is compared with the references after the
    whole chain is built.
    """

    @pytest.mark.parametrize("k", [2, 8, 1000])
    def test_just_below_hat_on_floppy_metrics(self, k):
        rng = random.Random(4600 + k)
        for trial in range(4):
            m, _ = taxicab_plus_one_subgraph(rng, rng.randrange(4, 10), Fraction(rng.randrange(3), 4))
            for n, link in enumerate(grow_chain(rng, m, 6, weight=below_hat([k]))):
                assert_matches_reference(link, (trial, n))

    def test_just_below_hat_with_zero_weights_and_joins(self):
        rng = random.Random(4610)
        for trial in range(6):
            m = random_graph(rng, rng.randrange(4, 12), 0.2, zero_share=0.25)
            draw = below_hat([2, 8, 1000], zero_share=0.25)
            for n, link in enumerate(grow_chain(rng, m, 6, weight=draw, prefer=cross_component_pairs)):
                assert_matches_reference(link, (trial, n))

    def test_exact_ties(self):
        rng = random.Random(4620)
        for trial in range(6):
            m = random_connected_graph(rng, rng.randrange(3, 11), extra_edges=rng.randrange(0, 8))
            for n, link in enumerate(grow_chain(rng, m, 6, weight=exact_tie)):
                assert_matches_reference(link, (trial, n))

    def test_exact_ties_with_zero_weights_and_joins(self):
        rng = random.Random(4630)
        for trial in range(6):
            m = random_graph(rng, rng.randrange(4, 12), 0.25, zero_share=0.3)
            for n, link in enumerate(grow_chain(rng, m, 6, weight=exact_tie, prefer=cross_component_pairs)):
                assert_matches_reference(link, (trial, n))

    def test_steps_of_full_extend(self):
        """Midpoint steps of the theorem's interval, h - (h - c)/6, one after
        another from one floppy metric, so every link derives from its parent's
        carried table and rows."""
        rng = random.Random(4640)
        for trial in range(3):
            m, _ = taxicab_plus_one_subgraph(rng, 9, Fraction(1, 4))
            lower_envelope(m, "p0", "p1")  # builds every row, so each copy carries them
            chain = [m]
            for d in m.non_edges()[:12]:
                chain.append(chain[-1].with_edge(d, below_hat([6])(rng, chain[-1], d)))
            assert all(link._rows is not None for link in chain)
            for n, link in enumerate(chain):
                assert_matches_reference(link, (trial, n))


def taxicab_plus_one_subgraph(rng, n, density):
    """Connected spanning subgraph of (taxicab + 1) / q on distinct grid points.

    The ambient metric has strict triangle inequalities, so the subgraph is a
    graph metric.  Returns the subgraph and the ambient values.
    """
    side = max(4, math.isqrt(4 * n) + 1)
    points = rng.sample([(i, j) for i in range(side) for j in range(side)], n)
    labels = [f"p{k}" for k in range(n)]
    scale = Fraction(1, rng.randrange(1, 7))
    ambient = {
        pair(labels[a], labels[b]): scale * (abs(points[a][0] - points[b][0]) + abs(points[a][1] - points[b][1]) + 1)
        for a, b in combinations(range(n), 2)
    }
    order = labels[:]
    rng.shuffle(order)
    chosen = {pair(order[k], order[rng.randrange(k)]) for k in range(1, n)}
    for d in sorted(ambient):
        if d not in chosen and rng.random() < density:
            chosen.add(d)
    return PartialMetric(labels, {d: ambient[d] for d in chosen}), ambient


class TestStrictMetricLemma:
    """A connected spanning subgraph of a metric with strict triangle
    inequalities is floppy: check <= ambient < hat at every non-edge."""

    @pytest.mark.parametrize("n", [5, 9, 14, 20, 25])
    def test_taxicab_plus_one_subgraphs(self, n):
        rng = random.Random(4300 + n)
        for density in (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
            m, ambient = taxicab_plus_one_subgraph(rng, n, density)
            rep = validate(m)
            assert rep.connected and rep.graph_metric
            assert is_floppy(m).floppy, (n, density)
            for d in m.non_edges():
                c = lower_envelope(m, d.a, d.b)
                assert c <= ambient[d] < shortest_path(m, d.a, d.b), (n, density, d)
            for d, w in m.edges.items():
                assert lower_envelope(m, d.a, d.b) == shortest_path(m, d.a, d.b) == w


def replay_with_edge(m, trace, order):
    """The trace's steps replayed as a ``with_edge`` chain from ``m``: each
    step's pair is the one its order picks on the link before it, and its
    interval is the theorem's on that link.  Returns the last link."""
    link = m
    for k, step in enumerate(trace.steps):
        missing = link.non_edges()
        hat_check = {d: (shortest_path(link, d.a, d.b), lower_envelope(link, d.a, d.b)) for d in missing}
        if order == "lex":
            assert step.pair == missing[0], k
        elif order == "maxgap":
            assert step.pair == min(missing, key=lambda d: (hat_check[d][1] - hat_check[d][0], d)), k
        else:
            assert step.pair in hat_check, k
        h, c = hat_check[step.pair]
        assert (step.interval.lo, step.interval.hi) == (c / 3 + 2 * h / 3, h), k
        link = link.with_edge(step.pair, step.value)
    return link


class TestRunningMetric:
    """``full_extend`` adjoins every step in place into one copy of its input.

    Its steps must be the ones a ``with_edge`` chain takes, its running
    metric must end with the chain's edges, table and rows, and the input
    must keep its edges, caches and report.
    """

    @staticmethod
    def floppy_bases():
        rng = random.Random(4800)
        for density in (Fraction(0), Fraction(1, 4), Fraction(1, 2)):
            for _ in range(2):
                yield taxicab_plus_one_subgraph(rng, rng.randrange(4, 10), density)[0]
        yield cantor_tree(3)

    @pytest.mark.parametrize("order", ["lex", "maxgap", "random:0"])
    def test_steps_equal_a_with_edge_chain(self, order):
        for n, m in enumerate(self.floppy_bases()):
            trace = full_extend(m, order=order)
            last = replay_with_edge(m, trace, order)
            result = trace.result
            assert result == last, n
            assert (result._scale, result._dist, result._rows) == (last._scale, last._dist, last._rows), n
            assert_matches_reference(result, n)

    @pytest.mark.parametrize("order", ["lex", "maxgap", "random:0"])
    def test_full_extend_leaves_its_input(self, order):
        for n, m in enumerate(self.floppy_bases()):
            is_floppy(m)  # the input holds its table, rows and report
            before = metric_state(m)
            full_extend(m, order=order)
            assert metric_state(m) == before, n

    def test_long_adjoin_chain_equals_cold_rebuilds(self):
        """220 ``_adjoin`` steps into one copy; after each, its scale, table and
        rows equal those a cold metric builds from the same edges.  The weights
        fall below hat, on it, above it and at zero, and new prime denominators
        arrive along the chain, so the table and rows are rescaled mid-chain."""
        rng = random.Random(4802)
        m = random_connected_graph(rng, 24, extra_edges=10)
        _envelope_rows(m)  # the copy carries the table and every row
        current, missing = m._copy(), m.non_edges()
        rng.shuffle(missing)
        primes = itertools.cycle([2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31])
        rescales = 0
        for k, d in enumerate(missing[:220]):
            h = shortest_path(current, d.a, d.b)
            q = next(primes) if k % 20 == 0 else rng.choice([1, 2, 3])
            w = rng.choice([h * Fraction(rng.randrange(1, 8), 8), h - Fraction(1, 1000 * q), h, h + 1, Fraction(0),
                            Fraction(rng.randrange(1, 40) * q + 1, q)])
            scale = current._scale
            current._adjoin(d, max(w, Fraction(0)))
            rescales += current._scale != scale
            cold = PartialMetric(current.vertices, current.edges)
            assert (current._scale, current._dist, current._rows) == (cold._scale, cold._table(), _envelope_rows(cold)), k
        assert rescales >= 5

    def test_minimal_floppy_extension_leaves_its_input(self, collinear_witness):
        m = collinear_witness
        assert not is_floppy(m).floppy  # check(a, c) = hat(a, c) = 2
        before = metric_state(m)
        out = minimal_floppy_extension(m)
        assert out.weight(pair("a", "c")) == 2 and not m.is_edge(pair("a", "c"))
        assert metric_state(m) == before
        assert_matches_reference(out)
