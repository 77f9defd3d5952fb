"""Shared fixtures and independent oracles.

The oracles deliberately avoid the library's shortest-path machinery: chain
distances are recomputed by exhaustive enumeration of simple chains, and the
envelope by a direct per-edge scan over oracle distances.
"""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from floppymetrics import PartialMetric, doubleton_dist, pair


def brute_hat(m, x, y):
    """Minimum total weight over all simple chains from x to y (DFS)."""
    if x == y:
        return Fraction(0)
    adj = {v: [] for v in m.vertices}
    for d, w in m.edges.items():
        adj[d.a].append((d.b, w))
        adj[d.b].append((d.a, w))
    best = [None]

    def walk(v, seen, total):
        if best[0] is not None and total >= best[0]:
            return
        if v == y:
            best[0] = total
            return
        for u, w in adj[v]:
            if u not in seen:
                walk(u, seen | {u}, total + w)

    walk(x, {x}, Fraction(0))
    assert best[0] is not None, "oracle called on a disconnected pair"
    return best[0]


def metric_state(m):
    """Deep copies of a metric's edge dict, table, envelope rows, and its ``is_floppy`` report.

    Code that adjoins into its own copy of ``m`` must leave all four as they were.
    """
    lists = [None if rows is None else [list(r) for r in rows] for rows in (m._dist, m._rows)]
    return dict(m._edges), *lists, m._floppy


def brute_ddot(m, p, q):
    straight = brute_hat(m, p.a, q.a) + brute_hat(m, p.b, q.b)
    crossed = brute_hat(m, p.a, q.b) + brute_hat(m, p.b, q.a)
    return min(straight, crossed)


def brute_check(m, x, y):
    best = Fraction(0)
    for d, w in m.edges.items():
        val = w - brute_ddot(m, d, pair(x, y))
        best = max(best, val)
    return best


def random_connected_graph(rng, n, extra_edges=2):
    """Arbitrary positive rational weights on a random connected graph.

    Not a metric in general; used only for shortest-path oracle equivalence.
    """
    verts = [f"v{i}" for i in range(n)]
    edges = {}
    order = verts[:]
    rng.shuffle(order)
    for i in range(1, n):
        edges[pair(order[i], order[rng.randrange(i)])] = Fraction(rng.randrange(1, 40), rng.randrange(1, 8))
    candidates = [pair(u, v) for u, v in combinations(verts, 2) if pair(u, v) not in edges]
    rng.shuffle(candidates)
    for d in candidates[:extra_edges]:
        edges[d] = Fraction(rng.randrange(1, 40), rng.randrange(1, 8))
    return PartialMetric(verts, edges)


def random_patchwork(rng, max_pieces=4):
    """Random valid patchwork: every member is a full taxicab metric on grid
    points, so gateway agreement and pairwise-intersection hypotheses hold by
    construction."""
    from floppymetrics.glue import Patchwork

    span = 12
    coords = {}

    def place(label):
        coords[label] = (rng.randrange(span), rng.randrange(span))

    n_base = rng.randrange(3, 6)
    base_labels = [f"b{i}" for i in range(n_base)]
    for v in base_labels:
        place(v)

    def full_metric(labels):
        edges = {}
        for u, v in combinations(labels, 2):
            pu, pv = coords[u], coords[v]
            edges[pair(u, v)] = Fraction(abs(pu[0] - pv[0]) + abs(pu[1] - pv[1]))
        return PartialMetric(labels, edges)

    pieces = []
    for i in range(rng.randrange(1, max_pieces + 1)):
        gates = rng.sample(base_labels, rng.randrange(1, n_base + 1))
        outside = [f"p{i}v{k}" for k in range(rng.randrange(1, 4))]
        for v in outside:
            place(v)
        pieces.append(full_metric(gates + outside))
    return Patchwork(full_metric(base_labels), pieces)


class ReferenceAdversary:
    """Player II's adversary as first written, the oracle for ``AdversarySecondPlayer``: one ``doubleton_dist``
    and one ``element_far_from`` against every earlier move in order, repeats included."""

    def respond(self, base, history, pair, offered):
        for mv in history:
            if mv.pair == pair:
                continue
            far = offered.element_far_from(mv.answer, doubleton_dist(base, pair, mv.pair))
            if far is not None:
                return far
        return offered.least_element()


@pytest.fixture
def h_graph():
    return PartialMetric(
        ["a", "b", "x", "y"],
        {pair("a", "b"): 10, pair("a", "x"): 1, pair("b", "y"): 1},
    )


@pytest.fixture
def path_abc():
    return PartialMetric(["a", "b", "c"], {pair("a", "b"): 1, pair("b", "c"): 1})


@pytest.fixture
def collinear_witness():
    """Graph metric with a forced non-edge: check(a,c) = hat(a,c) = 2."""
    return PartialMetric(
        ["a", "b", "c", "d"],
        {
            pair("a", "b"): 1,
            pair("b", "c"): 1,
            pair("c", "d"): 1,
            pair("a", "d"): 3,
            pair("b", "d"): 2,
        },
    )


@pytest.fixture
def star_cuvw():
    return PartialMetric(
        ["c", "u", "v", "w"],
        {pair("c", "u"): 1, pair("c", "v"): 1, pair("c", "w"): 5},
    )


@pytest.fixture
def path_abcd():
    return PartialMetric(
        ["a", "b", "c", "d"],
        {pair("a", "b"): 1, pair("b", "c"): 1, pair("c", "d"): 1},
    )


@pytest.fixture
def rng():
    return random.Random(20260823)
