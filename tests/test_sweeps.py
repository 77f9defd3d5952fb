"""Differential tests for the whole-metric sweeps and the maxgap heap.

``is_floppy``, ``minimal_floppy_extension``, the bounds of
``floppy_certificate`` and ``verify_step_properties`` read the distance table
and the envelope rows once, as ints over one common denominator, and
``full_extend``'s maxgap order keeps a heap of possibly stale gaps.  The
references here are per-pair loops over the public ``shortest_path``,
``lower_envelope`` and ``doubleton_dist``, kept as the oracle: the results
must agree exactly, down to the worst pair, the forced-pair order, every
statement's applicable count and failures, and the whole extension trace.
"""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from floppymetrics import (
    PartialMetric,
    admissible_interval,
    doubleton_dist,
    full_extend,
    is_floppy,
    lower_envelope,
    minimal_floppy_extension,
    pair,
    shortest_path,
    validate,
    verify_step_properties,
)
from floppymetrics.core import FloppyReport
from floppymetrics.errors import DisconnectedError
from floppymetrics.extension import ExtensionStep, StatementResult, StepPropertyReport
from floppymetrics.generators import cantor_tree, cycle_metric, star_metric


def reference_is_floppy(m):
    worst = worst_gap = None
    for d in m.non_edges():
        gap = shortest_path(m, d.a, d.b) - lower_envelope(m, d.a, d.b)
        if worst_gap is None or gap < worst_gap:
            worst, worst_gap = d, gap
    if worst is None:
        return FloppyReport(True, None, None)
    return FloppyReport(worst_gap > 0, worst, worst_gap)


def reference_minimal_floppy_extension(m):
    """``(result, iterations)``; forced pairs are adjoined in sorted order."""
    current, iteration = m, 0
    while True:
        forced = []
        for d in current.non_edges():
            h = shortest_path(current, d.a, d.b)
            if h > 0 and lower_envelope(current, d.a, d.b) == h:
                forced.append((d, h))
        if not forced:
            return current, iteration
        for d, h in forced:
            current = current.with_edge(d, h)
        iteration += 1


def reference_step_properties(m, xy, r):
    """The five statements, one pair at a time through the public API."""
    h_xy, c_xy = shortest_path(m, xy.a, xy.b), lower_envelope(m, xy.a, xy.b)
    strong_lower = c_xy / 3 + 2 * h_xy / 3 <= r
    extended = m.with_edge(xy, r)
    stmts = {k: StatementResult() for k in (1, 2, 3, 4, 5)}
    for u, v in combinations(sorted(m.vertices), 2):
        h_old, c_old = shortest_path(m, u, v), lower_envelope(m, u, v)
        dd = doubleton_dist(m, xy, pair(u, v))
        h_new, c_new = shortest_path(extended, u, v), lower_envelope(extended, u, v)
        stmts[1].applicable += 1
        if not (h_new <= h_old and c_new >= max(c_old, r - dd)):
            stmts[1].failures.append((u, v))
        if h_old != h_new:
            stmts[2].applicable += 1
            if not (h_old - (h_xy - r) <= h_new == r + dd):
                stmts[2].failures.append((u, v))
            stmts[3].applicable += 1
            if not (h_new - c_old >= r - c_xy):
                stmts[3].failures.append((u, v))
        if c_old != c_new != r - dd and c_new > h_xy - 2 * r:
            stmts[4].applicable += 1
            if not (c_new - c_old <= h_xy - r and h_old - c_new >= r - c_xy):
                stmts[4].failures.append((u, v))
        if strong_lower:
            stmts[5].applicable += 1
            if not (h_new - c_new >= min(h_old - c_old, h_xy - r, 2 * dd)):
                stmts[5].failures.append((u, v))
    return StepPropertyReport(xy, Fraction(r), stmts)


def eager_maxgap(m):
    """Midpoint full extension that re-scores every remaining pair at every step."""
    current, remaining, used, steps = m, m.non_edges(), set(), []
    while remaining:
        best = best_gap = None
        for d in remaining:
            gap = shortest_path(current, d.a, d.b) - lower_envelope(current, d.a, d.b)
            if best_gap is None or gap > best_gap:
                best, best_gap = d, gap
        remaining.remove(best)
        interval = admissible_interval(current, best)
        value = interval.midpoint
        while value in used:
            value = (value + interval.hi) / 2
        used.add(value)
        current = current.with_edge(best, value)
        steps.append(ExtensionStep(best, interval, value).to_json())
    return steps, current


def outcome(f, *args):
    """``to_json()`` of the report, or the DisconnectedError's message."""
    try:
        return f(*args).to_json()
    except DisconnectedError as exc:
        return ("DisconnectedError", str(exc))


def points_metric(rng, n, density, *, denominators=(1,), plus=0, zero_share=0.0):
    """Taxicab distance (+ ``plus``) between random grid points, on a random connected edge set.

    A restriction of a full (pseudo)metric, so a graph (pseudo)metric.  Small
    grids give many equal distances, hence tied gaps and forced pairs; a
    point copied from an earlier one gives zero weights.
    """
    coords = []
    for i in range(n):
        if coords and rng.random() < zero_share:
            coords.append(rng.choice(coords))
        else:
            den = rng.choice(denominators)
            coords.append((Fraction(rng.randrange(4 * den), den), Fraction(rng.randrange(4 * den), den)))
    labels = [f"p{i}" for i in range(n)]

    def dist(i, j):
        (a, b), (c, d) = coords[i], coords[j]
        return abs(a - c) + abs(b - d) + (plus if i != j else 0)

    order = list(range(n))
    rng.shuffle(order)
    edges = {}
    for k in range(1, n):
        i, j = order[k], order[rng.randrange(k)]
        edges[pair(labels[i], labels[j])] = dist(i, j)
    for i, j in combinations(range(n), 2):
        if rng.random() < density:
            edges[pair(labels[i], labels[j])] = dist(i, j)
    return PartialMetric(labels, edges)


def arbitrary_weights(rng, n, density):
    """Connected graph with arbitrary rational weights, zero included: not a graph metric in general."""
    labels = [f"w{i}" for i in range(n)]
    edges = {pair(labels[k], labels[rng.randrange(k)]): Fraction(rng.randrange(0, 30), rng.randrange(1, 6)) for k in range(1, n)}
    for u, v in combinations(labels, 2):
        if rng.random() < density:
            edges[pair(u, v)] = Fraction(rng.randrange(0, 30), rng.randrange(1, 6))
    return PartialMetric(labels, edges)


def sample_metrics(seed):
    rng = random.Random(seed)
    yield points_metric(rng, 7, 0.3)
    yield points_metric(rng, 8, 0.25, denominators=(1, 2, 3))
    yield points_metric(rng, 7, 0.3, zero_share=0.3)
    yield points_metric(rng, 8, 0.3, denominators=(1, 5, 7), plus=Fraction(1, 3))
    yield arbitrary_weights(rng, 7, 0.2)


def step_values(m, d):
    """r at check, at the theorem's lower bound, at the midpoint, just below hat, and at hat."""
    h, c = shortest_path(m, d.a, d.b), lower_envelope(m, d.a, d.b)
    if c > h:  # arbitrary weights: no admissible r
        return []
    lo = c / 3 + 2 * h / 3
    values = [c, lo, (lo + h) / 2, h - (h - c) / 7919, h]
    return sorted(set(values))


class TestFloppinessSweep:
    @pytest.mark.parametrize("seed", range(12))
    def test_is_floppy_matches_per_pair_loop(self, seed):
        """Metric samples through ``is_floppy``; pseudometric samples, which it rejects, through ``_gaps``,
        the sweep the glued-patchwork certificate reads."""
        for m in sample_metrics(seed):
            rep = validate(m)
            if not rep.graph_pseudometric:
                continue
            gaps = {d: shortest_path(m, d.a, d.b) - lower_envelope(m, d.a, d.b) for d in m.non_edges()}
            assert m._gaps() == gaps
            if rep.graph_metric:
                assert is_floppy(m) == reference_is_floppy(m)
            else:  # the certificate's reading of a piece's floppiness
                assert all(g > 0 for g in m._gaps().values()) == reference_is_floppy(m).floppy

    def test_tied_gaps_report_the_first_pair(self):
        for m in (cycle_metric(6), cycle_metric(7, Fraction(2, 3)), star_metric(5), cantor_tree(3)):
            got = is_floppy(m)
            assert got == reference_is_floppy(m)
            tied = [d for d in m.non_edges() if shortest_path(m, d.a, d.b) - lower_envelope(m, d.a, d.b) == got.gap]
            assert len(tied) > 1 and got.worst_pair == tied[0]

    @pytest.mark.parametrize("seed", range(12))
    def test_minimal_floppy_extension_matches_per_pair_loop(self, seed):
        forced_seen = 0
        for m in sample_metrics(seed):
            if not validate(m).graph_metric:
                continue
            got = minimal_floppy_extension(m)
            ref, ref_iterations = reference_minimal_floppy_extension(m)
            assert int(got is not m) == ref_iterations  # one round, or none when nothing is forced
            assert list(got.edges.items()) == list(ref.edges.items())  # same pairs, values and order
            forced_seen += len(got.edges) - len(m.edges)
        if seed == 0:
            assert forced_seen > 0  # the grid metrics do have forced pairs

    @pytest.mark.parametrize("block", range(4))
    def test_one_round_moves_no_hat_or_check(self, block):
        """Adjoining every forced pair at its hat leaves hat and check at every other non-edge as they were."""
        batches = []
        for seed in range(20 * block, 20 * block + 20):
            for m in sample_metrics(seed):
                if not validate(m).graph_metric:
                    continue
                before = {d: (shortest_path(m, d.a, d.b), lower_envelope(m, d.a, d.b)) for d in m.non_edges()}
                forced = [(d, h) for d, (h, c) in before.items() if c == h]
                extended = m
                for d, h in forced:
                    extended = extended.with_edge(d, h)
                for d in extended.non_edges():
                    h, c = shortest_path(extended, d.a, d.b), lower_envelope(extended, d.a, d.b)
                    assert (h, c) == before[d]
                    assert c < h
                got = minimal_floppy_extension(m)
                assert got == extended
                assert (got is not m) == bool(forced)
                batches.append(len(forced))
        assert max(batches) > 1  # some metric adjoins several forced pairs in its one round


class TestStepPropertySweep:
    @pytest.mark.parametrize("seed", range(10))
    def test_matches_per_pair_loop(self, seed):
        rng = random.Random(1000 + seed)
        for m in sample_metrics(seed):
            non_edges = m.non_edges()
            for d in rng.sample(non_edges, min(3, len(non_edges))):
                for r in step_values(m, d):
                    assert outcome(verify_step_properties, m, d, r) == outcome(reference_step_properties, m, d, r), (d, r)

    def test_new_denominators_rescale_the_old_metric(self):
        """r with a denominator the metric lacks moves the extended metric to a larger scale."""
        m = points_metric(random.Random(5), 8, 0.3, denominators=(1, 2))
        for d in m.non_edges()[:4]:
            h, c = shortest_path(m, d.a, d.b), lower_envelope(m, d.a, d.b)
            assert c < h
            for q in (3, 11, 2**61 - 1):
                r = (c + h) / 2 + Fraction(1, q * 10**6)
                assert r < h and m.with_edge(d, r)._scale != m._scale
                assert verify_step_properties(m, d, r).to_json() == reference_step_properties(m, d, r).to_json()

    @pytest.mark.parametrize(
        "labels",
        [("a", "b", "x", "y", "p", "q"), ("p", "q", "x", "y", "a", "b"), ("a", "p", "x", "y", "b", "q")],
    )
    def test_disconnected_metrics_raise_the_same_error(self, labels):
        """The first pair in sorted order without a distance, or without a doubleton distance to xy, raises."""
        a, b, x, y, p, q = labels
        m = PartialMetric(labels, {pair(a, b): 10, pair(a, x): 1, pair(b, y): 1, pair(p, q): 1})
        for r in (Fraction(34, 3), 12):
            got = outcome(verify_step_properties, m, pair(x, y), r)
            assert got == outcome(reference_step_properties, m, pair(x, y), r)
            assert got[0] == "DisconnectedError"


class TestLazyMaxgap:
    @pytest.mark.parametrize(
        "m",
        [cantor_tree(2), cantor_tree(3), cycle_metric(5), cycle_metric(6), cycle_metric(8, Fraction(3, 2)), star_metric(5)],
        ids=["cantor2", "cantor3", "cycle5", "cycle6", "cycle8", "star5"],
    )
    def test_ties_match_eager_trace(self, m):
        steps, result = eager_maxgap(m)
        trace = full_extend(m, order="maxgap")
        assert [s.to_json() for s in trace.steps] == steps
        assert trace.result == result

    @pytest.mark.parametrize("seed", range(6))
    def test_strict_metrics_match_eager_trace(self, seed):
        m = points_metric(random.Random(seed), 9, 0.2, denominators=(1, 3), plus=1)
        assert is_floppy(m).floppy
        steps, result = eager_maxgap(m)
        trace = full_extend(m, order="maxgap")
        assert [s.to_json() for s in trace.steps] == steps
        assert trace.result == result
