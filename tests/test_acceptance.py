"""Acceptance suite: exact verification of every advertised guarantee at desk
scale.  All arithmetic is exact rational with zero tolerance; each criterion
prints a one-line summary on success."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from floppymetrics import (
    PLAYER_I_WINS,
    PLAYER_II_WINS,
    ChoiceSet,
    PartialMetric,
    adversary_player_two,
    doubleton_dist,
    full_extend,
    glue,
    glue_hat,
    is_floppy,
    lower_envelope,
    pair,
    play,
    replay_sabotage,
    sabotage_witness,
    shortest_path,
    validate,
    verify_step_properties,
    winning_player_one,
)
from floppymetrics.extension import PROPOSITION, THEOREM, admissible_interval, one_step_extend
from floppymetrics.game import ProbeSecondPlayer, RandomSecondPlayer
from floppymetrics.generators import cantor_tree, h_graph, random_floppy
from floppymetrics.glue import floppy_certificate, validate_patchwork

from conftest import brute_hat, random_connected_graph, random_patchwork

CORPUS_SIZE = 500


@pytest.fixture(scope="module")
def corpus():
    """Seeded random floppy metrics: n in 4..10, density 3/10..9/10."""
    metrics = []
    for seed in range(CORPUS_SIZE):
        n = 4 + seed % 7
        density = Fraction(3 + (seed // 7) % 7, 10)
        metrics.append((seed, random_floppy(n, density, seed)))
    return metrics


def test_criterion_1_one_step_closure(corpus):
    """Every admissible one-step extension of every corpus non-edge stays floppy."""
    checked = 0
    for seed, m in corpus:
        for d in m.non_edges():
            iv = admissible_interval(m, d)
            lo, hi = iv.lo, iv.hi
            for r in (lo, (lo + hi) / 2, hi - (hi - lo) / 8):
                extended = one_step_extend(m, d, r, THEOREM)
                rep = is_floppy(extended)
                assert rep.floppy, (seed, d, r, rep.worst_pair, rep.gap)
                checked += 1
    assert len(corpus) >= 500
    print(f"[criterion 1] PASS: {checked} one-step extensions over {len(corpus)} metrics, all floppy")


def test_criterion_2_step_statements(corpus):
    """The five step-extension statements hold verbatim over all vertex pairs.

    Runtime budget: two seed-chosen non-edges per metric; r sampled across the
    closed proposition range and the half-open admissible range.
    """
    checked = 0
    for seed, m in corpus:
        non_edges = sorted(m.non_edges())
        picks = {seed % len(non_edges), (seed // 3) % len(non_edges)}
        for idx in picks:
            d = non_edges[idx]
            h = shortest_path(m, d.a, d.b)
            c = lower_envelope(m, d.a, d.b)
            lo = c / 3 + 2 * h / 3
            samples = {c, c + (h - c) / 3, (c + h) / 2, h, lo, (lo + h) / 2, h - (h - lo) / 8}
            for r in samples:
                rep = verify_step_properties(m, d, r)
                assert rep.ok, (seed, d, r, rep.to_json())
                checked += 1
    print(f"[criterion 2] PASS: {checked} step-property evaluations, zero statement failures")


def test_criterion_3_doubleton_lemma(corpus):
    """d-double-dot is a pseudometric and bounds distance differences (n <= 7)."""
    graphs = [(s, m) for s, m in corpus if len(m.vertices) <= 7][:60]
    assert len(graphs) == 60
    triples = 0
    for seed, m in graphs:
        verts = sorted(m.vertices)
        doubles = [pair(u, v) for u, v in combinations(verts, 2)]
        hat = {d: shortest_path(m, d.a, d.b) for d in doubles}
        dd = {}
        for p in doubles:
            for q in doubles:
                dd[(p, q)] = doubleton_dist(m, p, q)
        for p in doubles:
            assert dd[(p, p)] == 0
            for q in doubles:
                assert dd[(p, q)] == dd[(q, p)]
                assert hat[p] <= hat[q] + dd[(p, q)], (seed, p, q)
                for s in doubles:
                    assert dd[(p, s)] <= dd[(p, q)] + dd[(q, s)], (seed, p, q, s)
                    triples += 1
    print(f"[criterion 3] PASS: {triples} doubleton triangle inequalities on {len(graphs)} graphs")


def test_criterion_4_oracle_equivalence():
    """Shortest-path distances match exhaustive simple-chain enumeration."""
    rng = random.Random(1234)
    instances = 0
    for _ in range(220):
        n = rng.randrange(2, 6)
        m = random_connected_graph(rng, n, extra_edges=rng.randrange(0, 4))
        for u, v in combinations(sorted(m.vertices), 2):
            assert shortest_path(m, u, v) == brute_hat(m, u, v), (m, u, v)
        instances += 1
    assert instances >= 200
    print(f"[criterion 4] PASS: oracle equivalence on {instances} graphs")


def test_criterion_5_winning_strategy():
    """The first-player strategy wins every long-enough game on every base."""
    bases = [("h", h_graph()), ("cantor2", cantor_tree(2))]
    for k in range(20):
        bases.append((f"random{k}", random_floppy(4 + k % 2, Fraction(1, 2), 9000 + k)))
    games_per_base = 1000
    total = 0
    for name, base in bases:
        missing = len(base.non_edges())
        p1 = winning_player_one(base)
        opponents = []
        for i in range(10):
            opponents.append((ProbeSecondPlayer("low"), missing + i % 3))
            opponents.append((ProbeSecondPlayer("high"), missing + i % 3))
            opponents.append((ProbeSecondPlayer("mid"), missing + i % 3))
            opponents.append((adversary_player_two(), missing + i % 3))
        seed0 = 100000 * (total + 1)
        while len(opponents) < games_per_base:
            opponents.append((RandomSecondPlayer(seed0 + len(opponents)), missing))
        for p2, length in opponents:
            t = play(base, length, p1, p2)
            assert t.verdict == PLAYER_I_WINS, (name, type(p2).__name__, t.reason.to_json())
            total += 1
    print(f"[criterion 5] PASS: player one won {total} games across {len(bases)} bases")


def test_criterion_6_sabotage():
    """A wide-enough choice set on one pair lets player two wreck every game."""
    wins = 0
    for seed in range(100):
        rng = random.Random(seed)
        w = [Fraction(rng.randrange(1, 9)) for _ in range(3)]
        base = PartialMetric(
            ["a", "b", "c", "d"],
            {pair("a", "b"): w[0], pair("b", "c"): w[1], pair("c", "d"): w[2]},
        )
        sep = doubleton_dist(base, pair("a", "c"), pair("b", "d"))
        spread = 3 * sep + Fraction(rng.randrange(1, 20))
        sets = {}
        for d in base.non_edges():
            if d == pair("a", "c"):
                sets[d] = ChoiceSet.of_points(Fraction(1, 2), Fraction(1, 2) + spread)
            else:
                sets[d] = ChoiceSet.of_points(shortest_path(base, d.a, d.b))
        assert sets[pair("a", "c")].diameter() > 3 * sep
        plan = sabotage_witness(base, sets)
        assert plan is not None, seed
        assert abs(plan.r_p - plan.r_q) > plan.separation
        t = replay_sabotage(base, sets, plan)
        assert t.verdict == PLAYER_II_WINS, (seed, t.reason.to_json())
        assert t.reason.kind == "POLYGONAL_VIOLATION", (seed, t.reason.to_json())
        assert t.reason.detail["chain"], seed
        wins += 1
    print(f"[criterion 6] PASS: sabotage plan found and executed on {wins}/100 variants")


def test_criterion_7_glue():
    """Closed-form glued distances match the union metric; certificates are sound."""
    rng = random.Random(20260823)
    patchworks = 0
    certified = 0
    pairs_checked = 0
    while patchworks < 200:
        pw = random_patchwork(rng)
        rep = validate_patchwork(pw)
        assert rep.ok, rep.witnesses
        glued = glue(pw)
        for x, y in combinations(sorted(glued.vertices), 2):
            assert glue_hat(pw, x, y) == shortest_path(glued, x, y), (patchworks, x, y)
            pairs_checked += 1
        cert = floppy_certificate(pw)
        if cert.certified:
            certified += 1
            assert cert.glued_floppy, patchworks
            for b in cert.bounds:
                assert b.delta > 0
                assert b.measured_gap >= b.delta, (patchworks, b.pair, b.delta, b.measured_gap)
        patchworks += 1
    assert certified > 0
    print(
        f"[criterion 7] PASS: glue_hat exact on {pairs_checked} pairs over {patchworks} patchworks;"
        f" {certified} certified floppy with valid bounds"
    )


def test_criterion_8_cantor():
    """Envelope closed form and floppiness on truncated Cantor trees, depths 1-4."""
    pairs_checked = 0
    for depth in range(1, 5):
        m = cantor_tree(depth)
        assert is_floppy(m).floppy, depth
        for s, t in combinations(sorted(m.vertices), 2):
            expected = abs(Fraction(1, 2 ** len(s)) - Fraction(1, 2 ** len(t)))
            assert lower_envelope(m, s, t) == expected, (depth, s, t)
            pairs_checked += 1
    print(f"[criterion 8] PASS: envelope closed form on {pairs_checked} pairs, depths 1-4")


def test_criterion_9_injective_extension(corpus):
    """Dense per-pair choice sets always yield pairwise-distinct chosen values."""
    runs = 0
    for seed, m in corpus:
        sets = {d: ChoiceSet.open_interval(0) for d in m.non_edges()}
        trace = full_extend(m, order="lex", choice=sets)
        values = [s.value for s in trace.steps]
        assert len(values) == len(set(values)), seed
        rep = validate(trace.result)
        assert rep.full and rep.graph_metric, seed
        runs += 1
    print(f"[criterion 9] PASS: distinct extension values on all {runs} corpus runs")
