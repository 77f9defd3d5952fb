from fractions import Fraction
from itertools import combinations

import pytest

from floppymetrics import is_floppy, lower_envelope, pair, shortest_path, validate
from floppymetrics.errors import DepthZeroError, GenerationExhaustedError, MalformedInputError
from floppymetrics.generators import (
    cantor_tree,
    complete_metric,
    cycle_metric,
    h_graph,
    path_metric,
    random_floppy,
    star_metric,
)

from conftest import brute_check, brute_hat


class TestCantorTree:
    def test_sizes(self):
        # 2^(d+1) - 1 vertices; every comparable pair is an edge
        for depth in (1, 2, 3):
            m = cantor_tree(depth)
            assert len(m.vertices) == 2 ** (depth + 1) - 1

    def test_depth_one_values(self):
        m = cantor_tree(1)
        assert m.weight(pair("", "0")) == Fraction(1, 2)
        assert m.weight(pair("", "1")) == Fraction(1, 2)
        assert not m.is_edge(pair("0", "1"))
        assert shortest_path(m, "0", "1") == 1
        assert lower_envelope(m, "0", "1") == 0

    def test_hat_closed_form_against_oracle(self):
        # 2^(1-|meet|) - 2^-|s| - 2^-|t| for incomparable s, t
        m = cantor_tree(3)
        verts = sorted(m.vertices)
        for s, t in combinations(verts, 2):
            if s.startswith(t) or t.startswith(s):
                continue
            meet = 0
            for a, b in zip(s, t):
                if a != b:
                    break
                meet += 1
            expected = (
                Fraction(2, 2**meet) - Fraction(1, 2 ** len(s)) - Fraction(1, 2 ** len(t))
            )
            assert shortest_path(m, s, t) == expected, (s, t)

    def test_depth_two_spot_check_with_oracle(self):
        m = cantor_tree(2)
        assert shortest_path(m, "00", "01") == brute_hat(m, "00", "01") == Fraction(1, 2)
        assert shortest_path(m, "00", "11") == brute_hat(m, "00", "11") == Fraction(3, 2)
        assert lower_envelope(m, "00", "11") == brute_check(m, "00", "11") == 0

    def test_is_metric_and_floppy(self):
        for depth in (1, 2, 3):
            m = cantor_tree(depth)
            rep = validate(m)
            assert rep.graph_metric and rep.connected
            assert is_floppy(m).floppy

    def test_rejects_depth_zero(self):
        with pytest.raises(DepthZeroError):
            cantor_tree(0)


class TestFamilies:
    def test_path(self):
        m = path_metric(4, Fraction(1, 2))
        rep = validate(m)
        assert rep.graph_metric and not rep.full
        assert shortest_path(m, "v0", "v3") == Fraction(3, 2)
        assert is_floppy(m).floppy

    def test_cycle(self):
        m = cycle_metric(5)
        assert validate(m).graph_metric
        assert shortest_path(m, "v0", "v2") == 2
        assert shortest_path(m, "v0", "v3") == 2  # the short way round
        assert is_floppy(m).floppy

    def test_even_cycle_antipodal_gap(self):
        # the antipodal pair has envelope 0: both detours are equally long
        m = cycle_metric(4)
        assert lower_envelope(m, "v0", "v2") == 0
        assert shortest_path(m, "v0", "v2") == 2
        assert is_floppy(m).floppy

    def test_star(self):
        m = star_metric(3, 2)
        assert validate(m).graph_metric
        assert shortest_path(m, "u0", "u1") == 4
        assert lower_envelope(m, "u0", "u1") == 0
        assert is_floppy(m).floppy

    def test_complete(self):
        m = complete_metric(4)
        rep = validate(m)
        assert rep.full and rep.graph_metric
        assert is_floppy(m).floppy  # vacuously: no non-edges

    def test_h_graph_values(self):
        m = h_graph()
        assert shortest_path(m, "x", "y") == 12
        assert lower_envelope(m, "x", "y") == 8
        assert is_floppy(m).floppy

    def test_parameter_validation(self):
        with pytest.raises(MalformedInputError):
            path_metric(0)
        with pytest.raises(MalformedInputError):
            cycle_metric(2)
        with pytest.raises(MalformedInputError):
            star_metric(0)


UNIFORM_FAMILIES = {"path": (path_metric, 1), "cycle": (cycle_metric, 3), "star": (star_metric, 1),
                    "complete": (complete_metric, 1)}
COUNTED = {**UNIFORM_FAMILIES, "cantor": (cantor_tree, 1),
           "random": (lambda n: random_floppy(n, Fraction(1, 2), 0), 2)}


class TestArgumentChecks:
    """One count check (an int, not a bool, at least the family's least) and one positive-scale check."""

    @pytest.mark.parametrize("name", COUNTED)
    @pytest.mark.parametrize("n", [2.5, True, False, "3", None, Fraction(3)], ids=repr)
    def test_count_must_be_an_int(self, name, n):
        with pytest.raises(MalformedInputError, match="must be an int"):
            COUNTED[name][0](n)

    @pytest.mark.parametrize("name", COUNTED)
    def test_least_count(self, name):
        make, least = COUNTED[name]
        assert len(make(least).vertices) >= least
        with pytest.raises(DepthZeroError if name == "cantor" else MalformedInputError, match=f"at least {least}"):
            make(least - 1)

    @pytest.mark.parametrize("name", UNIFORM_FAMILIES)
    @pytest.mark.parametrize("scale", [0, "0", -1, Fraction(-1, 2)], ids=repr)
    def test_scale_must_be_positive(self, name, scale):
        with pytest.raises(MalformedInputError, match="scale must be positive"):
            UNIFORM_FAMILIES[name][0](4, scale)
        with pytest.raises(MalformedInputError, match="scale must be positive"):
            random_floppy(4, Fraction(1, 2), 0, scale=scale)

    @pytest.mark.parametrize("name", UNIFORM_FAMILIES)
    def test_every_edge_at_scale(self, name):
        m = UNIFORM_FAMILIES[name][0](5, "3/7")
        assert m.edges and set(m.edges.values()) == {Fraction(3, 7)}


class TestRandomFloppy:
    def test_deterministic_in_seed(self):
        a = random_floppy(6, Fraction(1, 2), 9)
        b = random_floppy(6, Fraction(1, 2), 9)
        assert a == b

    def test_different_seeds_differ(self):
        assert random_floppy(6, Fraction(1, 2), 1) != random_floppy(6, Fraction(1, 2), 2)

    def test_always_floppy_metric(self):
        for seed in range(12):
            n = 4 + seed % 5
            m = random_floppy(n, Fraction(1, 2), seed)
            rep = validate(m)
            assert rep.connected and rep.graph_metric
            assert is_floppy(m).floppy
            assert len(m.vertices) == n

    def test_density_is_roughly_respected(self):
        n = 8
        total = n * (n - 1) // 2
        sparse = random_floppy(n, Fraction(3, 10), 5)
        dense = random_floppy(n, Fraction(9, 10), 5)
        assert len(sparse.edges) <= len(dense.edges)
        assert len(sparse.edges) >= n - 1
        assert len(dense.edges) <= total

    def test_scale_applies(self):
        m = random_floppy(5, Fraction(1, 2), 3, scale=Fraction(1, 4))
        assert all(w.denominator in (1, 2, 4) for w in m.edges.values())

    def test_gives_up_after_its_attempts(self):
        """At n = 20 and density 1/2, seed 1 draws no floppy instance in its 64 attempts."""
        with pytest.raises(GenerationExhaustedError, match=r"^no floppy instance after 64 attempts \(seed 1\)$"):
            random_floppy(20, "1/2", 1)

    def test_parameter_validation(self):
        with pytest.raises(MalformedInputError):
            random_floppy(1, Fraction(1, 2), 0)
        with pytest.raises(MalformedInputError):
            random_floppy(5, 0, 0)
        with pytest.raises(MalformedInputError):
            random_floppy(5, 2, 0)
        with pytest.raises(MalformedInputError):
            random_floppy(5, Fraction(1, 2), 0, scale=0)
