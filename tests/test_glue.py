import importlib
import random
from fractions import Fraction
from itertools import combinations

import pytest

from floppymetrics import (
    PartialMetric,
    Patchwork,
    floppy_certificate,
    gateway_slack,
    glue,
    glue_hat,
    lower_envelope,
    pair,
    shortest_path,
    validate,
    validate_patchwork,
)
from floppymetrics.errors import EmptyGatewaySetError, MalformedInputError, UnknownVertexError

from conftest import random_patchwork

glue_module = importlib.import_module("floppymetrics.glue")  # the package's ``glue`` name is the function


def three_part_patchwork():
    """Base {a,b}, one piece adding x beyond a, one piece adding y beyond b."""
    base = PartialMetric(["a", "b"], {pair("a", "b"): 2})
    piece_x = PartialMetric(["a", "x"], {pair("a", "x"): 1})
    piece_y = PartialMetric(["b", "y"], {pair("b", "y"): 1})
    return Patchwork(base, (piece_x, piece_y))


def times(pw, s):
    """The patchwork with every weight multiplied by ``s``."""
    def scale(m):
        return PartialMetric(m.vertices, {d: w * s for d, w in m.edges.items()})

    return Patchwork(scale(pw.base), [scale(p) for p in pw.pieces])


class TestValidatePatchwork:
    def test_valid_example(self):
        rep = validate_patchwork(three_part_patchwork())
        assert rep.ok
        assert rep.witnesses == []

    def test_gateway_disagreement_detected(self):
        base = PartialMetric(["a", "b"], {pair("a", "b"): 2})
        bad_piece = PartialMetric(
            ["a", "b", "x"],
            {pair("a", "b"): 5, pair("a", "x"): 1, pair("b", "x"): 4},
        )
        rep = validate_patchwork(Patchwork(base, (bad_piece,)))
        assert not rep.ok
        assert rep.gateway_agreement == [False]
        assert any("disagrees" in w for w in rep.witnesses)

    def test_piece_without_gateway_detected(self):
        base = PartialMetric(["a", "b"], {pair("a", "b"): 2})
        stray = PartialMetric(["x", "y"], {pair("x", "y"): 1})
        rep = validate_patchwork(Patchwork(base, (stray,)))
        assert not rep.ok
        assert rep.gateways_nonempty == [False]

    def test_pieces_meeting_outside_base_detected(self):
        base = PartialMetric(["a", "b"], {pair("a", "b"): 2})
        p1 = PartialMetric(["a", "x"], {pair("a", "x"): 1})
        p2 = PartialMetric(["b", "x"], {pair("b", "x"): 1})
        rep = validate_patchwork(Patchwork(base, (p1, p2)))
        assert not rep.ok
        assert not rep.intersections_in_base

    def test_non_full_base_detected(self):
        base = PartialMetric(["a", "b", "c"], {pair("a", "b"): 1, pair("b", "c"): 1})
        piece = PartialMetric(["a", "x"], {pair("a", "x"): 1})
        rep = validate_patchwork(Patchwork(base, (piece,)))
        assert not rep.base_full_pseudometric


class TestGlue:
    def test_union_of_members(self):
        glued = glue(three_part_patchwork())
        assert sorted(glued.vertices) == ["a", "b", "x", "y"]
        assert glued.weight(pair("a", "b")) == 2
        assert glued.weight(pair("a", "x")) == 1
        assert not glued.is_edge(pair("x", "y"))
        assert validate(glued).graph_pseudometric

    def test_invalid_patchwork_rejected(self):
        base = PartialMetric(["a", "b"], {pair("a", "b"): 2})
        stray = PartialMetric(["x", "y"], {pair("x", "y"): 1})
        with pytest.raises(MalformedInputError):
            glue(Patchwork(base, (stray,)))

    def test_union_is_built_once(self):
        pw = three_part_patchwork()
        assert glue(pw) is glue(pw)


class TestGlueHat:
    def test_three_part_example(self):
        pw = three_part_patchwork()
        assert glue_hat(pw, "x", "y") == 4
        assert glue_hat(pw, "a", "y") == 3
        assert glue_hat(pw, "x", "x") == 0
        assert glue_hat(pw, "a", "b") == 2  # same member: base distance

    def test_unknown_vertex(self):
        with pytest.raises(UnknownVertexError):
            glue_hat(three_part_patchwork(), "x", "zzz")

    def test_invalid_patchwork_rejected(self):
        """Unchecked, the closed form would give d(a,b) = 10, d(x,b) = 2 and d(a,x) = 1 here."""
        base = PartialMetric(["a", "b"], {pair("a", "b"): 10})
        piece = PartialMetric(["a", "b", "x"], {pair("a", "b"): 1, pair("a", "x"): 1})
        with pytest.raises(MalformedInputError, match="disagrees with the base"):
            glue_hat(Patchwork(base, (piece,)), "x", "b")

    def test_validates_once_per_patchwork(self, monkeypatch):
        calls = []
        validate_once = glue_module.validate_patchwork
        monkeypatch.setattr(glue_module, "validate_patchwork", lambda pw: calls.append(pw) or validate_once(pw))
        pw = three_part_patchwork()
        assert [glue_hat(pw, x, y) for x, y in (("x", "y"), ("a", "y"), ("x", "b"))] == [4, 3, 3]
        floppy_certificate(pw)
        assert calls == [pw]
        glue_hat(three_part_patchwork(), "x", "y")
        assert len(calls) == 2

    def test_matches_union_shortest_path_on_random_patchworks(self):
        rng = random.Random(777)
        for _ in range(30):
            pw = random_patchwork(rng)
            rep = validate_patchwork(pw)
            assert rep.ok, rep.witnesses
            glued = glue(pw)
            verts = sorted(glued.vertices)
            for x, y in combinations(verts, 2):
                assert glue_hat(pw, x, y) == shortest_path(glued, x, y), (x, y)


class TestGatewaySlack:
    def test_three_part_example(self):
        pw = three_part_patchwork()
        # x sits 1 beyond gateway a: slack of x against {a} is 2*d(a,x)
        assert gateway_slack(pw, "x", ["a"]) == 2
        # y against both base vertices: min over gateway pairs
        assert gateway_slack(pw, "y", ["a", "b"]) == min(
            2 * 3, 2 * 1, 3 + 1 - 2
        )

    def test_calls_share_one_union(self, monkeypatch):
        built = []

        def counted(*args):
            built.append(args)
            return PartialMetric(*args)

        pw = three_part_patchwork()
        monkeypatch.setattr(glue_module, "PartialMetric", counted)
        assert (gateway_slack(pw, "x", ["a"]), gateway_slack(pw, "y", ["a", "b"])) == (2, 2)
        assert len(built) == 1

    def test_empty_set_rejected(self):
        with pytest.raises(EmptyGatewaySetError):
            gateway_slack(three_part_patchwork(), "x", [])

    def test_zero_slack_when_collinear(self):
        base = PartialMetric(
            ["a", "b", "c"],
            {pair("a", "b"): 1, pair("b", "c"): 1, pair("a", "c"): 2},
        )
        piece = PartialMetric(["a", "c"], {pair("a", "c"): 2})
        pw = Patchwork(base, (piece,))
        assert gateway_slack(pw, "b", ["a", "c"]) == 0


class TestFloppyCertificate:
    def test_three_part_example_certifies(self):
        rep = floppy_certificate(three_part_patchwork())
        assert rep.certified
        assert rep.glued_floppy
        bounds = {(b.pair.a, b.pair.b): (b.delta, b.measured_gap) for b in rep.bounds}
        assert bounds == {
            ("b", "x"): (2, 2),
            ("x", "y"): (2, 4),
            ("a", "y"): (2, 2),
        }
        for delta, gap in bounds.values():
            assert 0 < delta <= gap

    def test_full_union_is_floppy_vacuously(self):
        """A piece inside the base adds no vertex: the union is full, with no gap to bound."""
        base = PartialMetric(["a", "b"], {pair("a", "b"): 2})
        rep = floppy_certificate(Patchwork(base, (base,)))
        assert (rep.certified, rep.glued_floppy, rep.bounds) == (True, True, [])

    def test_zero_slack_blocks_certification(self):
        base = PartialMetric(
            ["a", "b", "c"],
            {pair("a", "b"): 1, pair("b", "c"): 1, pair("a", "c"): 2},
        )
        piece = PartialMetric(["a", "c", "x"], {pair("a", "x"): 1, pair("c", "x"): 1, pair("a", "c"): 2})
        rep = floppy_certificate(Patchwork(base, (piece,)))
        assert not rep.certified
        assert rep.slack_failures

    def test_certified_random_patchworks_are_floppy_with_valid_bounds(self):
        """Each patchwork is also tried with its weights times 3/7, so gaps are read over a denominator."""
        rng = random.Random(4242)
        certified = 0
        for _ in range(40):
            drawn = random_patchwork(rng)
            for pw in (drawn, times(drawn, Fraction(3, 7))):
                rep = floppy_certificate(pw)
                if not rep.certified:
                    continue
                certified += 1
                assert rep.glued_floppy
                glued = glue(pw)
                assert rep.glued_floppy == all(
                    shortest_path(glued, d.a, d.b) > lower_envelope(glued, d.a, d.b) for d in glued.non_edges()
                )
                for b in rep.bounds:
                    gap = shortest_path(glued, b.pair.a, b.pair.b) - lower_envelope(
                        glued, b.pair.a, b.pair.b
                    )
                    assert b.measured_gap == gap
                    assert gap >= b.delta > 0, (b.pair, b.delta, gap)
        assert certified >= 3  # the sampler does produce certified instances
