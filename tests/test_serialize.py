import json
import random
import re
from fractions import Fraction

import pytest

from floppymetrics import (
    PartialMetric,
    Patchwork,
    dump_metric,
    floppy_certificate,
    full_extend,
    is_floppy,
    load_metric,
    metric_from_doc,
    metric_to_doc,
    pair,
    patchwork_from_doc,
    patchwork_to_doc,
    play,
    validate,
    validate_patchwork,
    verify_step_properties,
    winning_player_one,
)
from floppymetrics.core import _jsonable, _Record
from floppymetrics.errors import MalformedInputError, NotFloppyError, ROutOfRangeError
from floppymetrics.extension import StatementResult, StepPropertyReport
from floppymetrics.game import ChoiceSet, ProbeSecondPlayer, RandomSecondPlayer, ScriptedFirstPlayer
from floppymetrics.generators import cantor_tree, random_floppy
from floppymetrics.serialize import _dumps, _text, choice_map_from_doc, choice_set_from_doc, metric_to_dot

# non-ASCII (also past the BMP), quotes, backslashes, control characters and plain text
CHARACTERS = ["a", "Z", "0", " ", ",", '"', "\\", "/", "\n", "\t", "\x00", "\x1f", "\x7f", "\u00e9", "\u2028",
              "\ufeff", "\U0001f600"]


def random_text(rng):
    return "".join(rng.choice(CHARACTERS) for _ in range(rng.randrange(6)))


def random_document(rng, depth=0):
    """Nested objects and lists, also empty ones, of awkward strings, bools, ``None`` and ints up to 1,000 digits."""
    roll = rng.random()
    if depth < 4 and roll < 0.25:
        return {random_text(rng): random_document(rng, depth + 1) for _ in range(rng.randrange(4))}
    if depth < 4 and roll < 0.5:
        items = [random_document(rng, depth + 1) for _ in range(rng.randrange(4))]
        return tuple(items) if roll < 0.3 else items
    return rng.choice([random_text(rng), True, False, None, rng.randrange(-99, 99), rng.randrange(-10**1000, 10**1000)])


class TestMetricDocs:
    def test_round_trip(self, h_graph):
        assert metric_from_doc(metric_to_doc(h_graph)) == h_graph

    def test_canonical_bytes(self):
        # serialization is order-independent and byte-stable
        a = PartialMetric(["b", "a"], {pair("b", "a"): Fraction(3, 2)})
        b = PartialMetric(["a", "b"], {pair("a", "b"): "3/2"})
        assert json.dumps(metric_to_doc(a)) == json.dumps(metric_to_doc(b))
        assert metric_to_doc(a)["edges"][0]["w"] == "3/2"

    def test_random_corpus_round_trips(self):
        for seed in range(10):
            m = random_floppy(6, Fraction(1, 2), seed, scale=Fraction(1, 3))
            assert metric_from_doc(json.loads(json.dumps(metric_to_doc(m)))) == m

    def test_file_round_trip(self, h_graph, tmp_path):
        path = tmp_path / "m.json"
        dump_metric(h_graph, path)
        assert load_metric(path) == h_graph

    @pytest.mark.parametrize(
        "doc",
        [
            {},
            {"vertices": ["a"]},
            {"vertices": "ab", "edges": []},
            {"vertices": ["a", "a"], "edges": []},
            {"vertices": ["a", "b"], "edges": [{"u": "a", "w": "1"}]},
            {"vertices": ["a", "b"], "edges": [{"u": "a", "v": "b", "w": "one"}]},
            {"vertices": ["a", "b"], "edges": [{"u": "a", "v": "b", "w": "-1"}]},
            {"vertices": ["a", "b"], "edges": [{"u": "a", "v": "b", "w": True}]},
            {"vertices": ["a", "b"], "edges": [{"u": "a", "v": "b", "w": False}]},
            {
                "vertices": ["a", "b"],
                "edges": [
                    {"u": "a", "v": "b", "w": "1"},
                    {"u": "b", "v": "a", "w": "2"},
                ],
            },
            {"vertices": ["a", "b"], "edges": 5},
            {"vertices": ["a", "b"], "edges": [{"u": ["a"], "v": ["b"], "w": 1}]},
        ],
    )
    def test_malformed_docs_rejected(self, doc):
        with pytest.raises(MalformedInputError):
            metric_from_doc(doc)

    @pytest.mark.parametrize("read, doc, extra", [
        (metric_from_doc, {"vertices": ["a", "b"], "edges": [{"u": "a", "v": "b", "w": "1", "weight": "5"}]}, "weight"),
        (metric_from_doc, {"vertices": ["a", "b"], "edges": [], "egdes": [{"u": "a", "v": "b", "w": "9"}]}, "egdes"),
        (patchwork_from_doc, {"base": {"vertices": ["a"], "edges": []}, "pieces": [], "peices": []}, "peices"),
        (patchwork_from_doc, {"base": {"vertices": ["a"], "edges": [], "": 1}, "pieces": []}, ""),
    ], ids=["edge-weight", "egdes", "peices", "empty-key-in-base"])
    def test_unknown_key_rejected_and_named(self, read, doc, extra):
        """Nothing is dropped silently: each document above used to load without its misspelt or extra value."""
        with pytest.raises(MalformedInputError, match=re.escape(f"unknown key(s) {extra!r} (only")):
            read(doc)

    @pytest.mark.parametrize("text, key", [
        ('{"vertices": ["a", "b"], "edges": [{"u": "a", "v": "b", "w": "1"}], '
         '"edges": [{"u": "a", "v": "b", "w": "5"}]}', "edges"),
        ('{"vertices": ["a", "b"], "edges": [{"u": "a", "v": "b", "w": "1", "w": "5"}]}', "w"),
    ], ids=["document", "edge-entry"])
    def test_repeated_key_rejected_and_named(self, tmp_path, text, key):
        """Each file used to load as ab = 5: the JSON reader kept the last value of a repeated key."""
        path = tmp_path / "m.json"
        path.write_text(text)
        with pytest.raises(MalformedInputError, match=re.escape(f"repeats the key {key!r}")):
            load_metric(path)

    def test_duplicate_edge_same_weight_ok(self):
        doc = {
            "vertices": ["a", "b"],
            "edges": [
                {"u": "a", "v": "b", "w": "1"},
                {"u": "b", "v": "a", "w": "1"},
            ],
        }
        assert metric_from_doc(doc).weight(pair("a", "b")) == 1


class TestWriter:
    """``_dumps``, the writer of the CLI and ``dump_metric``, against ``json.dumps(indent=2)``."""

    def test_equals_the_stdlib(self):
        rng = random.Random(2202)
        docs = [{}, [], "", 0, {"": {}}, [[]], [{}, []], metric_to_doc(random_floppy(6, Fraction(1, 2), 3))]
        scalars = [True, False, None, 0, -1, 2**200]  # written by _dumps itself, not by json.dumps
        docs += scalars + [scalars, {"k": scalars, "nested": [{"s": s} for s in scalars]}]
        docs += [random_document(rng) for _ in range(400)]
        for doc in docs:
            assert _dumps(doc) == json.dumps(doc, indent=2), doc

    def test_an_int_past_the_digit_limit_raises_as_the_stdlib_does(self):
        """Both write the int, or both raise the same ``ValueError`` (Python 3.10.7+ limits str(int))."""

        def outcome(write, doc):
            try:
                return write(doc)
            except ValueError as exc:
                return ("ValueError", str(exc))

        big = 10**5000
        for doc in (big, -big, [big], {"n": [0, big]}):
            assert outcome(_dumps, doc) == outcome(lambda d: json.dumps(d, indent=2), doc)

    def test_dump_metric_writes_the_stdlib_bytes(self, tmp_path):
        m = random_floppy(7, Fraction(1, 2), 5, scale=Fraction(1, 3))
        dump_metric(m, tmp_path / "m.json")
        assert (tmp_path / "m.json").read_text() == json.dumps(metric_to_doc(m), indent=2) + "\n"

    def test_dump_metric_writes_int_labels_as_json_ints(self, tmp_path):
        m = PartialMetric([2, 10, 7, -1], {pair(2, 10): 1, pair(10, 7): Fraction(5, 2), pair(7, -1): 3})
        dump_metric(m, tmp_path / "m.json")
        assert (tmp_path / "m.json").read_text() == json.dumps(metric_to_doc(m), indent=2) + "\n"


def library_values():
    """``(id, value)`` for every type of value the CLI writes, with labels that JSON must escape."""
    h = PartialMetric(["a", "b", "x", "y"], {pair("a", "b"): 10, pair("a", "x"): 1, pair("b", "y"): 1})
    odd = PartialMetric(["\u00e9", 'q"', "\\", "\U0001f600", "a,b"],
                        {pair("\u00e9", 'q"'): 1, pair('q"', "\\"): Fraction(3, 2), pair("\\", "\U0001f600"): 2,
                         pair("\U0001f600", "a,b"): Fraction(1, 3)})
    ints = PartialMetric([2, 10, 7], {pair(2, 10): 1, pair(10, 7): Fraction(5, 2)})
    collinear = PartialMetric(["a", "b", "c", "d"], {pair("a", "b"): 1, pair("b", "c"): 1, pair("c", "d"): 1,
                                                     pair("a", "d"): 3, pair("b", "d"): 2})
    sets = choice_map_from_doc({"a,y": {"points": ["21/2"]}, "b,x": {"points": ["21/2"], "intervals": [["10", "11"]]},
                                "x,y": {"intervals": [["0", None]]}})
    pw = Patchwork(PartialMetric(["a", "b"], {pair("a", "b"): 2}),
                   [PartialMetric(["a", "x"], {pair("a", "x"): 1}), PartialMetric(["b", "z"], {pair("b", "z"): 1})])
    bad_pw = Patchwork(PartialMetric(["a", "b"], {}), [PartialMetric(["x", "y"], {pair("x", "y"): 1})])
    path = PartialMetric(["a", "b", "c"], {pair("a", "b"): 1, pair("b", "c"): 1})
    ac = pair("a", "c")
    # "" is the Cantor tree's root label
    escaped = PartialMetric(['q"uote', "back\\slash", "a,b", "\u00e9", ""],
                            {pair('q"uote', "back\\slash"): 1, pair("back\\slash", "a,b"): Fraction(3, 2),
                             pair("a,b", "\u00e9"): 2, pair("\u00e9", ""): Fraction(1, 3)})

    class Raises:
        def respond(self, base, history, d, offered):
            raise MalformedInputError("no answer")

    class Cheat:
        def respond(self, base, history, d, offered):
            return Fraction(999)

    games = {
        "FULL_METRIC": play(h, 3, winning_player_one(h), RandomSecondPlayer(0)),
        "MISSING_PAIR": play(h, 2, winning_player_one(h), RandomSecondPlayer(0)),
        "MULTIVALUED_PAIR": play(path, 2, ScriptedFirstPlayer([(ac, ChoiceSet.of_points(Fraction(3, 2))),
                                                               (ac, ChoiceSet.of_points(Fraction(7, 4)))]),
                                 ProbeSecondPlayer("mid")),
        "ILLEGAL_MOVE_I": play(path, 1, ScriptedFirstPlayer([(pair("a", "z"), ChoiceSet.of_points(1))]),
                               ProbeSecondPlayer("mid")),
        "ILLEGAL_MOVE_II-message": play(path, 1, ScriptedFirstPlayer([(ac, ChoiceSet.open_interval(0))]), Raises()),
        "ILLEGAL_MOVE_II-answer": play(path, 1, ScriptedFirstPlayer([(ac, ChoiceSet.of_points(Fraction(3, 2)))]),
                                       Cheat()),
        "POLYGONAL_VIOLATION": play(path, 1, ScriptedFirstPlayer([(ac, ChoiceSet.open_interval(50, 99))]),
                                    ProbeSecondPlayer("mid")),
    }
    assert {kind.split("-")[0] for kind in games} == {t.reason.kind for t in games.values()}
    bulk = []  # the two shapes ``_text`` writes by format, on every order and choice
    for name, m in (("random", random_floppy(8, Fraction(1, 2), 1)), ("cantor3", cantor_tree(3)), ("escaped", escaped)):
        open_sets = {d: ChoiceSet.open_interval(0) for d in m.non_edges()}
        bulk += [(f"metric-{name}", m), (f"trace-{name}-set-file", full_extend(m, choice=open_sets))]
        bulk += [(f"trace-{name}-{order.replace(':', '')}", full_extend(m, order=order))
                 for order in ("lex", "maxgap", "random:5")]
    values = [
        ("trace-midpoint", full_extend(h)),
        ("trace-maxgap-escaped-labels", full_extend(odd, order="maxgap")),
        ("trace-int-labels", full_extend(ints, order="random:2")),
        ("trace-set-file", full_extend(h, choice=sets)),
        ("step-report", verify_step_properties(h, pair("x", "y"), Fraction(34, 3))),
        ("step-report-failures", StepPropertyReport(pair("x", "y"), Fraction(9), {
            1: StatementResult(6, [("a", "b"), ("x", "\u00e9")]), 2: StatementResult(0, [])})),
        ("floppy-report", is_floppy(h)),
        ("floppy-report-not", is_floppy(collinear)),
        ("floppy-report-full", is_floppy(full_extend(h).result)),
        ("validation-report", validate(odd)),
        ("cert-report", floppy_certificate(pw)),
        ("patchwork-report", validate_patchwork(pw)),
        ("patchwork-report-invalid", validate_patchwork(bad_pw)),
        ("metric", odd),
        ("metric-int-labels", ints),
        ("metric-one-vertex", PartialMetric(["v"], {})),
        ("error", ROutOfRangeError("r=13 above shortest-path distance 12", bound="hi", lo=Fraction(8), hi=12)),
        ("error-pair", NotFloppyError("not floppy", pair=pair("c", "a"), gap=Fraction(0))),
        ("error-no-details", MalformedInputError("bad \"input\"")),
        ("value", {"value": Fraction(-7, 3)}),
        ("value-int", {"value": Fraction(12)}),
        ("choice-set", sets[pair("b", "x")]),
        ("mixed", {1: frozenset({Fraction(1, 2), Fraction(1, 3)}), True: (None, False, 0, -5), "": [[], {}, ()]}),
        ("trace-empty", full_extend(full_extend(h).result)),
    ]
    return values + bulk + [(f"game-{kind}", t) for kind, t in games.items()]


class TestWriterOnLibraryValues:
    """The CLI writes a library value as ``_text(value)``, which is ``_dumps(_jsonable(value))`` and writes a trace
    and a metric by format; ``json.dumps`` of the rule's tree is the oracle for both."""

    @pytest.mark.parametrize("value", [v for _, v in library_values()], ids=[k for k, _ in library_values()])
    def test_equals_the_rule(self, value):
        expected = json.dumps(_jsonable(value), indent=2)
        assert _dumps(_jsonable(value)) == expected
        assert _text(value) == expected

    def test_tuple_and_bool_labels(self):
        """``_dumps`` writes a tuple label as a list over several lines, so its metric and trace skip the formats;
        a bool label is JSON ``true`` or ``false``."""
        tuples = PartialMetric([(1, "a"), (2, "b"), (3, "c")], {pair((1, "a"), (2, "b")): 1, pair((2, "b"), (3, "c")): 1})
        bools = PartialMetric([True, False], {pair(True, False): Fraction(1, 2)})
        for value in (tuples, full_extend(tuples), bools, full_extend(bools)):
            assert _text(value) == json.dumps(_jsonable(value), indent=2)

    def test_to_json_is_unchanged(self):
        """A record's and a metric's ``to_json`` return the rule's data; a metric's is its metric document.

        Errors have no ``to_json``: the rule writes them, and the goldens ``error_*.json`` pin those bytes.
        """
        values = [(name, v) for name, v in library_values() if isinstance(v, (_Record, PartialMetric))]
        assert {type(v) for _, v in values} >= {PartialMetric, ChoiceSet, StepPropertyReport}
        for name, value in values:
            assert json.loads(_dumps(_jsonable(value))) == value.to_json(), name
            if isinstance(value, PartialMetric):
                edges = [{"u": d.a, "v": d.b, "w": str(w)} for d, w in sorted(value.edges.items())]
                assert value.to_json() == metric_to_doc(value) == {"vertices": sorted(value.vertices), "edges": edges}


class TestPatchworkDocs:
    def test_round_trip(self):
        base = PartialMetric(["a", "b"], {pair("a", "b"): 2})
        piece = PartialMetric(["a", "x"], {pair("a", "x"): 1})
        pw = Patchwork(base, (piece,))
        restored = patchwork_from_doc(patchwork_to_doc(pw))
        assert restored.base == base
        assert restored.pieces == (piece,)

    def test_missing_fields_rejected(self):
        with pytest.raises(MalformedInputError):
            patchwork_from_doc({"base": {"vertices": ["a"], "edges": []}})

    @pytest.mark.parametrize(
        "doc, message",
        [
            ([1], "patchwork document must be an object, got list"),
            ("pw", "patchwork document must be an object, got str"),
            ({"base": {"vertices": ["a"], "edges": []}, "pieces": {}}, "patchwork pieces must be a list, got dict"),
            ({"base": {"vertices": ["a"], "edges": []}, "pieces": "ab"}, "patchwork pieces must be a list, got str"),
            ({"pieces": []}, "patchwork document missing field: 'base'"),
            ({"base": {"vertices": ["a"], "edges": []}, "pieces": [5]}, "metric document must be an object, got int"),
        ],
    )
    def test_shapes_rejected_with_accurate_message(self, doc, message):
        """Nothing is coerced: an object of pieces is not zero pieces."""
        with pytest.raises(MalformedInputError) as exc:
            patchwork_from_doc(doc)
        assert str(exc.value).startswith(message)


class TestChoiceSetDocs:
    def test_points_and_intervals(self):
        cs = choice_set_from_doc({"points": ["1", "3/2"], "intervals": [["2", None]]})
        assert cs.contains(Fraction(3, 2))
        assert cs.contains(100)
        assert cs == ChoiceSet(points=frozenset([1, Fraction(3, 2)]), intervals=((2, None),))

    def test_choice_map_keys(self):
        """Keys are pair text with the ``--pair`` escapes."""
        cmap = choice_map_from_doc({"a,b": {"points": ["1"]}, r"x\,1,b": {"points": ["2"]}, r"a\\b,c": {"points": ["3"]}})
        assert cmap[pair("a", "b")].contains(1)
        assert cmap[pair("x,1", "b")].contains(2)
        assert cmap[pair("a\\b", "c")].contains(3)
        for key in ("abc", r"a\b,c"):
            with pytest.raises(MalformedInputError):
                choice_map_from_doc({key: {"points": ["1"]}})

    def test_bad_doc_rejected(self):
        for doc in (
            {"points": [1.5]}, 5, [1], {"points": 5}, {"intervals": [["1"]]}, {"intervals": [[[1], None]]},
            {"points": "12"}, {"intervals": ["12"]}, {"points": {"3": 1}},
        ):
            with pytest.raises(MalformedInputError):
                choice_set_from_doc(doc)
        with pytest.raises(MalformedInputError):
            choice_map_from_doc([1])

    def test_pair_named_twice_rejected(self):
        """The later set used to replace the earlier one; both keys are named."""
        with pytest.raises(MalformedInputError, match=re.escape("names pair {a,y} twice: 'a,y' and 'y,a'")):
            choice_map_from_doc({"a,y": {"points": ["21/2"]}, "y,a": {"intervals": [["0", None]]}})

    @pytest.mark.parametrize("doc", [{"points": ["1"], "intervls": [["0", None]]}, {"point": ["1"]},
                                     {"points": ["1"], "intervals": [], "": []}])
    def test_unknown_key_rejected_and_named(self, doc):
        """Nothing is dropped silently: a misspelt ``intervals`` would leave the set {1}."""
        extra = next(key for key in doc if key not in ("points", "intervals"))
        with pytest.raises(MalformedInputError, match=repr(extra)):
            choice_set_from_doc(doc)
        with pytest.raises(MalformedInputError, match=repr(extra)):
            choice_map_from_doc({"a,b": doc})


class TestDot:
    def test_dot_output(self, path_abc):
        dot = metric_to_dot(path_abc)
        assert dot.startswith("graph metric {")
        assert '"a" -- "b" [label="1"];' in dot
        assert dot.rstrip().endswith("}")

    def test_labels_with_quotes_and_backslashes_are_escaped(self):
        m = PartialMetric(['a"x', "b\\"], {pair('a"x', "b\\"): 1})
        dot = metric_to_dot(m)
        assert '  "a\\"x";' in dot.splitlines()
        assert '  "b\\\\";' in dot.splitlines()
        assert '"a\\"x" -- "b\\\\" [label="1"];' in dot
        # every line's quotes pair up once escaped quotes are dropped
        for line in dot.splitlines():
            assert line.replace("\\\\", "").replace('\\"', "").count('"') % 2 == 0
