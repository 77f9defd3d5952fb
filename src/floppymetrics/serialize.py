r"""JSON documents for metrics, patchworks, traces, and game transcripts.

Metric document:
    {"vertices": ["a", "b"], "edges": [{"u": "a", "v": "b", "w": "3/2"}]}

Weights are reduced rational strings ("p/q" or "n").  Canonical serialization
orders vertices and edges lexicographically, so documents round-trip
losslessly and byte-identically.  A weight is a JSON integer or a string
``[+-]?\d+(/\d+)?``; decimals, exponents, floats and booleans are malformed.
This module reads documents.  Readers check only the JSON shape:
``PartialMetric`` admits a metric's labels and entries, and ``ChoiceSet`` a
choice set's lists and their values.  No document object has a key beyond
its own, so a misspelt key cannot drop its value: a metric has
``vertices`` and ``edges``, an edge entry exactly ``u``, ``v`` and ``w``, a
patchwork ``base`` and ``pieces``, and a choice set ``points`` and
``intervals``.  A file names no key twice in one object, and a choice map
no pair twice, so neither a repeated key nor a pair's second spelling
(``"a,y"`` and ``"y,a"``) can replace a value.  Values write themselves, by
one rule (``core._jsonable``): fields in declaration order, rationals as
reduced ``"n"`` / ``"p/q"`` strings, pairs as ``[a, b]``, ``null`` for
none, and a metric as its metric document (``PartialMetric.to_json``, which
``metric_to_doc`` returns).  ``_text`` writes a value as indent-2 JSON for
the CLI and ``dump_metric``, with the bytes of ``json.dumps(indent=2)`` on
the rule's data.  The two shapes that carry bulk output each have one
%-format: an ``ExtensionTrace`` takes one per step and a metric document one
per edge, in ``to_json``'s edge order.  Every other value (reports, errors,
game transcripts) is ``_dumps(_jsonable(value))``: ``_dumps`` writes only
plain JSON data.

Pair text, as in the CLI's ``--pair`` and the keys of a choice-map document,
is two labels separated by a comma, with ``\,`` for a comma and ``\\`` for a
backslash inside a label.
"""

from __future__ import annotations

import functools
import json
import re
from json.encoder import encode_basestring_ascii

from .core import Doubleton, PartialMetric, _jsonable
from .errors import MalformedInputError
from .extension import ChoiceSet, ExtensionTrace
from .glue import Patchwork


_ESCAPES = r"inside a label write \, for a comma and \\ for a backslash"
_LABEL = r"((?:[^,\\]|\\[,\\])*)"
_PAIR = re.compile(_LABEL + "," + _LABEL)


def _parse_pair(text: str) -> Doubleton:
    match = _PAIR.fullmatch(text)
    if match is None:
        raise MalformedInputError(f"pair must be 'u,v' ({_ESCAPES}), got {text!r}")
    u, v = (re.sub(r"\\(.)", r"\1", label) for label in match.groups())
    return Doubleton(u, v)


def _only(doc, keys: tuple, what: str):
    """Reject a key of the object ``doc`` outside ``keys``, naming it."""
    unknown = [key for key in doc if key not in keys]
    if unknown:
        raise MalformedInputError(f"{what} has unknown key(s) {', '.join(map(repr, unknown))}"
                                  f" (only {', '.join(map(repr, keys))})")


def metric_to_doc(m: PartialMetric) -> dict:
    return m.to_json()


def metric_from_doc(doc) -> PartialMetric:
    """Check only the JSON shape and the keys; ``PartialMetric`` admits the labels and the ``((u, v), w)`` entries."""
    try:
        vertices = doc["vertices"]
        raw_edges = doc["edges"]
    except (TypeError, KeyError) as exc:
        raise MalformedInputError(f"metric document missing field: {exc}") from exc
    _only(doc, ("vertices", "edges"), "metric document")
    if not isinstance(vertices, list) or not all(isinstance(v, str) for v in vertices):
        raise MalformedInputError("vertices must be a list of strings")
    if not isinstance(raw_edges, list):
        raise MalformedInputError("edges must be a list")
    entries = []
    for e in raw_edges:
        try:
            u, v, raw = e["u"], e["v"], e["w"]
        except (TypeError, KeyError) as exc:
            raise MalformedInputError(f"bad edge entry {e!r}") from exc
        if len(e) != 3:  # all three are there, so a key is extra: one length check per entry
            _only(e, ("u", "v", "w"), f"edge entry {e!r}")
        if not (isinstance(u, str) and isinstance(v, str)):
            raise MalformedInputError(f"bad edge entry {e!r} (endpoints must be strings)")
        entries.append(((u, v), raw))
    return PartialMetric(vertices, entries)


def patchwork_to_doc(pw: Patchwork) -> dict:
    return {"base": metric_to_doc(pw.base), "pieces": [metric_to_doc(p) for p in pw.pieces]}


def patchwork_from_doc(doc) -> Patchwork:
    """``{"base": metric, "pieces": [metric, ...]}``; an object with no other key, whose pieces are a list."""
    if not isinstance(doc, dict):
        raise MalformedInputError(f"patchwork document must be an object, got {type(doc).__name__}")
    try:
        base, pieces = doc["base"], doc["pieces"]
    except KeyError as exc:
        raise MalformedInputError(f"patchwork document missing field: {exc}") from exc
    _only(doc, ("base", "pieces"), "patchwork document")
    if not isinstance(pieces, list):
        raise MalformedInputError(f"patchwork pieces must be a list, got {type(pieces).__name__}")
    return Patchwork(metric_from_doc(base), [metric_from_doc(p) for p in pieces])


def choice_set_from_doc(doc) -> ChoiceSet:
    """``{"points": [...], "intervals": [[lo, hi], ...]}``; an object with no other key, whose lists and values
    ``ChoiceSet`` admits.  A misspelt key would otherwise drop its list silently."""
    if not isinstance(doc, dict):
        raise MalformedInputError(f"choice-set document must be an object, got {doc!r}")
    _only(doc, ("points", "intervals"), "choice-set document")
    return ChoiceSet(points=doc.get("points", []), intervals=doc.get("intervals", []))


def choice_map_from_doc(doc) -> dict:
    """Mapping document from pair text (``--pair`` escapes) to choice-set documents; no pair named twice."""
    if not isinstance(doc, dict):
        raise MalformedInputError(f"choice-map document must be an object, got {doc!r}")
    sets, keys = {}, {}
    for key, cs_doc in doc.items():
        d = _parse_pair(key)
        if (first := keys.setdefault(d, key)) != key:
            raise MalformedInputError(f"choice map names pair {d} twice: {first!r} and {key!r}")
        sets[d] = choice_set_from_doc(cs_doc)
    return sets


def _object(pairs: list) -> dict:
    """A JSON object from its ``(key, value)`` pairs, which must not repeat a key."""
    doc = dict(pairs)
    if len(doc) != len(pairs):
        seen = set()
        key = next(k for k, _ in pairs if k in seen or seen.add(k))
        raise MalformedInputError(f"JSON object repeats the key {key!r}")
    return doc


def _read_json(path):
    """The JSON document in a file; an unreadable file, text that is not JSON or a repeated key is malformed."""
    try:
        with open(path) as fh:
            return json.load(fh, object_pairs_hook=_object)
    except (OSError, ValueError) as exc:  # ValueError: JSONDecodeError, UnicodeDecodeError
        raise MalformedInputError(str(exc)) from exc


def load_metric(path) -> PartialMetric:
    return metric_from_doc(_read_json(path))


def load_patchwork(path) -> Patchwork:
    return patchwork_from_doc(_read_json(path))


def load_choice_map(path) -> dict:
    return choice_map_from_doc(_read_json(path))


def _dumps(doc, indent="\n") -> str:
    """``json.dumps(doc, indent=2)`` for str keys, strings, ints, bools, ``None``, lists and tuples.

    The stdlib takes its pure-Python encoder whenever ``indent`` is set; this
    writer escapes strings with the same C function, ``encode_basestring_ascii``.
    """
    if isinstance(doc, str):
        return encode_basestring_ascii(doc)
    if isinstance(doc, (list, tuple, dict)):
        if not doc:
            return "{}" if isinstance(doc, dict) else "[]"
        inner = indent + "  "
        if isinstance(doc, dict):
            items = [encode_basestring_ascii(k) + ": " + _dumps(v, inner) for k, v in doc.items()]
            return "{" + inner + ("," + inner).join(items) + indent + "}"
        return "[" + inner + ("," + inner).join([_dumps(v, inner) for v in doc]) + indent + "]"
    return json.dumps(doc)  # true, false, null, or an int


# The two shapes that carry bulk output, as %-formats, one applied per step and one per edge.  A digit k
# stands for a newline and the indent of k levels below the value's own nesting depth.
_STEP = '{1"pair": [2%s,2%s1],1"interval": {2"lo": "%s",2"hi": "%s"1},1"value": "%s"0}'
_EDGE = '{1"u": %s,1"v": %s,1"w": "%s"0}'


@functools.cache
def _at(template: str, depth: int) -> str:
    """``template`` for a value at nesting ``depth``: each digit k becomes a newline and ``depth + k`` indents."""
    return re.sub("[0-9]", lambda k: "\n" + "  " * (depth + int(k[0])), template)


def _list(items: list, depth: int) -> str:
    """A JSON list at nesting ``depth`` of the item texts ``items``."""
    return _at("[1%s0]", depth) % _at(",1", depth).join(items) if items else "[]"


def _metric_text(m: PartialMetric, names: dict, depth: int) -> str:
    """``m``'s metric document at ``depth``, edges in ``to_json``'s order; ``names`` holds each label's text."""
    edge = _at(_EDGE, depth + 2)
    edges = [edge % (names[d.a], names[d.b], w) for d, w in sorted(m.edges.items(), key=lambda e: (e[0].a, e[0].b))]
    vertices = [names[v] for v in sorted(m.vertices)]
    return _at('{1"vertices": %s,1"edges": %s0}', depth) % (_list(vertices, depth + 1), _list(edges, depth + 1))


def _trace_text(t: ExtensionTrace, names: dict) -> str:
    step = _at(_STEP, 2)
    steps = [step % (names[s.pair.a], names[s.pair.b], s.interval.lo, s.interval.hi, s.value) for s in t.steps]
    return _at('{1"steps": %s,1"result": %s0}', 0) % (_list(steps, 1), _metric_text(t.result, names, 1))


def _text(value) -> str:
    """``_dumps(_jsonable(value))``, the indent-2 text of the CLI and ``dump_metric``.

    An ``ExtensionTrace`` is written by one format per step and a
    ``PartialMetric`` by one per edge, each label's text made once as
    ``_dumps`` makes it.  Every other value, and a metric with a tuple label
    (which ``_dumps`` writes as a list over several lines), goes through
    ``_dumps``.
    """
    m = value.result if isinstance(value, ExtensionTrace) else value
    if isinstance(m, PartialMetric) and not any(isinstance(v, tuple) for v in m.vertices):
        names = {v: encode_basestring_ascii(v) if isinstance(v, str) else json.dumps(v) for v in m.vertices}
        return _metric_text(m, names, 0) if m is value else _trace_text(value, names)
    return _dumps(_jsonable(value))


def dump_metric(m: PartialMetric, path):
    with open(path, "w") as fh:
        fh.write(_text(m) + "\n")


def _dot_id(label: str) -> str:
    """Quoted DOT identifier; backslashes and double quotes are escaped."""
    return '"' + label.replace("\\", "\\\\").replace('"', '\\"') + '"'


def metric_to_dot(m: PartialMetric) -> str:
    lines = ["graph metric {"]
    for v in sorted(m.vertices):
        lines.append(f"  {_dot_id(v)};")
    for d, w in sorted(m.edges.items()):
        lines.append(f'  {_dot_id(d.a)} -- {_dot_id(d.b)} [label="{w}"];')
    lines.append("}")
    return "\n".join(lines)
