r"""JSON documents for metrics, patchworks, traces, and game transcripts.

Metric document:
    {"vertices": ["a", "b"], "edges": [{"u": "a", "v": "b", "w": "3/2"}]}

Weights are reduced rational strings ("p/q" or "n").  Canonical serialization
orders vertices and edges lexicographically, so documents round-trip
losslessly and byte-identically.  A weight is a JSON integer or a string
``[+-]?\d+(/\d+)?``; decimals, exponents, floats and booleans are malformed.
Reports, traces and transcripts follow one rule (``core._jsonable``): fields
in declaration order, rationals as reduced ``"n"`` / ``"p/q"`` strings, pairs
as ``[a, b]``, ``null`` for none, and a metric as its metric document.

Pair text, as in the CLI's ``--pair`` and the keys of a choice-map document,
is two labels separated by a comma, with ``\,`` for a comma and ``\\`` for a
backslash inside a label.
"""

from __future__ import annotations

import json
import re

from .core import Doubleton, PartialMetric, as_rational
from .errors import MalformedInputError
from .game import ChoiceSet
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


def metric_to_doc(m: PartialMetric) -> dict:
    return {
        "vertices": sorted(m.vertices),
        "edges": [
            {"u": d.a, "v": d.b, "w": str(w)}
            for d, w in sorted(m.edges.items())
        ],
    }


def metric_from_doc(doc) -> PartialMetric:
    try:
        vertices = doc["vertices"]
        raw_edges = doc["edges"]
    except (TypeError, KeyError) as exc:
        raise MalformedInputError(f"metric document missing field: {exc}") from exc
    if not isinstance(vertices, list) or not all(isinstance(v, str) for v in vertices):
        raise MalformedInputError("vertices must be a list of strings")
    if len(set(vertices)) != len(vertices):
        raise MalformedInputError("vertex labels must be pairwise distinct")
    if not isinstance(raw_edges, list):
        raise MalformedInputError("edges must be a list")
    edges = {}
    for e in raw_edges:
        try:
            u, v, raw = e["u"], e["v"], e["w"]
        except (TypeError, KeyError) as exc:
            raise MalformedInputError(f"bad edge entry {e!r}") from exc
        if not (isinstance(u, str) and isinstance(v, str)):
            raise MalformedInputError(f"bad edge entry {e!r} (endpoints must be strings)")
        d = Doubleton(u, v)
        w = as_rational(raw)
        if d in edges and edges[d] != w:
            raise MalformedInputError(f"duplicate edge {d} with conflicting weights")
        edges[d] = w
    return PartialMetric(vertices, edges)


def patchwork_to_doc(pw: Patchwork) -> dict:
    return {"base": metric_to_doc(pw.base), "pieces": [metric_to_doc(p) for p in pw.pieces]}


def patchwork_from_doc(doc) -> Patchwork:
    """``{"base": metric, "pieces": [metric, ...]}``; an object whose pieces are a list."""
    if not isinstance(doc, dict):
        raise MalformedInputError(f"patchwork document must be an object, got {type(doc).__name__}")
    try:
        base, pieces = doc["base"], doc["pieces"]
    except KeyError as exc:
        raise MalformedInputError(f"patchwork document missing field: {exc}") from exc
    if not isinstance(pieces, list):
        raise MalformedInputError(f"patchwork pieces must be a list, got {type(pieces).__name__}")
    return Patchwork(metric_from_doc(base), [metric_from_doc(p) for p in pieces])


def choice_set_from_doc(doc) -> ChoiceSet:
    """``{"points": [...], "intervals": [[lo, hi], ...]}``; both lists, each interval a list."""
    if not isinstance(doc, dict):
        raise MalformedInputError(f"choice-set document must be an object, got {doc!r}")
    points, intervals = doc.get("points", []), doc.get("intervals", [])
    if not isinstance(points, list) or not isinstance(intervals, list):
        raise MalformedInputError(f"choice-set points and intervals must be lists, got {doc!r}")
    if not all(isinstance(iv, list) for iv in intervals):
        raise MalformedInputError(f"each choice-set interval must be a list [lo, hi], got {doc!r}")
    try:
        return ChoiceSet(points=points, intervals=intervals)
    except (TypeError, ValueError) as exc:
        raise MalformedInputError(f"bad choice-set document {doc!r}") from exc


def choice_map_from_doc(doc) -> dict:
    """Mapping document from pair text (``--pair`` escapes) to choice-set documents."""
    if not isinstance(doc, dict):
        raise MalformedInputError(f"choice-map document must be an object, got {doc!r}")
    return {_parse_pair(key): choice_set_from_doc(cs_doc) for key, cs_doc in doc.items()}


def _read_json(path):
    """The JSON document in a file; an unreadable file or text that is not JSON is malformed input."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: JSONDecodeError, UnicodeDecodeError
        raise MalformedInputError(str(exc)) from exc


def load_metric(path) -> PartialMetric:
    return metric_from_doc(_read_json(path))


def load_patchwork(path) -> Patchwork:
    return patchwork_from_doc(_read_json(path))


def load_choice_map(path) -> dict:
    return choice_map_from_doc(_read_json(path))


def dump_metric(m: PartialMetric, path):
    with open(path, "w") as fh:
        json.dump(metric_to_doc(m), fh, indent=2)
        fh.write("\n")


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
