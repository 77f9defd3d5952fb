"""JSON documents for metrics, patchworks, traces, and game transcripts.

Metric document:
    {"vertices": ["a", "b"], "edges": [{"u": "a", "v": "b", "w": "3/2"}]}

Weights are reduced rational strings ("p/q" or "n").  Canonical serialization
orders vertices and edges lexicographically, so documents round-trip
losslessly and byte-identically.
"""

from __future__ import annotations

import json

from .core import Doubleton, PartialMetric, as_rational
from .errors import MalformedInputError
from .game import ChoiceSet
from .glue import Patchwork


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
    edges = {}
    for e in raw_edges:
        try:
            d = Doubleton(e["u"], e["v"])
            w = as_rational(e["w"])
        except (TypeError, KeyError) as exc:
            raise MalformedInputError(f"bad edge entry {e!r}") from exc
        if d in edges and edges[d] != w:
            raise MalformedInputError(f"duplicate edge {d} with conflicting weights")
        edges[d] = w
    return PartialMetric(vertices, edges)


def patchwork_to_doc(pw: Patchwork) -> dict:
    return {"base": metric_to_doc(pw.base), "pieces": [metric_to_doc(p) for p in pw.pieces]}


def patchwork_from_doc(doc) -> Patchwork:
    try:
        base = metric_from_doc(doc["base"])
        pieces = [metric_from_doc(p) for p in doc["pieces"]]
    except (TypeError, KeyError) as exc:
        raise MalformedInputError(f"patchwork document missing field: {exc}") from exc
    return Patchwork(base, pieces)


def choice_set_from_doc(doc) -> ChoiceSet:
    try:
        points = [as_rational(p) for p in doc.get("points", [])]
        intervals = [
            (as_rational(lo), None if hi is None else as_rational(hi))
            for lo, hi in doc.get("intervals", [])
        ]
    except (TypeError, ValueError) as exc:
        raise MalformedInputError(f"bad choice-set document {doc!r}") from exc
    return ChoiceSet(points=frozenset(points), intervals=tuple(intervals))


def choice_map_from_doc(doc) -> dict:
    """Mapping document keyed by "u,v" pair strings."""
    out = {}
    for key, cs_doc in doc.items():
        parts = key.split(",")
        if len(parts) != 2:
            raise MalformedInputError(f"choice-map key must be 'u,v', got {key!r}")
        out[Doubleton(parts[0], parts[1])] = choice_set_from_doc(cs_doc)
    return out


def load_metric(path) -> PartialMetric:
    with open(path) as fh:
        return metric_from_doc(json.load(fh))


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
