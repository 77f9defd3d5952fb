"""Partial metrics on finite vertex sets and the three derived distance functions.

A :class:`PartialMetric` is a positive-rational weight function on the edges of
a graph over labeled vertices.  From it we derive

* ``shortest_path(m, x, y)`` -- the shortest-chain pseudometric between vertices,
* ``doubleton_dist(m, p, q)`` -- the induced pseudometric between unordered pairs,
* ``lower_envelope(m, x, y)`` -- the largest value any extension of ``m`` is
  forced to respect at the pair ``xy``.

All arithmetic is exact: ``fractions.Fraction`` at the API and in the
distance table, integers over a common denominator inside the envelope
kernel, and no floats anywhere in this module.  ``None`` marks a pair that no
chain connects (the paper's +infinity), in the table and in the envelope rows
alike.  Verdicts like floppiness hinge on strict inequalities, so rounding is
never acceptable.

One kernel serves all three.  Each metric keeps ``L``, a common denominator
of its weights (the LCM of their denominators), and caches an n x n list
table of Fractions over its sorted vertex index.  Floyd-Warshall builds it on
integers scaled by ``L`` and converts once at the end, sharing one Fraction
per distinct value.  Envelopes come from per-vertex max-plus rows
``R_x[b] = max over edges ab of w(ab) - hat(x, a)``, stored as ints times
``L``.  The first envelope query builds every vertex's row in one O(n|E|)
pass and the metric caches them whole, so
``check(x, y) = max(0, max_b R_x[b] - hat(b, y))`` is an O(n) integer scan
per pair, and ``_check`` is the one place that scan is written.
``lower_envelope`` answers one pair, converting only hat row y to ints.
Whole-metric questions (``is_floppy``, ``minimal_floppy_extension``, and in
other modules the step statements, certificate bounds and the maxgap order)
read the table and the rows once as ints with ``_scaled``, the one home of
that conversion, and sweep every pair on them, so checking every non-edge
costs O(n|E| + n^3) integer operations and builds a Fraction only for what
is reported.  The table stays on Fractions: every public distance is read
from it as one, and shared Fractions keep it small.  Moving the table and
its relaxation to ints as well is an open item (ROADMAP item 2).

``with_edge`` copies derive both caches from the parent's in one O(n^2) pass
through the new edge: the table by relaxation, and, when the parent has its
rows, every row by the matching max-plus update (rows the edge cannot change
are shared).  The rows are built, carried and rescaled whole: a metric holds
all of them or none.  A new weight denominator moves the copy to
``L' = lcm(L, w.denominator)``, and the carried rows are rescaled into new
lists.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, fields
from fractions import Fraction
from itertools import combinations
from types import MappingProxyType

from .errors import (
    DisconnectedError,
    ExtensionDivergedError,
    MalformedInputError,
    NotGraphMetricError,
    UnknownVertexError,
)

_ZERO = Fraction(0)
_RATIONAL = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")


def as_rational(value) -> Fraction:
    """Coerce ints, Fractions, and strings ``[+-]?\\d+(/\\d+)?`` in ASCII digits, like "3/2", to Fraction.

    Floats, bools (an int subclass: JSON ``true`` would load as 1), and text
    with spaces, decimals or exponents are rejected, so a value is never
    larger than its text: ``"1e100000000"`` would be a 330-million-bit integer.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str) and _RATIONAL.fullmatch(value):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:  # p/0, or more digits than int() reads
            raise MalformedInputError(f"not a rational: {value!r}") from exc
    raise MalformedInputError(f"not a rational: {value!r} (an int, or a string n or p/q)")


@dataclass(frozen=True, order=True)
class Doubleton:
    """Unordered pair of distinct vertex labels, stored in sorted order."""

    a: str
    b: str

    def __post_init__(self):
        if self.a == self.b:
            raise MalformedInputError(f"doubleton needs two distinct vertices, got {self.a!r} twice")
        if self.a > self.b:
            lo, hi = self.b, self.a
            object.__setattr__(self, "a", lo)
            object.__setattr__(self, "b", hi)

    def __iter__(self):
        return iter((self.a, self.b))

    def __str__(self):
        return f"{{{self.a},{self.b}}}"


def pair(a: str, b: str) -> Doubleton:
    return Doubleton(a, b)


class PartialMetric:
    """An edge-weight function over labeled vertices.

    Weights are nonnegative rationals (zero weights put the object in
    pseudometric mode; metric-grade operations reject them).  Vertex labels
    must sort together (all ``str`` or all ``int``, say).  Instances are
    immutable.  The vertex index (sorted labels to 0..n-1) and the common
    denominator ``_scale`` of the weights are built with the instance; the
    n x n distance table of exact Fractions (``None`` between components) and
    the max-plus envelope rows, held as ints times ``_scale``, are built
    lazily and cached.  ``_rows`` is ``None`` or holds every vertex's row: the
    rows are built, carried and rescaled whole.  ``with_edge`` copies share
    the vertex index, extend ``_scale`` by the new weight's denominator, and
    carry the parent's table and envelope rows over through the new edge.
    """

    __slots__ = ("_vertices", "_edges", "_index", "_scale", "_dist", "_rows")

    def __init__(self, vertices, edges):
        vset = frozenset(vertices)
        if not vset:
            raise MalformedInputError("a metric needs at least one vertex")
        try:
            labels = sorted(vset)
        except TypeError:
            raise MalformedInputError("vertex labels must be mutually comparable (e.g. all strings)") from None
        emap = {}
        for key, raw in dict(edges).items():
            d = key if isinstance(key, Doubleton) else Doubleton(*key)
            emap[d] = _admit_edge(vset, d, raw)
        self._vertices = vset
        self._edges = emap
        self._index = {v: i for i, v in enumerate(labels)}
        self._scale = math.lcm(*(w.denominator for w in emap.values()))
        self._dist = None
        self._rows = None

    @property
    def vertices(self) -> frozenset:
        return self._vertices

    @property
    def edges(self):
        return MappingProxyType(self._edges)

    def __eq__(self, other):
        if not isinstance(other, PartialMetric):
            return NotImplemented
        return self._vertices == other._vertices and self._edges == other._edges

    def __hash__(self):
        return hash((self._vertices, frozenset(self._edges.items())))

    def __repr__(self):
        return f"PartialMetric(|V|={len(self._vertices)}, |E|={len(self._edges)})"

    def is_edge(self, d: Doubleton) -> bool:
        return d in self._edges

    def weight(self, d: Doubleton) -> Fraction:
        return self._edges[d]

    def non_edges(self):
        """Sorted list of vertex pairs that carry no edge."""
        edges = self._edges
        return [d for u, v in combinations(self._index, 2) if (d := Doubleton(u, v)) not in edges]

    def with_edge(self, d: Doubleton, w) -> "PartialMetric":
        """New metric with one extra (or replaced) edge.

        When this instance's distance table is already computed and the pair
        is new, the copy's table and envelope rows are carried over through
        the new edge (``_relax_through``), which is O(n^2) instead of a full
        recompute and O(n|E|) of row rebuilds.
        """
        w = _admit_edge(self._vertices, d, w)
        out = PartialMetric.__new__(PartialMetric)
        out._vertices = self._vertices
        out._edges = dict(self._edges)
        out._edges[d] = w
        out._index = self._index
        out._scale = math.lcm(self._scale, w.denominator)
        out._dist = None
        out._rows = None
        if self._dist is not None and d not in self._edges:
            rows = self._rows
            k = out._scale // self._scale
            if rows is not None and k != 1:  # rescale into new lists; parent rows stay as they are
                rows = _lifted(rows, k)
            out._dist, out._rows = _relax_through(
                self._dist, rows, self._index[d.a], self._index[d.b], w, out._scale
            )
        return out

    def _table(self):
        """The n x n distance table, indexed through ``self._index``."""
        if self._dist is None:
            self._dist = _all_pairs_shortest(self._index, self._edges, self._scale)
        return self._dist


def _admit_edge(vertices, d: Doubleton, raw) -> Fraction:
    """Weight of edge ``d`` once its endpoints and its sign are checked."""
    if d.a not in vertices or d.b not in vertices:
        raise MalformedInputError(f"edge {d} has an endpoint outside the vertex set")
    w = as_rational(raw)
    if w < 0:
        raise MalformedInputError(f"edge {d} has negative weight {w}")
    return w


def _all_pairs_shortest(index, edges, scale):
    """Floyd-Warshall on integers scaled by ``scale``, a common denominator of the weights.

    Exact: every chain weight times ``scale`` is an integer.  Entries are
    converted to Fractions (``None`` for unreachable pairs) once at the end,
    one shared Fraction per distinct value.
    """
    n = len(index)
    big = 1 + sum(w.numerator * (scale // w.denominator) for w in edges.values())
    dist = [[big] * n for _ in range(n)]
    for i in range(n):
        dist[i][i] = 0
    for d, w in edges.items():
        i, j = index[d.a], index[d.b]
        s = w.numerator * (scale // w.denominator)
        if s < dist[i][j]:
            dist[i][j] = dist[j][i] = s
    for k in range(n):
        dk = dist[k]
        for i in range(n):
            di = dist[i]
            dik = di[k]
            if dik == big:
                continue
            for j in range(n):
                alt = dik + dk[j]
                if alt < di[j]:
                    di[j] = alt
    shared = {}
    for row in dist:
        for j, s in enumerate(row):
            if s == big:  # before the lookup, whose miss is None too
                row[j] = None
                continue
            f = shared.get(s)
            if f is None:
                f = shared[s] = Fraction(s, scale)
            row[j] = f
    return dist


def _relax_through(dist, rows, i: int, j: int, w: Fraction, scale: int):
    """Distance table and envelope rows after inserting edge ``ij`` of weight ``w``.

    A shortest chain uses the new edge at most once, so
    hat'(u, a) = min(hat(u, a), hat(u, i) + w + hat(j, a), hat(u, j) + w + hat(i, a)),
    and in max-plus form the row of u becomes
    R'_u = max(R_u, R_j - (hat(u, i) + w), R_i - (hat(u, j) + w)) plus the new
    edge's two orientations, R'_u[j] >= w - hat'(u, i) and R'_u[i] >= w - hat'(u, j).
    A through-term counts only when its chain beats the direct distance to the
    far endpoint, and since ``w >= 0`` at most one of the two can.  A row with
    neither cannot improve, so its table row is shared unchanged, and so does
    a row that reaches neither endpoint (``None`` entries are skipped).

    ``rows`` is the parent's whole row cache, which ``with_edge`` has already
    rescaled to the copy's ``scale``, or ``None``.  Rows are built, carried
    and rescaled whole: every row of the copy is derived, or the copy has
    none.  Parent rows are shared or copied, never written.
    """
    ws = w.numerator * (scale // w.denominator)
    out, out_rows = [], (None if rows is None else [])
    for u, row in enumerate(dist):
        via = None
        hi, hj = row[i], row[j]
        if hi is not None and (hj is None or hi + w < hj):  # u -> i -> j -> v
            via, far = hi + w, j
        elif hj is not None and (hi is None or hj + w < hi):  # u -> j -> i -> v
            via, far = hj + w, i
        new = row
        if via is not None:
            new = list(row)
            for v, h in enumerate(dist[far]):
                if h is not None:
                    alt = via + h
                    if new[v] is None or alt < new[v]:
                        new[v] = alt
        out.append(new)
        if rows is None:
            continue
        r = rows[u]
        copied = via is not None
        if copied:
            r = _max_plus_shift(r, rows[far], via.numerator * (scale // via.denominator))
        for b, h in ((j, new[i]), (i, new[j])):
            if h is not None:
                val = ws - h.numerator * (scale // h.denominator)
                if r[b] is None or val > r[b]:
                    if not copied:
                        r, copied = list(r), True
                    r[b] = val
        out_rows.append(r)
    return out, out_rows


def _max_plus_shift(row, far, via):
    """Entrywise ``max(row, far - via)`` as a new list (``None`` is -inf)."""
    out = list(row)
    for b, f in enumerate(far):
        if f is not None:
            val = f - via
            if out[b] is None or val > out[b]:
                out[b] = val
    return out


def _scaled_row(values, scale: int):
    """Fractions (or ``None``) as ints times ``scale``, a multiple of each one's denominator."""
    return [None if h is None else h.numerator * (scale // h.denominator) for h in values]


def _lifted(rows, k: int):
    """Envelope rows times ``k``, as new lists (``None`` stays ``None``)."""
    return [[None if v is None else v * k for v in r] for r in rows]


def _scaled(m: PartialMetric, scale: int):
    """``(table, rows)``: the distance table and the envelope rows as ints times ``scale``.

    ``scale`` is a multiple of ``m._scale``; rows cached at ``m._scale`` are
    lifted by the quotient into new lists.  One O(n^2) conversion, made once
    per whole-metric query.
    """
    table = [_scaled_row(row, scale) for row in m._table()]
    rows = _envelope_rows(m)
    k = scale // m._scale
    return table, rows if k == 1 else _lifted(rows, k)


def _envelope_rows(m: PartialMetric):
    """Every vertex's max-plus row ``R_x[b] = max over edges ab of w(ab) - hat(x, a)``, times ``m._scale``.

    Entries are ints over the metric's common denominator.  Both orientations
    of every edge count; ``None`` marks a vertex b that no edge reachable from
    x ends at.  All n rows are built in one pass, with the edge weights scaled
    once, and cached on the metric whole.
    """
    if m._rows is None:
        scale, index = m._scale, m._index
        edges = [(index[d.a], index[d.b], w.numerator * (scale // w.denominator)) for d, w in m._edges.items()]
        rows = []
        for table_row in m._table():
            hx = _scaled_row(table_row, scale)
            row = [None] * len(hx)
            for a, b, s in edges:
                h = hx[a]
                if h is not None:
                    val = s - h
                    if row[b] is None or val > row[b]:
                        row[b] = val
                h = hx[b]
                if h is not None:
                    val = s - h
                    if row[a] is None or val > row[a]:
                        row[a] = val
            rows.append(row)
        m._rows = rows
    return m._rows


def _check(row, hy) -> int:
    """The envelope scan ``max(0, max_b row[b] - hy[b])`` on ints over one denominator.

    ``row`` is the envelope row of x and ``hy`` the scaled hat row of y; a
    ``None`` in either is -inf and contributes nothing.
    """
    best = 0
    for r, h in zip(row, hy):
        if r is not None and h is not None and r - h > best:
            best = r - h
    return best


def _sweep(m: PartialMetric):
    """``(pair, hat, check)`` at every non-edge in sorted order, as ints times ``m._scale``.

    One table conversion and the cached rows serve every pair.
    """
    t, rows = _scaled(m, m._scale)
    index = m._index
    for d in m.non_edges():
        i, j = index[d.a], index[d.b]
        yield d, t[i][j], _check(rows[i], t[j])


def _index_of(m: PartialMetric, v) -> int:
    """Table index of vertex ``v``; ``UnknownVertexError`` if ``m`` has no such vertex."""
    try:
        return m._index[v]
    except KeyError:
        raise UnknownVertexError(f"unknown vertex {v!r}") from None


def shortest_path(m: PartialMetric, x: str, y: str) -> Fraction:
    """Minimum chain weight between two vertices (the induced pseudometric)."""
    i, j = _index_of(m, x), _index_of(m, y)
    val = m._table()[i][j]
    if val is None:
        raise DisconnectedError(f"no chain connects {x!r} and {y!r}")
    return val


def shortest_chain(m: PartialMetric, x: str, y: str):
    """One vertex chain realizing shortest_path(m, x, y) (Dijkstra with parents)."""
    if _index_of(m, x) == _index_of(m, y):
        return [x]
    adj = {v: [] for v in m.vertices}
    for d, w in m.edges.items():
        adj[d.a].append((d.b, w))
        adj[d.b].append((d.a, w))
    dist = {x: Fraction(0)}
    parent = {}
    done = set()
    while True:
        u = min((v for v in dist if v not in done), key=lambda v: (dist[v], v), default=None)
        if u is None:
            raise DisconnectedError(f"no chain connects {x!r} and {y!r}")
        if u == y:
            break
        done.add(u)
        for v, w in adj[u]:
            alt = dist[u] + w
            if v not in dist or alt < dist[v]:
                dist[v] = alt
                parent[v] = u
    chain = [y]
    while chain[-1] != x:
        chain.append(parent[chain[-1]])
    chain.reverse()
    return chain


def doubleton_dist(m: PartialMetric, p: Doubleton, q: Doubleton) -> Fraction:
    """Distance between unordered pairs: the cheaper endpoint matching."""
    pa, pb, qa, qb = (_index_of(m, v) for v in (p.a, p.b, q.a, q.b))
    t = m._table()
    sums = [h + k for h, k in ((t[pa][qa], t[pb][qb]), (t[pa][qb], t[pb][qa])) if h is not None and k is not None]
    if not sums:
        raise DisconnectedError(f"pairs {p} and {q} span disconnected components")
    return min(sums)


def lower_envelope(m: PartialMetric, x: str, y: str) -> Fraction:
    """Largest lower bound that every extension must respect at the pair xy.

    Max over edges ab of weight(ab) - doubleton_dist(ab, xy), clamped at 0.
    Splitting the doubleton distance into its two orientations gives the
    max-plus form ``max over b of R_x[b] - hat(b, y)`` with the cached row
    R_x of ``_envelope_rows``, so each pair costs O(n) once the rows exist.
    The scan is ``_check`` on ints over the metric's common denominator; only
    hat row y is converted.  Whole-metric queries use ``_sweep`` instead.
    """
    i, j = _index_of(m, x), _index_of(m, y)
    if i == j:
        return _ZERO
    scale = m._scale
    return Fraction(_check(_envelope_rows(m)[i], _scaled_row(m._table()[j], scale)), scale)


def _jsonable(v):
    """The one JSON rule: Fraction -> reduced string, Doubleton -> [a, b], record -> its to_json(),
    frozenset -> sorted list, list or tuple -> list, dict -> str keys, PartialMetric -> metric document."""
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, Doubleton):
        return [v.a, v.b]
    if isinstance(v, _Record):
        return v.to_json()
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    if isinstance(v, frozenset):
        return [_jsonable(x) for x in sorted(v)]
    if isinstance(v, dict):
        return {str(k): _jsonable(x) for k, x in v.items()}
    if isinstance(v, PartialMetric):
        from .serialize import metric_to_doc  # serialize imports every report module

        return metric_to_doc(v)
    return v


class _Record:
    """Base of the result dataclasses: ``to_json`` writes the fields in declaration order."""

    def to_json(self):
        return {f.name: _jsonable(getattr(self, f.name)) for f in fields(self)}


@dataclass(frozen=True)
class ValidationReport(_Record):
    connected: bool
    graph_pseudometric: bool
    graph_metric: bool
    full: bool


def validate(m: PartialMetric) -> ValidationReport:
    """Classify a weight function: connectivity, pseudometric/metric grade, fullness.

    A weight function is a graph pseudometric exactly when every edge weight
    equals the induced shortest-chain distance between its endpoints.
    """
    t = m._table()
    n = len(t)
    connected = None not in t[0]
    pseudometric = all(t[_index_of(m, d.a)][_index_of(m, d.b)] == w for d, w in m.edges.items())
    metric = pseudometric and all(w > 0 for w in m.edges.values())
    full = len(m.edges) == n * (n - 1) // 2
    return ValidationReport(connected, pseudometric, metric, full)


def _require_metric_grade(m: PartialMetric, *, allow_pseudometric=False):
    rep = validate(m)
    if not rep.connected:
        raise NotGraphMetricError("graph is not connected")
    if allow_pseudometric:
        if not rep.graph_pseudometric:
            raise NotGraphMetricError("weights violate the polygonal inequality")
    elif not rep.graph_metric:
        raise NotGraphMetricError(
            "not a graph metric"
            + ("" if rep.graph_pseudometric else " (weights violate the polygonal inequality)")
        )
    return rep


@dataclass(frozen=True)
class FloppyReport(_Record):
    floppy: bool
    worst_pair: Doubleton | None
    gap: Fraction | None

    def to_json(self):
        """The fields, without ``worst_pair`` and ``gap`` when there is no worst pair."""
        return {"floppy": self.floppy} if self.worst_pair is None else super().to_json()


def is_floppy(m: PartialMetric, *, require_metric=True) -> FloppyReport:
    """Check strict envelope-below-distance at every non-edge, in one integer sweep.

    The worst pair is the first minimal gap in sorted non-edge order.  Full
    (pseudo)metrics are floppy vacuously and report no worst pair.
    ``require_metric=False`` admits pseudometric-grade inputs (used by the
    glued-patchwork certificate).
    """
    _require_metric_grade(m, allow_pseudometric=not require_metric)
    worst = None
    worst_gap = None
    for d, h, c in _sweep(m):
        if worst_gap is None or h - c < worst_gap:
            worst, worst_gap = d, h - c
    if worst is None:
        return FloppyReport(True, None, None)
    return FloppyReport(worst_gap > 0, worst, Fraction(worst_gap, m._scale))


def minimal_floppy_extension(m: PartialMetric, *, return_iterations=False):
    """Adjoin every forced pair (envelope == distance > 0) until none remain.

    Whether a single pass suffices is not settled, so we iterate to a
    fixpoint and cap at n^2 rounds defensively.
    """
    _require_metric_grade(m)
    current = m
    cap = len(m.vertices) ** 2
    for iteration in range(cap + 1):
        forced = [(d, Fraction(h, current._scale)) for d, h, c in _sweep(current) if h > 0 and c == h]
        if not forced:
            return (current, iteration) if return_iterations else current
        for d, h in forced:
            current = current.with_edge(d, h)
    raise ExtensionDivergedError(f"no fixpoint after {cap} rounds")
