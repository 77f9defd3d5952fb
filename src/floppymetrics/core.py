"""Partial metrics on finite vertex sets and the three derived distance functions.

A :class:`PartialMetric` is a positive-rational weight function on the edges of
a graph over labeled vertices.  From it we derive

* ``shortest_path(m, x, y)`` -- the shortest-chain pseudometric between vertices,
* ``doubleton_dist(m, p, q)`` -- the induced pseudometric between unordered pairs,
* ``lower_envelope(m, x, y)`` -- the largest value any extension of ``m`` is
  forced to respect at the pair ``xy``.

All arithmetic is exact: ``fractions.Fraction`` at the API, integers over a
common denominator inside the kernel, and no floats anywhere in this module.
``None`` marks a pair that no chain connects (the paper's +infinity) in the
table and envelope rows built cold; the relaxation never meets one.  Verdicts
like floppiness hinge on strict inequalities, so rounding is never acceptable.

One kernel serves all three.  Each metric keeps ``L``, a common denominator
of its weights (the LCM of their denominators), and caches an n x n list
table of hat values as ints times ``L`` over its sorted vertex index, built
by an integer Floyd-Warshall that relaxes each pair once and mirrors it.
Envelopes come from per-vertex max-plus rows
``R_x[b] = max over edges ab of w(ab) - hat(x, a)``, also ints times ``L``.
The first envelope query builds every vertex's row in one O(n|E|) pass and
the metric caches them whole, so
``check(x, y) = max(0, max_b R_x[b] - hat(b, y))`` is an O(n) integer scan
per pair, and ``_check`` is the one place that scan is written.

The metric is its own reader.  Its private methods read hat, check and the
doubleton distance dd as ints times L, each in one place: per pair
``_hat``, ``_envelope`` and ``_dd``; in bulk ``_pairs`` (every vertex pair
with its hat and check, for the step statements) and ``_gaps`` (hat - check
at every non-edge, for the maxgap order and the certificate bounds); and
``_denominator`` returns L.  Each read raises what the public API raises.
``shortest_path``, ``lower_envelope`` and ``doubleton_dist`` are each one
Fraction of a read, after their arguments are admitted.  Each kind of
argument has one admission rule, which every public entry point that takes
it calls first: ``_metric`` a metric, ``_pair`` a ``Doubleton`` (a ``str``,
tuple or list is never read as one) and ``_count`` an int count.  Other
modules read the kernel only through these methods; none reads the table,
the rows, the index (``_at``) or ``L`` itself.  Whole-metric questions
sweep every non-edge on the cached table and rows (``_sweep``), so checking
every non-edge costs O(n|E| + n^3) integer operations: ``is_floppy``,
``minimal_floppy_extension`` and ``_gaps``.  A sweep walks table index pairs
against the edges' index pairs and builds a ``Doubleton`` only for a pair it
reports: ``is_floppy``'s worst pair, ``_gaps``'s keys, the forced pairs;
``non_edges`` builds one per non-edge and none per edge.

A metric grows one way: ``_adjoin`` writes a new pair ij into a ``_copy``'s
own dict, table and rows in place, touching only the pairs it can shorten.
One O(n) scan finds the vertices that now reach i, or j, more cheaply
across the edge and writes the new edge into every envelope row, the table
update is the block of those two sets, and each affected row rises only
where the far endpoint's row beats the near one's, entries that one more
O(n) scan of rows i and j finds.  The cost is O(n) plus the affected
block, a few entries along ``full_extend`` and the game.  Only a connected
metric, the only kind grown in place, gives a copy its table and rows;
every other copy starts cold.
``with_edge`` is a copy and one adjoin, and ``full_extend``, the winning
strategy and ``minimal_floppy_extension`` each adjoin into one copy;
reweighting an edge builds a new, cold metric instead.  A new weight
denominator moves the metric to ``L' = lcm(L, w.denominator)``.  A metric
keeps its ``is_floppy`` report once one is made; a copy starts without one.
``_jsonable`` is the one JSON rule, for reports, metrics and errors alike.
This module imports only ``errors``.
"""

from __future__ import annotations

import functools
import math
import re
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, fields
from fractions import Fraction
from itertools import combinations
from types import MappingProxyType

from .errors import (
    DisconnectedError,
    MalformedInputError,
    MetricError,
    NotGraphMetricError,
    UnknownVertexError,
)

_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def as_rational(value) -> Fraction:
    """Coerce ints, Fractions, and strings ``[+-]?\\d+(/\\d+)?`` in ASCII digits, like "3/2", to Fraction.

    Floats, bools (an int subclass: JSON ``true`` would load as 1), and text
    with spaces, decimals or exponents are rejected, so a value is never
    larger than its text: ``"1e100000000"`` would be a 330-million-bit integer.
    """
    if isinstance(value, str) and value.isascii() and value.isdigit():  # the common case: one int, no gcd
        try:
            return Fraction(int(value))
        except ValueError as exc:  # more digits than int() reads
            raise MalformedInputError(f"not a rational: {value!r}") from exc
    if isinstance(value, str) and (match := _RATIONAL.fullmatch(value)):
        p, q = match.groups()
        try:
            return Fraction(int(p), int(q or 1))
        except (ValueError, ZeroDivisionError) as exc:  # p/0, or more digits than int() reads
            raise MalformedInputError(f"not a rational: {value!r}") from exc
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    raise MalformedInputError(f"not a rational: {value!r} (an int, or a string n or p/q)")


@dataclass(frozen=True, order=True, init=False)
class Doubleton:
    """Unordered pair of distinct vertex labels, stored in sorted order."""

    a: str
    b: str

    def __init__(self, a, b):
        if a == b:
            raise MalformedInputError(f"doubleton needs two distinct vertices, got {a!r} twice")
        try:
            swap = a > b
            hash((a, b))
        except TypeError:
            raise MalformedInputError(f"doubleton labels must hash and compare, got {a!r} and {b!r}") from None
        object.__setattr__(self, "a", b if swap else a)
        object.__setattr__(self, "b", a if swap else b)

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
    must be distinct, hashable and sort together (all ``str`` or all ``int``, say).
    ``edges`` maps pairs to weights or is an iterable of 2-item ``(pair,
    weight)`` tuples or lists, a pair being a ``Doubleton`` or a 2-item tuple
    or list of labels; entries naming one pair must agree, and neither
    argument is a ``str``.  Instances are immutable once handed out; only a
    fresh ``_copy`` is written (``_adjoin``).  The vertex index (sorted labels
    to 0..n-1) and the common denominator ``_scale`` of the weights are built
    with the instance; the n x n distance table (``None`` between components)
    and every vertex's max-plus envelope row, both ints times ``_scale``, are
    built lazily and cached.  ``_floppy`` holds the ``FloppyReport`` once
    ``is_floppy`` has swept the metric.  A copy shares the vertex index and
    owns its edge dict, the table and rows of a connected parent, and no report.
    """

    __slots__ = ("_vertices", "_edges", "_index", "_scale", "_dist", "_rows", "_floppy")

    def __init__(self, vertices, edges):
        if any(isinstance(arg, str) or not isinstance(arg, Iterable) for arg in (vertices, edges)):
            raise MalformedInputError(f"vertices and edges must be non-str collections: {vertices!r:.20}, {edges!r:.20}")
        labels = list(vertices)
        try:
            vset = frozenset(labels)
            labels.sort()
        except TypeError:
            raise MalformedInputError("vertex labels must be hashable and sort together (e.g. all strings)") from None
        if not vset:
            raise MalformedInputError("a metric needs at least one vertex")
        if len(vset) != len(labels):
            raise MalformedInputError("vertex labels must be pairwise distinct")
        emap = {}
        for entry in edges.items() if isinstance(edges, Mapping) else edges:
            if not (isinstance(entry, (tuple, list)) and len(entry) == 2):
                raise MalformedInputError(f"edge entry must be a (pair, weight) tuple or list, got {entry!r}")
            d, raw = entry
            if not isinstance(d, Doubleton):
                if not (isinstance(d, (tuple, list)) and len(d) == 2):
                    raise MalformedInputError(f"edge pair must be a Doubleton or a (u, v) tuple or list, got {d!r}")
                d = Doubleton(*d)
            w = _admit_edge(vset, d, raw)
            if (kept := emap.setdefault(d, w)) is not w and kept != w:
                raise MalformedInputError(f"duplicate edge {d} with conflicting weights")
        self._vertices = vset
        self._edges = emap
        self._index = {v: i for i, v in enumerate(labels)}
        self._scale = math.lcm(*(w.denominator for w in emap.values()))
        self._dist = None
        self._rows = None
        self._floppy = None

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

    def to_json(self) -> dict:
        """The metric document: sorted vertices, and edges sorted by pair with weights as reduced strings."""
        edges = sorted(self._edges.items(), key=lambda e: (e[0].a, e[0].b))
        return {"vertices": sorted(self._vertices), "edges": [{"u": d.a, "v": d.b, "w": str(w)} for d, w in edges]}

    def is_edge(self, d: Doubleton) -> bool:
        return _pair(d) in self._edges

    def weight(self, d: Doubleton) -> Fraction:
        return self._edges[_pair(d)]

    def non_edges(self):
        """Sorted list of vertex pairs that carry no edge."""
        labels = list(self._index)
        return [Doubleton(labels[i], labels[j]) for i, j in _non_edge_indexes(self)]

    def with_edge(self, d: Doubleton, w) -> "PartialMetric":
        """New metric with one extra edge, a ``_copy`` then ``_adjoin``; a reweighted edge gives a cold metric."""
        if _pair(d) in self._edges:
            return PartialMetric(self._vertices, {**self._edges, d: w})
        out = self._copy()
        out._adjoin(d, w)
        return out

    def _copy(self) -> "PartialMetric":
        """A copy with its own edge dict, no report, and its own table and rows if both are cached and connected."""
        out = PartialMetric.__new__(PartialMetric)
        out._vertices = self._vertices
        out._edges = dict(self._edges)
        out._index = self._index
        out._scale = self._scale
        out._dist = out._rows = None
        # row 0 has no None exactly when each b has an edge ab from 0's component: connected, n >= 2
        if self._rows is not None and None not in self._rows[0]:
            out._dist, out._rows = [list(r) for r in self._dist], [list(r) for r in self._rows]
        out._floppy = None
        return out

    def _adjoin(self, d: Doubleton, w):
        """Write ``d``, a missing pair, at weight ``w`` into this ``_copy``; relax its carried table and rows in place."""
        w = _admit_edge(self._vertices, d, w)
        self._edges[d] = w
        scale = math.lcm(self._scale, w.denominator)
        k, self._scale = scale // self._scale, scale
        if self._dist is not None:
            if k != 1:
                self._dist, self._rows = _lifted(self._dist, k), _lifted(self._rows, k)
            ws = w.numerator * (scale // w.denominator)
            _relax_through(self._dist, self._rows, self._index[d.a], self._index[d.b], ws)

    def _table(self):
        """The n x n distance table as ints times ``self._scale``, indexed through ``self._index``."""
        if self._dist is None:
            self._dist = _all_pairs_shortest(self._index, self._edges, self._scale)
        return self._dist

    def _at(self, v) -> int:
        """Table index of vertex ``v``; ``UnknownVertexError`` if the metric has no such vertex."""
        try:
            return self._index[v]
        except KeyError:
            raise UnknownVertexError(f"unknown vertex {v!r}") from None

    def _denominator(self) -> int:
        """L, the common denominator of every read below."""
        return self._scale

    def _hat(self, x, y) -> int:
        """hat(x, y) times L; ``DisconnectedError`` when no chain connects x and y."""
        i, j = self._at(x), self._at(y)
        if (h := self._table()[i][j]) is None:
            raise DisconnectedError(f"no chain connects {x!r} and {y!r}")
        return h

    def _envelope(self, x, y) -> int:
        """check(x, y) times L, 0 when x = y: ``_check`` on the cached envelope row of x and table row of y."""
        i, j = self._at(x), self._at(y)
        return 0 if i == j else _check(_envelope_rows(self)[i], self._table()[j])

    def _dd(self, p, q) -> int:
        """dd(p, q) times L, the cheaper endpoint matching of the ``Doubleton`` p and the pair q, which may also
        be a ``(u, v)`` tuple, as ``verify_step_properties`` passes it; ``doubleton_dist`` admits only a ``Doubleton``.

        This read runs once per vertex pair in ``verify_step_properties`` and once per earlier move in the
        game's adversary, so it looks the four labels up in one ``try`` and takes the least matching in a loop,
        without a list.
        """
        (c, d), index = q, self._index
        try:
            i, j, k, l = index[p.a], index[p.b], index[c], index[d]
        except KeyError as exc:
            raise UnknownVertexError(f"unknown vertex {exc.args[0]!r}") from None
        t = self._table()
        ti, tj, best = t[i], t[j], None
        for h, g in ((ti[k], tj[l]), (ti[l], tj[k])):
            if h is not None and g is not None and (best is None or h + g < best):
                best = h + g
        if best is None:
            raise DisconnectedError(f"pairs {p} and {Doubleton(c, d)} span disconnected components")
        return best

    def _pairs(self):
        """``(u, v, hat, check)`` at every vertex pair uv in sorted order, hat and check times L; the first pair
        that no chain connects raises ``shortest_path``'s ``DisconnectedError``."""
        t, rows = self._table(), _envelope_rows(self)
        for (i, u), (j, v) in combinations(enumerate(self._index), 2):
            if (h := t[i][j]) is None:
                raise DisconnectedError(f"no chain connects {u!r} and {v!r}")
            yield u, v, h, _check(rows[i], t[j])

    def _gaps(self) -> dict:
        """``hat - check`` as a Fraction at every non-edge, keyed by pair in sorted order, from one ``_sweep``."""
        labels = list(self._index)
        return {Doubleton(labels[i], labels[j]): Fraction(h - c, self._scale) for i, j, h, c in _sweep(self)}


def _admit_edge(vertices, d: Doubleton, raw) -> Fraction:
    """Weight of edge ``d`` once its endpoints and its sign are checked."""
    if d.a not in vertices or d.b not in vertices:
        raise MalformedInputError(f"edge {d} has an endpoint outside the vertex set")
    w = as_rational(raw)
    if w.numerator < 0:
        raise MalformedInputError(f"edge {d} has negative weight {w}")
    return w


def _all_pairs_shortest(index, edges, scale):
    """Floyd-Warshall on integers scaled by ``scale``, a common denominator of the weights.

    Exact: every chain weight times ``scale`` is an integer.  Unreachable
    pairs are ``None``.  The table is symmetric, so each round relaxes only
    the pairs i < j and mirrors every write, half the inner loop.  Round k
    leaves row and column k as they are (their relaxations add hat(k, k) = 0),
    so each pair reads its two round-k entries unchanged in either orientation.
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
        for i in range(n - 1):
            di = dist[i]
            dik = di[k]
            if dik == big:
                continue
            for j in range(i + 1, n):
                alt = dik + dk[j]
                if alt < di[j]:
                    di[j] = dist[j][i] = alt
    return [[None if s == big else s for s in row] for row in dist]


def _relax_through(dist, rows, i: int, j: int, w: int):
    """Relax the distance table and envelope rows, in place, through a new edge ``ij`` of weight ``w``.

    ``w`` and the lists are ints times the metric's common denominator, which
    ``_adjoin`` has rescaled them to, and none is ``None``: the metric is connected.

    A shortest chain uses the new edge at most once, so
    hat'(u, v) = min(hat(u, v), hat(u, i) + w + hat(j, v), hat(u, j) + w + hat(i, v)),
    and in max-plus form the row of u becomes
    R'_u = max(R_u, R_j - (hat(u, i) + w), R_i - (hat(u, j) + w)) plus the new
    edge's two orientations, R'_u[j] >= w - hat'(u, i) and R'_u[i] >= w - hat'(u, j).
    Only the pairs the new edge can shorten are touched.  One O(n) scan of
    rows i and j builds the affected sets

        S_i = {v : hat(j, v) + w < hat(i, v)},  S_j = {v : hat(i, v) + w < hat(j, v)},

    which are disjoint because ``w >= 0``.  The same scan knows
    hat'(v, i) = min(hat(v, i), hat(v, j) + w) and its mirror for j, so it
    also writes the new edge's two orientations into every envelope row v.
    The table is symmetric, so the rows whose chains route through i are
    exactly S_j, and in those rows only the columns in S_i can drop: for v
    outside S_i, hat(u, i) + w + hat(j, v) >= hat(u, i) + hat(i, v) >= hat(u, v).
    So the update is the block S_j x S_i and its mirror S_i x S_j.

    For the envelope rows, R_u[b] >= R_i[b] - hat(u, i) for every u (an edge
    ab seen from u costs at most hat(u, i) more than from i).  So a row u in
    S_j can rise only at the entries b with R_j[b] - w > R_i[b], and a row in
    S_i only where R_i[b] - w > R_j[b]; only those b are scanned.  The two
    sets of entries are disjoint, as ``w >= 0``, so one scan of rows i and j
    finds both.  The cost is two O(n) scans plus the affected block, instead
    of O((|S_i| + |S_j|) * n).

    In place, the table block reads no write: i is not in S_i (that needs
    hat(j, i) + w < 0), nor j in S_j, so the block S_j x S_i writes neither
    column i nor row j, the only entries it reads outside itself, and its
    mirror neither column j nor row i.  The envelope rows only rise, each
    by a max with a lower bound on its final value, so their writes may
    come in any order; the lifts read rows i and j after the scan has
    written the new edge into them (row u in S_j below; S_i is the mirror).
    A lift term stays a lower bound: R'_u[b] >= R'_j[b] - hat'(u, j) and
    hat'(u, j) <= hat(u, i) + w.  A term R_j[b] - w - hat(u, i) that the
    lift now skips, because R_j[b] - w <= R'_j[b] - w <= R'_i[b], is
    already dominated.  Where R'_i[b] = R_i[b], R_i[b] - hat(u, i) <= R_u[b];
    else R'_i[b] is a new-edge term, at b = j it is w, and
    w - hat(u, i) <= w - hat'(u, i), at b = i it is w - hat'(i, j), and
    w - hat'(i, j) - hat(u, i) <= w - hat'(u, j): terms the scan wrote into row u.
    """
    s_i, s_j = [], []
    for v, (hi, hj, r) in enumerate(zip(dist[i], dist[j], rows)):
        if hj + w < hi:
            s_i.append(v)
            hi = hj + w
        elif hi + w < hj:
            s_j.append(v)
            hj = hi + w
        if w - hi > r[j]:
            r[j] = w - hi
        if w - hj > r[i]:
            r[i] = w - hj
    sides = ((s_j, s_i, i, j), (s_i, s_j, j, i))  # (rows u, columns v, near, far): u -> near -> far -> v
    for us, vs, near, far in sides:
        hfar = dist[far]
        for u in us:
            row = dist[u]
            via = row[near] + w
            for v in vs:
                alt = via + hfar[v]
                if alt < row[v]:
                    row[v] = alt
    lifts = [], []  # (b, R'_far[b] - w) for the rows of each side
    for b, (f, g) in enumerate(zip(rows[j], rows[i])):
        if f - w > g:
            lifts[0].append((b, f - w))
        elif g - w > f:
            lifts[1].append((b, g - w))
    for (us, _, near, _), lift in zip(sides, lifts):
        for u in us:
            row, hat = rows[u], dist[u][near]
            for b, f in lift:
                if f - hat > row[b]:
                    row[b] = f - hat


def _lifted(rows, k: int):
    """Table or envelope rows of a connected metric times ``k``, as new lists."""
    return [[v * k for v in r] for r in rows]


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
        for hx in m._table():
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

    ``row`` is the envelope row of x and ``hy`` the table row of y; a
    ``None`` in either is -inf and contributes nothing.
    """
    best = 0
    for r, h in zip(row, hy):
        if r is not None and h is not None and r - h > best:
            best = r - h
    return best


def _non_edge_indexes(m: PartialMetric) -> list:
    """``(i, j)``, i < j, for every non-edge in sorted order, as table indexes: no ``Doubleton`` is built."""
    index = m._index
    later = [set() for _ in index]  # later[i]: the j > i with an edge ij (a Doubleton's a sorts first)
    for d in m._edges:
        later[index[d.a]].add(index[d.b])
    n = len(later)
    return [(i, j) for i, skip in enumerate(later) for j in range(i + 1, n) if j not in skip]


def _sweep(m: PartialMetric):
    """``(i, j, hat, check)`` at every non-edge ij in sorted order, hat and check as ints times ``m._scale``.

    The cached table and rows serve every pair; a caller builds a ``Doubleton`` only for a pair it reports.
    """
    t, rows = m._table(), _envelope_rows(m)
    for i, j in _non_edge_indexes(m):
        yield i, j, t[i][j], _check(rows[i], t[j])


def _metric(m) -> PartialMetric:
    """``m``, once it is checked to be a metric: the first check of every public entry point."""
    if not isinstance(m, PartialMetric):
        raise MalformedInputError(f"expected a PartialMetric, got {type(m).__name__}")
    return m


def _pair(d) -> Doubleton:
    """``d``, once it is checked to be a ``Doubleton``: a ``str``, tuple or list is not read as one."""
    if not isinstance(d, Doubleton):
        raise MalformedInputError(f"expected a Doubleton pair, got {type(d).__name__}")
    return d


def _count(n, least: int, what: str, error=MalformedInputError) -> int:
    """``n`` once it is an int, not a bool, of at least ``least``; a smaller int raises ``error``."""
    if not isinstance(n, int) or isinstance(n, bool):
        raise MalformedInputError(f"{what} must be an int, got {n!r}")
    if n < least:
        raise error(f"{what} must be at least {least}, got {n}")
    return n


def shortest_path(m: PartialMetric, x: str, y: str) -> Fraction:
    """Minimum chain weight between two vertices (the induced pseudometric)."""
    return Fraction(_metric(m)._hat(x, y), m._scale)


def shortest_chain(m: PartialMetric, x: str, y: str):
    """One vertex chain realizing shortest_path(m, x, y) (Dijkstra with parents)."""
    if _metric(m)._at(x) == m._at(y):
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
    return Fraction(_metric(m)._dd(_pair(p), _pair(q)), m._scale)


def lower_envelope(m: PartialMetric, x: str, y: str) -> Fraction:
    """Largest lower bound that every extension must respect at the pair xy.

    Max over edges ab of weight(ab) - doubleton_dist(ab, xy), clamped at 0.
    Splitting the doubleton distance into its two orientations gives the
    max-plus form ``max over b of R_x[b] - hat(b, y)`` with the cached row
    R_x of ``_envelope_rows``, so each pair costs O(n) once the rows exist.
    The scan is ``_check`` on the cached row and table row y, ints over the
    metric's common denominator.  Whole-metric queries use ``_sweep`` instead.
    """
    return Fraction(_metric(m)._envelope(x, y), m._scale)


def _jsonable(v):
    """The one JSON rule: Fraction -> reduced string, Doubleton -> [a, b], record or metric -> its to_json(),
    error -> its code, message and details, frozenset -> sorted list, list or tuple -> list, dict -> str keys."""
    if isinstance(v, (str, int)) or v is None:  # as they are, and without an ABC check for Fraction (bool is an int)
        return v
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, Doubleton):
        return [v.a, v.b]
    if isinstance(v, (_Record, PartialMetric)):
        return v.to_json()
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    if isinstance(v, frozenset):
        return [_jsonable(x) for x in sorted(v)]
    if isinstance(v, dict):
        return {str(k): _jsonable(x) for k, x in v.items()}
    if isinstance(v, MetricError):
        return {"error": v.code, "message": str(v), "details": _jsonable(v.details)}
    return v


class _Record:
    """Base of the result dataclasses: ``to_json`` writes the fields in declaration order."""

    def to_json(self):
        return {name: _jsonable(getattr(self, name)) for name in _field_names(type(self))}


@functools.cache
def _field_names(cls) -> tuple:
    return tuple(f.name for f in fields(cls))


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
    t, index, scale = _metric(m)._table(), m._index, m._scale
    n = len(t)
    connected = None not in t[0]
    pseudometric = all(  # _admit_edge checked the endpoints
        t[index[d.a]][index[d.b]] == w.numerator * (scale // w.denominator) for d, w in m.edges.items()
    )
    metric = pseudometric and all(w > 0 for w in m.edges.values())
    full = len(m.edges) == n * (n - 1) // 2
    return ValidationReport(connected, pseudometric, metric, full)


def _require_graph_metric(m: PartialMetric):
    rep = validate(m)
    if not rep.connected:
        raise NotGraphMetricError("graph is not connected")
    if not rep.graph_metric:
        raise NotGraphMetricError(
            "not a graph metric"
            + ("" if rep.graph_pseudometric else " (weights violate the polygonal inequality)")
        )


@dataclass(frozen=True)
class FloppyReport(_Record):
    floppy: bool
    worst_pair: Doubleton | None
    gap: Fraction | None

    def to_json(self):
        """The fields, without ``worst_pair`` and ``gap`` when there is no worst pair."""
        return {"floppy": self.floppy} if self.worst_pair is None else super().to_json()


def is_floppy(m: PartialMetric) -> FloppyReport:
    """Check strict envelope-below-distance at every non-edge, in one integer sweep.

    The worst pair is the first minimal gap in sorted non-edge order.  Full
    metrics are floppy vacuously and report no worst pair.  The graph-metric
    grade is checked on every call; the sweep runs once per metric, whose
    report is kept on the instance, so extending one metric at many pairs or
    values proves its floppiness once.
    """
    _require_graph_metric(m)
    if m._floppy is not None:
        return m._floppy
    worst = None
    worst_gap = None
    for i, j, h, c in _sweep(m):
        if worst_gap is None or h - c < worst_gap:
            worst, worst_gap = (i, j), h - c
    if worst is None:
        m._floppy = FloppyReport(True, None, None)
    else:
        labels = list(m._index)
        d = Doubleton(labels[worst[0]], labels[worst[1]])
        m._floppy = FloppyReport(worst_gap > 0, d, Fraction(worst_gap, m._scale))
    return m._floppy


def minimal_floppy_extension(m: PartialMetric) -> PartialMetric:
    """Adjoin every forced pair xy (check(x, y) == hat(x, y)) at weight hat(x, y), in one round.

    One round settles it.  In a graph metric h = hat(x, y) > 0, so a forced
    pair has h = check(x, y) = w(ab) - dd(ab, xy) for some edge ab, where dd
    is the doubleton distance read from hat.  Adjoining xy at h changes no
    hat, since h is already the shortest chain, and so no dd either.  It
    changes no check, because the triangle inequality of dd bounds the new
    edge's term at any pair uv:
    h - dd(xy, uv) = w(ab) - dd(ab, xy) - dd(xy, uv) <= w(ab) - dd(ab, uv) <= check(u, v).
    So every remaining non-edge keeps its hat and check: the pairs one sweep
    finds forced are adjoined together, and none is forced afterwards.
    """
    _require_graph_metric(m)
    forced = [(i, j, h) for i, j, h, c in _sweep(m) if c == h]
    out = m._copy() if forced else m
    labels = list(m._index)
    for i, j, h in forced:
        out._adjoin(Doubleton(labels[i], labels[j]), Fraction(h, m._scale))
    return out
