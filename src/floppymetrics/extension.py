"""One-step and full extensions of floppy graph metrics.

``one_step_extend`` adjoins a single non-edge.  In *theorem* mode the chosen
value must lie in the admissible interval ``[lo, hi)`` with
``lo = envelope/3 + 2*distance/3`` and ``hi = distance``; the result is then
again a floppy graph metric.  In *proposition* mode any value between the
envelope and the distance (inclusive) is accepted and the result is only
guaranteed to be a graph pseudometric.

``full_extend`` drives one-step extension over every missing pair and records
the interval and chosen value of each step.  Its maxgap order keeps a lazy
heap of gaps seeded by one integer sweep, and re-scores only the pairs that
reach the top (``_next_pair``).  ``verify_step_properties`` reads both
metrics once as ints over the extended metric's denominator and evaluates
the five statements on them.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

from .core import (
    Doubleton,
    PartialMetric,
    _Record,
    _check,
    _jsonable,
    _scaled,
    _scaled_row,
    _sweep,
    as_rational,
    doubleton_dist,
    is_floppy,
    lower_envelope,
    shortest_path,
    validate,
)
from .errors import (
    AlreadyEdgeError,
    ChoiceSetMissesIntervalError,
    MalformedInputError,
    MissingChoiceSetError,
    NotFloppyError,
    ROutOfRangeError,
)

THEOREM = "theorem"
PROPOSITION = "proposition"


@dataclass(frozen=True)
class AdmissibleInterval(_Record):
    """Value range [lo, hi) that keeps a one-step extension floppy."""

    lo: Fraction
    hi: Fraction

    def contains(self, r: Fraction) -> bool:
        return self.lo <= r < self.hi

    @property
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2


def _require_floppy(m: PartialMetric):
    rep = is_floppy(m)
    if not rep.floppy:
        raise NotFloppyError(
            f"metric is not floppy: pair {rep.worst_pair} has gap {rep.gap}",
            pair=rep.worst_pair,
            gap=rep.gap,
        )


def _interval_from(h: Fraction, c: Fraction) -> AdmissibleInterval:
    """The one place the theorem's bounds ``[c/3 + 2h/3, h)`` are computed."""
    return AdmissibleInterval(c / 3 + 2 * h / 3, h)


def _interval(m: PartialMetric, xy: Doubleton) -> AdmissibleInterval:
    return _interval_from(shortest_path(m, xy.a, xy.b), lower_envelope(m, xy.a, xy.b))


def _require_in_closed_range(m: PartialMetric, xy: Doubleton, r: Fraction):
    """Proposition mode's range ``[check, hat]`` at ``xy``; returns ``(hat, check)``."""
    h = shortest_path(m, xy.a, xy.b)
    c = lower_envelope(m, xy.a, xy.b)
    if r < c:
        raise ROutOfRangeError(f"r={r} below lower envelope {c}", bound="lo", lo=c, hi=h)
    if r > h:
        raise ROutOfRangeError(f"r={r} above shortest-path distance {h}", bound="hi", lo=c, hi=h)
    return h, c


def _require_in_interval(r: Fraction, interval: AdmissibleInterval):
    lo, h = interval.lo, interval.hi
    if r < lo:
        raise ROutOfRangeError(f"r={r} below admissible lower bound {lo}", bound="lo", lo=lo, hi=h)
    if r >= h:
        raise ROutOfRangeError(f"r={r} not below admissible upper bound {h}", bound="hi", lo=lo, hi=h)


def admissible_interval(m: PartialMetric, xy: Doubleton, *, assume_floppy=False) -> AdmissibleInterval:
    if m.is_edge(xy):
        raise AlreadyEdgeError(f"{xy} is already an edge")
    if not assume_floppy:
        _require_floppy(m)
    return _interval(m, xy)


def one_step_extend(
    m: PartialMetric,
    xy: Doubleton,
    r,
    mode: str = THEOREM,
    *,
    assume_floppy=False,
    verify=True,
) -> PartialMetric:
    """Adjoin the pair ``xy`` at value ``r``; see module docstring for modes."""
    if mode not in (THEOREM, PROPOSITION):
        raise MalformedInputError(f"unknown mode {mode!r}")
    if m.is_edge(xy):
        raise AlreadyEdgeError(f"{xy} is already an edge")
    if not assume_floppy:
        _require_floppy(m)
    r = as_rational(r)
    if mode == THEOREM:
        _require_in_interval(r, _interval(m, xy))
    else:
        _require_in_closed_range(m, xy, r)
    extended = m.with_edge(xy, r)
    if verify:
        if mode == THEOREM:
            rep = is_floppy(extended)
            if not rep.floppy:
                raise AssertionError(f"one-step extension lost floppiness at {rep.worst_pair}")
        else:
            if not validate(extended).graph_pseudometric:
                raise AssertionError("one-step extension broke the polygonal inequality")
    return extended


# ---------------------------------------------------------------------------
# Proposition-style property checking for a single extension step.

@dataclass
class StatementResult:
    applicable: int = 0
    failures: list = field(default_factory=list)

    @property
    def holds(self) -> bool:
        return not self.failures


@dataclass
class StepPropertyReport(_Record):
    pair: Doubleton
    r: Fraction
    statements: dict

    @property
    def ok(self) -> bool:
        return all(s.holds for s in self.statements.values())

    def to_json(self):
        """The fields with ``ok`` after ``r``; each statement as ``applicable_pairs``, ``holds``, ``failures``."""
        statements = {k: {"applicable_pairs": s.applicable, "holds": s.holds, "failures": s.failures}
                      for k, s in self.statements.items()}
        return _jsonable({"pair": self.pair, "r": self.r, "ok": self.ok, "statements": statements})


def verify_step_properties(m: PartialMetric, xy: Doubleton, r) -> StepPropertyReport:
    """Evaluate the five step-extension properties over every vertex pair.

    The guard of each conditional statement is evaluated exactly; pairs where
    a guard fails are simply not counted as applicable.  Both metrics are
    read once, as ints at the extended metric's common denominator ``L'``
    (the old table and rows are multiplied by ``L'/L``); every statement is
    linear in its values, so the integer comparisons are the exact ones.
    """
    if m.is_edge(xy):
        raise AlreadyEdgeError(f"{xy} is already an edge")
    r = as_rational(r)
    h_xy, c_xy = _require_in_closed_range(m, xy, r)
    strong_lower = _interval_from(h_xy, c_xy).lo <= r  # statement (5) hypothesis
    extended = m.with_edge(xy, r)

    scale = extended._scale
    old_t, old_rows = _scaled(m, scale)
    new_t, new_rows = _scaled(extended, scale)
    rs, h_xy, c_xy = _scaled_row((r, h_xy, c_xy), scale)
    tx, ty = old_t[m._index[xy.a]], old_t[m._index[xy.b]]

    stmts = {k: StatementResult() for k in (1, 2, 3, 4, 5)}
    for (i, u), (j, v) in combinations(enumerate(m._index), 2):
        h_old = old_t[i][j]
        sums = [a + b for a, b in ((tx[i], ty[j]), (tx[j], ty[i])) if a is not None and b is not None]
        if h_old is None or not sums:  # the per-pair API raises the DisconnectedError, in its order
            shortest_path(m, u, v)
            doubleton_dist(m, xy, Doubleton(u, v))
        dd = min(sums)
        c_old = _check(old_rows[i], old_t[j])
        h_new = new_t[i][j]
        c_new = _check(new_rows[i], new_t[j])
        stmts[1].applicable += 1
        if not (h_new <= h_old and c_new >= max(c_old, rs - dd)):
            stmts[1].failures.append((u, v))

        if h_old != h_new:
            stmts[2].applicable += 1
            if not (h_old - (h_xy - rs) <= h_new == rs + dd):
                stmts[2].failures.append((u, v))
            stmts[3].applicable += 1
            if not (h_new - c_old >= rs - c_xy):
                stmts[3].failures.append((u, v))

        if c_old != c_new != rs - dd and c_new > h_xy - 2 * rs:
            stmts[4].applicable += 1
            if not (c_new - c_old <= h_xy - rs and h_old - c_new >= rs - c_xy):
                stmts[4].failures.append((u, v))

        if strong_lower:
            stmts[5].applicable += 1
            bound = min(h_old - c_old, h_xy - rs, 2 * dd)
            if not (h_new - c_new >= bound):
                stmts[5].failures.append((u, v))
    return StepPropertyReport(xy, r, stmts)


# ---------------------------------------------------------------------------
# Full extension driver.

@dataclass(frozen=True)
class ExtensionStep(_Record):
    pair: Doubleton
    interval: AdmissibleInterval
    value: Fraction


@dataclass
class ExtensionTrace(_Record):
    steps: list
    result: PartialMetric


def _seed_of(spec: str) -> int:
    """The SEED of a ``random:SEED`` option."""
    try:
        return int(spec.split(":", 1)[1])
    except ValueError:
        raise MalformedInputError(f"{spec!r} needs an integer seed, as in 'random:0'") from None


def _parse_order(order):
    if order in ("lex", "maxgap"):
        return order, None
    if isinstance(order, str) and order.startswith("random:"):
        return "random", random.Random(_seed_of(order))
    raise MalformedInputError(f"unknown order policy {order!r}")


def _gap_heap(m: PartialMetric):
    """Heap of ``(check - hat, pair)`` over every non-edge, from one sweep: the largest gap is on top."""
    heap = [(Fraction(c - h, m._scale), d) for d, h, c in _sweep(m)]
    heapq.heapify(heap)
    return heap


def _next_pair(policy, rng, current, remaining):
    """Take the next pair to adjoin out of ``remaining``; returns ``(pair, interval)``.

    For lex and random, ``remaining`` is the sorted list of missing pairs.
    For maxgap it is a ``_gap_heap`` whose keys may be stale: a step never
    raises hat or lowers check (statement (1)), so no gap grows and a stale
    key is a lower bound on the fresh one.  The top is re-scored on
    ``current`` and taken once its fresh key is still at most the next key;
    otherwise it goes back.  This picks exactly the largest gap, ties going
    to the lexicographically first pair (lazy greedy, Minoux 1978).  The
    interval is built from the hat and check of that last re-score.
    """
    if policy != "maxgap":
        d = remaining.pop(0 if policy == "lex" else rng.randrange(len(remaining)))
        return d, _interval(current, d)
    _, d = heapq.heappop(remaining)
    while True:
        h, c = shortest_path(current, d.a, d.b), lower_envelope(current, d.a, d.b)
        fresh = (c - h, d)
        if not remaining or fresh <= remaining[0]:
            return d, _interval_from(h, c)
        _, d = heapq.heapreplace(remaining, fresh)


def _bisect_unused(lo, hi, used):
    """The midpoint of ``(lo, hi)``, bisected toward ``hi`` until it is unused."""
    c = (lo + hi) / 2
    while c in used:
        c = (c + hi) / 2
    return c


def _choose_from_set(choice_set, interval, used):
    """Element of the choice set inside [lo, hi), unused if possible."""
    lo, hi = interval.lo, interval.hi
    in_range = sorted(p for p in choice_set.points if lo <= p < hi)
    for p in in_range:
        if p not in used:
            return p
    for ilo, ihi in choice_set.intervals:
        top = hi if ihi is None else min(hi, ihi)
        bottom = max(ilo, lo)
        if top <= bottom:
            continue
        return _bisect_unused(bottom, top, used)
    if in_range:
        return in_range[0]  # dense-set injectivity not achievable with points only
    raise ChoiceSetMissesIntervalError(
        f"choice set misses admissible interval [{lo}, {hi})", lo=lo, hi=hi
    )


def full_extend(m: PartialMetric, order="lex", choice="midpoint") -> ExtensionTrace:
    """Extend to a full metric, one admissible step per missing pair.

    ``order``: "lex", "maxgap", or "random:SEED".  ``choice``: "midpoint" or a
    mapping from Doubleton to a game ChoiceSet; with per-pair choice sets the
    chosen values are kept pairwise distinct (bisecting toward the upper end
    on collision).
    """
    _require_floppy(m)
    policy, rng = _parse_order(order)
    current = m
    remaining = _gap_heap(m) if policy == "maxgap" else m.non_edges()
    used = set()
    steps = []
    while remaining:
        d, interval = _next_pair(policy, rng, current, remaining)
        if choice == "midpoint":
            value = _bisect_unused(interval.lo, interval.hi, used)
        else:
            try:
                cs = choice[d]
            except KeyError:
                raise MissingChoiceSetError(f"no choice set supplied for {d}") from None
            value = _choose_from_set(cs, interval, used)
        used.add(value)
        _require_in_interval(value, interval)
        current = current.with_edge(d, value)
        steps.append(ExtensionStep(d, interval, value))
    return ExtensionTrace(steps, current)
