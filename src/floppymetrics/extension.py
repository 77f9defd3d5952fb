"""One-step and full extensions of floppy graph metrics.

``one_step_extend`` adjoins a single non-edge.  In *theorem* mode the chosen
value must lie in the admissible interval ``[lo, hi)`` with
``lo = envelope/3 + 2*distance/3`` and ``hi = distance``; the result is then
again a floppy graph metric.  In *proposition* mode any value between the
envelope and the distance (inclusive) is accepted and the result is only
guaranteed to be a graph pseudometric.  The input is checked once and the
result not at all: the theorem and the proposition guarantee it.

Every step value is built from ints.  ``_hat_check`` reads a pair's hat and
check through the metric's own reads, as ints over their L; ``_steps``
yields each missing pair with them, and ``_interval_from`` is the one place
the theorem's bounds are written, each as one Fraction.  ``full_extend``
adjoins the steps, one per missing pair, and records each interval and
value; its maxgap order keeps a lazy heap of the metric's ``_gaps``,
re-scored through ``_hat_check``.  A midpoint collision is bisected by
``_bisect_unused``, one Fraction per probe.  ``verify_step_properties``
reads xy once, through ``_hat_check``, for its range check and the
statement (5) hypothesis, and evaluates the five statements on the ints of
``_step_pairs``, one read of every pair in both metrics over the
extension's L, which rescans the extension's envelope only where the new
edge can change it.  Every
entry point first admits its metric and its pair by ``core``'s one rule for
each.  A ``ChoiceSet``, the paper's F_e and the game's offer, gives
``full_extend`` a pair's value; ``_choice_set`` is the one lookup of a
missing pair's set, for ``full_extend`` and the game's saboteur.
"""

from __future__ import annotations

import heapq
import math
import random
from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction

from .core import (
    Doubleton,
    PartialMetric,
    _Record,
    _jsonable,
    _metric,
    _pair,
    as_rational,
    is_floppy,
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


def _hat_check(m: PartialMetric, xy: Doubleton):
    """``(hat(x, y), check(x, y), L)`` as ints, the first two times ``L``, with ``shortest_path``'s errors."""
    return m._hat(xy.a, xy.b), m._envelope(xy.a, xy.b), m._denominator()


def _interval_from(h: int, c: int, scale: int) -> AdmissibleInterval:
    """The one place the theorem's bounds ``[c/3 + 2h/3, h)`` are computed, for the ints hat and check over
    ``scale`` of ``_hat_check``; each bound is built as one Fraction."""
    return AdmissibleInterval(Fraction(c + 2 * h, 3 * scale), Fraction(h, scale))


def _interval(m: PartialMetric, xy: Doubleton) -> AdmissibleInterval:
    return _interval_from(*_hat_check(m, xy))


def _require_in_closed_range(r: Fraction, h: int, c: int, scale: int):
    """Proposition mode's range ``[check, hat]``, for the ints hat and check over ``scale`` of ``_hat_check``."""
    c, h = Fraction(c, scale), Fraction(h, scale)
    if r < c:
        raise ROutOfRangeError(f"r={r} below lower envelope {c}", bound="lo", lo=c, hi=h)
    if r > h:
        raise ROutOfRangeError(f"r={r} above shortest-path distance {h}", bound="hi", lo=c, hi=h)


def _require_in_interval(r: Fraction, interval: AdmissibleInterval):
    lo, h = interval.lo, interval.hi
    if r < lo:
        raise ROutOfRangeError(f"r={r} below admissible lower bound {lo}", bound="lo", lo=lo, hi=h)
    if r >= h:
        raise ROutOfRangeError(f"r={r} not below admissible upper bound {h}", bound="hi", lo=lo, hi=h)


def _require_arguments(m: PartialMetric, xy: Doubleton):
    """Every entry point's first check: a metric and a pair."""
    _metric(m)
    _pair(xy)


def _require_extendable(m: PartialMetric, xy: Doubleton):
    """The precondition of both entry points: ``xy`` is not an edge, then ``m`` is floppy."""
    if m.is_edge(xy):
        raise AlreadyEdgeError(f"{xy} is already an edge")
    _require_floppy(m)


def admissible_interval(m: PartialMetric, xy: Doubleton) -> AdmissibleInterval:
    _require_arguments(m, xy)
    _require_extendable(m, xy)
    return _interval(m, xy)


def one_step_extend(m: PartialMetric, xy: Doubleton, r, mode: str = THEOREM) -> PartialMetric:
    """Adjoin the pair ``xy`` at value ``r``; see module docstring for modes.

    Checks the arguments, the mode, ``_require_extendable``, then ``r`` and
    its range; the result is not checked (``test_extension.py::TestStepOracle`` checks it).
    """
    _require_arguments(m, xy)
    if mode not in (THEOREM, PROPOSITION):
        raise MalformedInputError(f"unknown mode {mode!r}")
    _require_extendable(m, xy)
    r = as_rational(r)
    if mode == THEOREM:
        _require_in_interval(r, _interval(m, xy))
    else:
        _require_in_closed_range(r, *_hat_check(m, xy))
    return m.with_edge(xy, r)


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
    a guard fails are simply not counted as applicable.  The values are ints
    over the extension's common denominator L', read in one pass by
    ``m._step_pairs``: hat, check and dd of ``m`` multiplied by k = L'/L,
    which is exact, since max(0, max_b k(R[b] - h[b])) = k * max(0, max_b (R[b] - h[b])),
    and hat and check of the extension, whose envelope is rescanned only at
    the pairs that meet the vertices the new edge brings closer to x or y.
    Every statement is linear in them, so the integer comparisons are the
    exact ones.  xy's hat and check are read once, through ``_hat_check``, for
    the range check, the statement (5) hypothesis and the statements.  The
    first pair with no distance, or no doubleton distance to xy, raises the
    per-pair API's ``DisconnectedError``.
    """
    _require_arguments(m, xy)
    if m.is_edge(xy):
        raise AlreadyEdgeError(f"{xy} is already an edge")
    r = as_rational(r)
    h, c, scale = _hat_check(m, xy)
    _require_in_closed_range(r, h, c, scale)
    strong_lower = _interval_from(h, c, scale).lo <= r  # statement (5) hypothesis
    extended = m.with_edge(xy, r)
    k = extended._denominator() // scale
    rs, h_xy, c_xy = r.numerator * (extended._denominator() // r.denominator), h * k, c * k

    count = count2 = count4 = 0
    fail1, fail2, fail3, fail4, fail5 = [], [], [], [], []
    for u, v, h_old, c_old, h_new, c_new, dd in m._step_pairs(extended, xy):
        count += 1
        if not (h_new <= h_old and c_new >= max(c_old, rs - dd)):
            fail1.append((u, v))

        if h_old != h_new:
            count2 += 1
            if not (h_old - (h_xy - rs) <= h_new == rs + dd):
                fail2.append((u, v))
            if not (h_new - c_old >= rs - c_xy):
                fail3.append((u, v))

        if c_old != c_new != rs - dd and c_new > h_xy - 2 * rs:
            count4 += 1
            if not (c_new - c_old <= h_xy - rs and h_old - c_new >= rs - c_xy):
                fail4.append((u, v))

        if strong_lower and not (h_new - c_new >= min(h_old - c_old, h_xy - rs, 2 * dd)):
            fail5.append((u, v))
    stmts = {1: StatementResult(count, fail1), 2: StatementResult(count2, fail2), 3: StatementResult(count2, fail3),
             4: StatementResult(count4, fail4), 5: StatementResult(count if strong_lower else 0, fail5)}
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


def _digits(text: str, what: str) -> int:
    """``text`` as an int, ASCII digits only: ``int()`` would also read signs, spaces, ``_`` and other digits."""
    if not (text.isascii() and text.isdigit()):
        raise MalformedInputError(f"{what} needs ASCII digits, got {text!r}")
    return as_rational(text).numerator  # which rejects more digits than int() reads


def _seed_of(spec: str) -> int:
    """The SEED of a ``random:SEED`` option."""
    return _digits(spec.split(":", 1)[1], f"the seed of {spec!r}")


def _steps(current: PartialMetric, order):
    """Yield ``(pair, hat, check, L)`` for every missing pair of ``current``, in ``order``, as ``_hat_check`` ints.

    Each pair is read on ``current`` when it is reached, after the caller
    has adjoined every earlier pair.  Lex takes the sorted pairs;
    ``random:SEED`` permutes them, drawing each with ``randrange`` over those
    left.  Maxgap keeps a heap of ``(check - hat, pair)`` from one sweep.  A
    step never raises hat or lowers check (statement (1)), so no gap grows and
    a stale key is a lower bound on the fresh one.  The top is re-scored and
    taken once its fresh key is still at most the next key, else it goes back:
    this is exactly the largest gap, ties going to the first pair in sorted
    order (lazy greedy, Minoux 1978), and its step is that re-score's read.
    """
    if order == "maxgap":
        heap = [(-gap, d) for d, gap in current._gaps().items()]
        heapq.heapify(heap)
        while heap:
            _, d = heapq.heappop(heap)
            while True:
                h, c, scale = _hat_check(current, d)
                fresh = (Fraction(c - h, scale), d)
                if not heap or fresh <= heap[0]:
                    break
                _, d = heapq.heapreplace(heap, fresh)
            yield d, h, c, scale
        return
    pairs = current.non_edges()
    if isinstance(order, str) and order.startswith("random:"):
        rng = random.Random(_seed_of(order))
        pairs = [pairs.pop(rng.randrange(len(pairs))) for _ in range(len(pairs))]
    elif order != "lex":
        raise MalformedInputError(f"unknown order policy {order!r}")
    for d in pairs:
        yield (d, *_hat_check(current, d))


def _bisect_unused(lo: Fraction, hi: Fraction, used) -> Fraction:
    """The midpoint of ``(lo, hi)``, bisected toward ``hi`` until it is unused.

    Probe k is v_k = hi - (hi - lo) / 2^k, the k-th value of the chain
    v = (lo + hi) / 2, v = (v + hi) / 2, built as one Fraction from the
    numerators and denominators of ``lo`` and ``hi``.
    """
    top = hi.numerator * lo.denominator
    span = top - lo.numerator * hi.denominator  # (hi - lo) times den, den = lo.denominator * hi.denominator
    den = lo.denominator * hi.denominator
    k = 1
    v = Fraction((top << k) - span, den << k)
    while v in used:
        k += 1
        v = Fraction((top << k) - span, den << k)
    return v


@dataclass(frozen=True)
class ChoiceSet(_Record):
    """Finite union of rational points and open rational intervals in (0, inf).

    The constructor admits both lists and their values (``as_rational``): ``points`` is a list, tuple, set or
    frozenset, ``intervals`` a list or tuple of 2-item (lo, hi), hi=None meaning unbounded above.
    """

    points: frozenset = frozenset()
    intervals: tuple = ()

    def __post_init__(self):
        if not isinstance(self.points, (list, tuple, set, frozenset)) or not isinstance(self.intervals, (list, tuple)):
            raise MalformedInputError(f"choice-set points must be a list or set and intervals a list: {self!r}")
        pts = frozenset(map(as_rational, self.points))
        object.__setattr__(self, "points", pts)
        ivs = []
        for iv in self.intervals:
            if not (isinstance(iv, (list, tuple)) and len(iv) == 2):
                raise MalformedInputError(f"each choice-set interval must be a pair (lo, hi), got {iv!r}")
            lo, hi = as_rational(iv[0]), None if iv[1] is None else as_rational(iv[1])
            if lo < 0 or (hi is not None and hi <= lo):
                raise MalformedInputError(f"bad interval ({lo}, {hi})")
            ivs.append((lo, hi))
        object.__setattr__(self, "intervals", tuple(ivs))
        if pts and min(pts) <= 0:
            raise MalformedInputError("choice-set points must be positive")
        if not pts and not ivs:
            raise MalformedInputError("choice set must be nonempty")

    @classmethod
    def of_points(cls, *values):
        return cls(points=values)

    @classmethod
    def open_interval(cls, lo, hi=None):
        return cls(intervals=((lo, hi),))

    def contains(self, v: Fraction) -> bool:
        if v in self.points:
            return True
        return any(lo < v and (hi is None or v < hi) for lo, hi in self.intervals)

    def pick(self, lo: Fraction, hi: Fraction, used) -> Fraction:
        """The least point in ``[lo, hi)`` not in ``used``, else ``_bisect_unused`` inside the first
        interval's part in ``[lo, hi)``, else the least point there: points alone may repeat a value."""
        in_range = sorted(p for p in self.points if lo <= p < hi)
        for p in in_range:
            if p not in used:
                return p
        for ilo, ihi in self.intervals:
            top = hi if ihi is None else min(hi, ihi)
            bottom = max(ilo, lo)
            if top > bottom:
                return _bisect_unused(bottom, top, used)
        if in_range:
            return in_range[0]
        raise ChoiceSetMissesIntervalError(f"choice set misses admissible interval [{lo}, {hi})", lo=lo, hi=hi)

    def diameter(self):
        """sup of pairwise distances; math.inf for unbounded sets, whatever their lower bounds."""
        top, bottom = self._ends()
        return math.inf if top is None else top - bottom

    def least_element(self) -> Fraction:
        """Canonical 'arbitrary' answer: smallest point, or a quarter into an interval."""
        candidates = list(self.points)
        for lo, hi in self.intervals:
            candidates.append(lo + 1 if hi is None else lo + (hi - lo) / 4)
        return min(candidates)

    def _ends(self):
        """``(top, bottom)``: the largest point or interval end (``None`` if an interval is unbounded) and the
        least point or lower end.  ``element_far_from(a, g)`` finds an element exactly when ``top`` is ``None``,
        ``top > a + g`` or ``bottom < a - g``, the same strict tests as its three branches."""
        los = [*self.points, *(lo for lo, _ in self.intervals)]
        his = [*self.points, *(hi for _, hi in self.intervals)]
        return (None if None in his else max(his)), min(los)

    def element_far_from(self, center: Fraction, gap: Fraction):
        """Some element v with |v - center| > gap, or None."""
        pts = sorted(self.points, key=lambda p: (-abs(p - center), p))
        if pts and abs(pts[0] - center) > gap:
            return pts[0]
        for lo, hi in self.intervals:
            if hi is None:
                return max(lo, center + gap) + 1
            if hi > center + gap:
                bottom = max(lo, center + gap)
                return (bottom + hi) / 2
            top = min(hi, center - gap)
            if top > lo:
                return (lo + top) / 2
        return None

    def sample(self, rng: random.Random) -> Fraction:
        """Seeded random element; exact rationals only."""
        components = [("p", p) for p in sorted(self.points)] + [("i", iv) for iv in self.intervals]
        kind, payload = components[rng.randrange(len(components))]
        if kind == "p":
            return payload
        lo, hi = payload
        if hi is None:
            hi = lo + rng.randrange(1, 64)
        k = rng.randrange(1, 1 << 16)
        return lo + (hi - lo) * Fraction(k, 1 << 16)


def _choice_set(choice, d: Doubleton) -> ChoiceSet:
    """The set that the mapping ``choice`` gives the missing pair ``d``: ``MissingChoiceSetError`` if it gives
    none, ``MalformedInputError`` if it gives a value that is not a ``ChoiceSet`` or is no mapping."""
    try:
        cs = choice[d]
    except KeyError:
        raise MissingChoiceSetError(f"no choice set supplied for {d}") from None
    except TypeError:  # a list, a str or None: a Doubleton key never raises it in a mapping
        raise MalformedInputError(f"choice sets must be a mapping from pair to ChoiceSet, got {choice!r:.40}") from None
    if not isinstance(cs, ChoiceSet):
        raise MalformedInputError(f"choice for {d} must be a ChoiceSet, got {cs!r}")
    return cs


def full_extend(m: PartialMetric, order="lex", choice="midpoint") -> ExtensionTrace:
    """Extend to a full metric, one admissible step per missing pair.

    ``order``: "lex", "maxgap", or "random:SEED".  ``choice``: "midpoint" or a
    mapping from Doubleton to a ChoiceSet.  Values are pairwise distinct
    (bisecting toward the upper end on collision) for midpoints, and for sets
    that each meet their admissible interval in an open interval, as the
    paper's dense F_e do; a set of points alone may repeat a value.
    ``_bisect_unused`` and ``ChoiceSet.pick`` return only values in ``[lo, hi)``
    (``test_extension.py::TestFullExtend::test_every_value_lies_in_its_interval``).
    Every step is adjoined in place into one copy of ``m``, the trace's result.
    """
    _require_floppy(m)
    if choice != "midpoint" and not isinstance(choice, Mapping):
        raise MalformedInputError(f"choice must be 'midpoint' or a mapping from pair to ChoiceSet, got {choice!r}")
    current = m._copy()
    used = set()
    steps = []
    for d, h, c, scale in _steps(current, order):
        interval = _interval_from(h, c, scale)
        if choice == "midpoint":
            value = _bisect_unused(interval.lo, interval.hi, used)
        else:
            value = _choice_set(choice, d).pick(interval.lo, interval.hi, used)
        used.add(value)
        current._adjoin(d, value)
        steps.append(ExtensionStep(d, interval, value))
    return ExtensionTrace(steps, current)
