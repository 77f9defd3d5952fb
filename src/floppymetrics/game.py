"""The metric-extending game with algorithmic players (finite length only).

Player I names a vertex pair and a choice set; Player II answers with a value
from the set.  After a fixed finite number of innings the referee builds the
accumulated relation once and validates it once: Player I wins exactly when it
is a full metric.  The referee keeps no running metric; only the winning
strategy does, to compute its offers.

Provided players:

* ``winning_player_one`` -- offers the open interval that keeps the running
  metric floppy; wins whenever the game is long enough to cover every missing
  pair, against every legal opponent.
* ``adversary_player_two`` -- waits for an inning where the offered set allows
  an answer too far (w.r.t. the pair pseudometric) from a previous answer,
  then takes it, wrecking the triangle inequality.
* ``sabotage_witness`` -- the quantitative version of the adversary: given
  choice sets for all missing pairs, returns two pairs and two values that no
  full metric extension can accommodate, when the sets are wide enough.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .core import (
    Doubleton,
    PartialMetric,
    _Record,
    _require_metric_grade,
    as_rational,
    doubleton_dist,
    shortest_chain,
    shortest_path,
    validate,
)
from .errors import MalformedInputError, MetricError, MissingChoiceSetError
from .extension import _interval, _require_floppy

PLAYER_I_WINS = "PLAYER_I_WINS"
PLAYER_II_WINS = "PLAYER_II_WINS"


@dataclass(frozen=True)
class ChoiceSet(_Record):
    """Finite union of rational points and open rational intervals in (0, inf).

    ``intervals`` entries are (lo, hi) with hi=None meaning unbounded above.
    """

    points: frozenset = frozenset()
    intervals: tuple = ()

    def __post_init__(self):
        pts = frozenset(as_rational(p) for p in self.points)
        object.__setattr__(self, "points", pts)
        ivs = []
        for lo, hi in self.intervals:
            lo = as_rational(lo)
            hi = None if hi is None else as_rational(hi)
            if lo < 0 or (hi is not None and hi <= lo):
                raise MalformedInputError(f"bad interval ({lo}, {hi})")
            ivs.append((lo, hi))
        object.__setattr__(self, "intervals", tuple(ivs))
        if any(p <= 0 for p in pts):
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

    def diameter(self):
        """sup of pairwise distances; math.inf for unbounded sets, whatever their lower bounds."""
        if any(hi is None for _, hi in self.intervals):
            return math.inf
        los = list(self.points) + [lo for lo, _ in self.intervals]
        his = list(self.points) + [hi for _, hi in self.intervals]
        return max(his) - min(los)

    def least_element(self) -> Fraction:
        """Canonical 'arbitrary' answer: smallest point, or a quarter into an interval."""
        candidates = list(self.points)
        for lo, hi in self.intervals:
            candidates.append(lo + 1 if hi is None else lo + (hi - lo) / 4)
        return min(candidates)

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


@dataclass(frozen=True)
class Move(_Record):
    pair: Doubleton
    offered: ChoiceSet
    answer: Fraction


@dataclass(frozen=True)
class GameReason(_Record):
    kind: str
    detail: dict


@dataclass
class GameTranscript(_Record):
    base: PartialMetric
    moves: list
    verdict: str
    reason: GameReason


class PlayerIStrategy:
    def propose(self, base: PartialMetric, history: list):
        """Return (Doubleton, ChoiceSet) for the next inning."""
        raise NotImplementedError


class PlayerIIStrategy:
    def respond(self, base: PartialMetric, history: list, pair: Doubleton, offered: ChoiceSet):
        """Return an answer value from the offered set."""
        raise NotImplementedError


def accumulate(base: PartialMetric, moves):
    """Relation base-union-moves as one metric, or (None, pair) on conflicting values.

    The relation is built in one piece; its distance table is computed only
    when it is first queried (``play`` validates it once).
    """
    assigned = dict(base.edges)
    for mv in moves:
        if assigned.setdefault(mv.pair, mv.answer) != mv.answer:
            return None, mv.pair
    return PartialMetric(base.vertices, assigned), None


def _loss_witness(relation: PartialMetric, rep) -> GameReason:
    """Why a relation is not a full metric.  No weight is <= 0: the base is
    metric-grade and every answer lies in its offered set, inside (0, inf)."""
    if not rep.full:
        missing = relation.non_edges()[0]
        return GameReason("MISSING_PAIR", {"pair": missing})
    for d, w in sorted(relation.edges.items()):
        h = shortest_path(relation, d.a, d.b)
        if w > h:
            chain = shortest_chain(relation, d.a, d.b)
            return GameReason(
                "POLYGONAL_VIOLATION",
                {"pair": d, "weight": w, "chain": chain, "chain_weight": h},
            )
    return GameReason("NOT_FULL_METRIC", {})


def play(base: PartialMetric, game_length: int, player_one: PlayerIStrategy, player_two: PlayerIIStrategy) -> GameTranscript:
    """Referee a finite game and return the full transcript with verdict.

    Moves are only checked against their offered sets while the game runs;
    the accumulated relation is validated once, after the last inning.
    """
    if game_length < 0:
        raise MalformedInputError(f"game length must be nonnegative, got {game_length}")
    _require_metric_grade(base)
    moves = []
    for _ in range(game_length):
        try:
            d, offered = player_one.propose(base, moves)
            if d.a not in base.vertices or d.b not in base.vertices:
                raise MalformedInputError(f"pair {d} outside the vertex set")
            if not isinstance(offered, ChoiceSet):
                raise MalformedInputError("offered set must be a ChoiceSet")
        except MetricError as exc:
            return GameTranscript(base, moves, PLAYER_II_WINS, GameReason("ILLEGAL_MOVE_I", {"message": str(exc)}))
        try:
            answer = as_rational(player_two.respond(base, moves, d, offered))
        except MetricError as exc:
            return GameTranscript(base, moves, PLAYER_I_WINS, GameReason("ILLEGAL_MOVE_II", {"message": str(exc)}))
        if not offered.contains(answer):
            moves.append(Move(d, offered, answer))
            return GameTranscript(base, moves, PLAYER_I_WINS, GameReason("ILLEGAL_MOVE_II", {"pair": d, "answer": answer}))
        moves.append(Move(d, offered, answer))
    relation, conflict = accumulate(base, moves)
    if conflict is not None:
        return GameTranscript(
            base, moves, PLAYER_II_WINS, GameReason("MULTIVALUED_PAIR", {"pair": conflict})
        )
    rep = validate(relation)
    if rep.full and rep.graph_metric and rep.connected:
        return GameTranscript(base, moves, PLAYER_I_WINS, GameReason("FULL_METRIC", {}))
    return GameTranscript(base, moves, PLAYER_II_WINS, _loss_witness(relation, rep))


class WinningFirstPlayer(PlayerIStrategy):
    """Walks the missing pairs in a fixed order, offering the open floppiness
    interval against the running metric.  Wins every game whose length equals
    the number of missing pairs.

    The strategy is the only holder of a running metric: each call folds in
    the history moves it has not yet seen, and a history shorter than the
    last one means a new game, so the metric restarts from the base.
    """

    def __init__(self, base: PartialMetric):
        _require_floppy(base)
        self._missing = base.non_edges()
        self._base = base
        self._running = base
        self._seen = 0

    def propose(self, base, history):
        if len(history) < self._seen:  # a new game has started
            self._running, self._seen = self._base, 0
        for mv in history[self._seen :]:
            if not self._running.is_edge(mv.pair):
                self._running = self._running.with_edge(mv.pair, mv.answer)
        self._seen = len(history)
        current = self._running
        k = len(history)
        if k < len(self._missing):
            d = self._missing[k]
            interval = _interval(current, d)
            return d, ChoiceSet.open_interval(interval.lo, interval.hi)
        # everything already assigned: burn the inning on a settled pair
        if current.edges:
            d = min(current.edges)
            return d, ChoiceSet.of_points(current.weight(d))
        raise MalformedInputError("no doubleton exists on this vertex set")


def winning_player_one(base: PartialMetric) -> WinningFirstPlayer:
    return WinningFirstPlayer(base)


class AdversarySecondPlayer(PlayerIIStrategy):
    """Answers canonically until an offered set permits a value whose distance
    from some earlier answer exceeds the pair pseudometric between the two
    doubletons; then takes that value."""

    def respond(self, base, history, pair, offered):
        for mv in history:
            if mv.pair == pair:
                continue
            gap = doubleton_dist(base, pair, mv.pair)
            far = offered.element_far_from(mv.answer, gap)
            if far is not None:
                return far
        return offered.least_element()


def adversary_player_two() -> AdversarySecondPlayer:
    return AdversarySecondPlayer()


class RandomSecondPlayer(PlayerIIStrategy):
    def __init__(self, seed: int):
        self._rng = random.Random(seed)

    def respond(self, base, history, pair, offered):
        return offered.sample(self._rng)


class ProbeSecondPlayer(PlayerIIStrategy):
    """Deterministic answers near an end (or the middle) of offered intervals."""

    def __init__(self, mode: str):
        if mode not in ("low", "high", "mid"):
            raise MalformedInputError(f"unknown probe mode {mode!r}")
        self.mode = mode

    def respond(self, base, history, pair, offered):
        if offered.intervals:
            lo, hi = offered.intervals[0]
            if hi is None:
                hi = lo + 2
            span = hi - lo
            if self.mode == "low":
                return lo + span / 1024
            if self.mode == "high":
                return hi - span / 1024
            return lo + span / 2
        return offered.least_element()


class ScriptedFirstPlayer(PlayerIStrategy):
    """Plays a fixed script of (pair, choice set) moves."""

    def __init__(self, script):
        self.script = list(script)

    def propose(self, base, history):
        if len(history) >= len(self.script):
            raise MalformedInputError("script exhausted")
        return self.script[len(history)]


class PlanSecondPlayer(PlayerIIStrategy):
    """Executes a sabotage plan, answering canonically elsewhere."""

    def __init__(self, plan: "SabotagePlan"):
        self.plan = plan

    def respond(self, base, history, pair, offered):
        if pair == self.plan.p and offered.contains(self.plan.r_p):
            return self.plan.r_p
        if pair == self.plan.q and offered.contains(self.plan.r_q):
            return self.plan.r_q
        return offered.least_element()


@dataclass(frozen=True)
class SabotagePlan(_Record):
    p: Doubleton
    q: Doubleton
    r_p: Fraction
    r_q: Fraction
    separation: Fraction  # doubleton_dist(p, q); |r_p - r_q| exceeds it


def sabotage_witness(base: PartialMetric, choice_sets) -> SabotagePlan | None:
    """Find two missing pairs whose choice sets force a non-metric completion.

    Trigger: 3 * doubleton_dist(p, q) < diameter(F_p).  Then some value of F_p
    sits farther from any fixed F_q value than the pair pseudometric allows,
    and no full metric extension can take both values.
    """
    missing = base.non_edges()
    for d in missing:
        if d not in choice_sets:
            raise MissingChoiceSetError(f"no choice set for missing pair {d}")
    for p in missing:
        diam = choice_sets[p].diameter()
        for q in missing:
            if q == p:
                continue
            sep = doubleton_dist(base, p, q)
            if 3 * sep < diam:
                r_q = choice_sets[q].least_element()
                r_p = choice_sets[p].element_far_from(r_q, sep)
                if r_p is None:  # cannot happen when the trigger fired
                    continue
                return SabotagePlan(p, q, r_p, r_q, sep)
    return None


def replay_sabotage(base: PartialMetric, choice_sets, plan: SabotagePlan) -> GameTranscript:
    """Play out a plan: Player I offers every missing pair's own choice set."""
    missing = base.non_edges()
    script = [(d, choice_sets[d]) for d in missing]
    return play(base, len(script), ScriptedFirstPlayer(script), PlanSecondPlayer(plan))
