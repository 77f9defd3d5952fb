"""The metric-extending game with algorithmic players (finite length only).

Player I names a vertex pair and a choice set; Player II answers with a value
from the set.  After a fixed finite number of innings the referee builds the
accumulated relation once and validates it once: Player I wins exactly when it
is a full metric.  The referee keeps no running metric; only the winning
strategy does, to compute its offers, ``extension.ChoiceSet`` values.

Provided players:

* ``winning_player_one`` -- offers the open interval that keeps the running
  metric floppy; wins whenever the game is long enough to cover every missing
  pair, against every legal opponent.
* ``adversary_player_two`` -- waits for an inning where the offered set allows
  an answer too far (w.r.t. the pair pseudometric) from a previous answer,
  then takes it, wrecking the triangle inequality.  It keeps the distinct
  (pair, answer) moves of the game in progress, so an inning costs one
  integer test per distinct earlier move, not one per inning played; it
  starts afresh on another base or history list, or a shorter history.
* ``sabotage_witness`` -- the quantitative version of the adversary: given
  choice sets for all missing pairs, returns two pairs and two values that no
  full metric extension can accommodate, when the sets are wide enough.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .core import (
    Doubleton,
    PartialMetric,
    _Record,
    _count,
    _metric,
    _require_graph_metric,
    as_rational,
    doubleton_dist,
    shortest_chain,
    shortest_path,
    validate,
)
from .errors import MalformedInputError, MetricError
from .extension import ChoiceSet, _choice_set, _interval, _require_floppy

PLAYER_I_WINS = "PLAYER_I_WINS"
PLAYER_II_WINS = "PLAYER_II_WINS"


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


def accumulate(base: PartialMetric, moves):
    """Relation base-union-moves as one metric, or (None, pair) on conflicting values.

    The relation is built in one piece; its distance table is computed only
    when it is first queried (``play`` validates it once).
    """
    assigned = dict(_metric(base).edges)
    for mv in moves:
        if assigned.setdefault(mv.pair, mv.answer) != mv.answer:
            return None, mv.pair
    return PartialMetric(base.vertices, assigned), None


def _loss_witness(relation: PartialMetric, rep) -> GameReason:
    """Why a relation is not a full metric: a missing pair, or else the first
    edge heavier than its shortest chain.  No weight is <= 0 (the base is
    metric-grade and every answer lies in its offered set, inside (0, inf)),
    so a full relation fails only the polygonal inequality, and such an edge
    exists."""
    if not rep.full:
        return GameReason("MISSING_PAIR", {"pair": relation.non_edges()[0]})
    d, w, h = next((d, w, h) for d, w in sorted(relation.edges.items())
                   if w > (h := shortest_path(relation, d.a, d.b)))
    chain = shortest_chain(relation, d.a, d.b)
    return GameReason("POLYGONAL_VIOLATION", {"pair": d, "weight": w, "chain": chain, "chain_weight": h})


def play(base: PartialMetric, game_length: int, player_one, player_two) -> GameTranscript:
    """Referee a finite game and return the full transcript with verdict.

    A player is any object with the one method its role needs:
    ``player_one.propose(base, history)`` returns the next inning's
    (Doubleton, ChoiceSet), and ``player_two.respond(base, history, pair,
    offered)`` returns an answer from the offered set; ``history`` is the
    list of moves so far.  Any other proposal loses by ``ILLEGAL_MOVE_I``.
    Moves are only checked against their offered sets while the game runs;
    the accumulated relation is validated once, after the last inning.
    """
    _count(game_length, 0, "game length")
    _require_graph_metric(base)
    moves = []
    for _ in range(game_length):
        try:
            proposal = player_one.propose(base, moves)
            if not (isinstance(proposal, (tuple, list)) and len(proposal) == 2 and isinstance(proposal[0], Doubleton)):
                raise MalformedInputError(f"a proposal must be a (Doubleton, ChoiceSet) pair, got {proposal!r}")
            d, offered = proposal
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
        moves.append(Move(d, offered, answer))
        if not offered.contains(answer):
            return GameTranscript(base, moves, PLAYER_I_WINS, GameReason("ILLEGAL_MOVE_II", {"pair": d, "answer": answer}))
    relation, conflict = accumulate(base, moves)
    if conflict is not None:
        return GameTranscript(
            base, moves, PLAYER_II_WINS, GameReason("MULTIVALUED_PAIR", {"pair": conflict})
        )
    rep = validate(relation)
    if rep.full and rep.graph_metric:
        return GameTranscript(base, moves, PLAYER_I_WINS, GameReason("FULL_METRIC", {}))
    return GameTranscript(base, moves, PLAYER_II_WINS, _loss_witness(relation, rep))


class WinningFirstPlayer:
    """Walks the missing pairs in a fixed order, offering the open floppiness
    interval against the running metric.  Wins every game whose length equals
    the number of missing pairs.

    The strategy is the only holder of a running metric, its own copy of
    the base: each call adjoins the history moves it has not yet seen, in
    place, and a history shorter than the last one means a new game, so the
    metric restarts from a fresh copy of the base.
    """

    def __init__(self, base: PartialMetric):
        _require_floppy(base)
        self._missing = base.non_edges()
        self._base = base
        self._running = base._copy()
        self._seen = 0

    def propose(self, base, history):
        if len(history) < self._seen:  # a new game has started
            self._running, self._seen = self._base._copy(), 0
        for mv in history[self._seen :]:
            if not self._running.is_edge(mv.pair):
                self._running._adjoin(mv.pair, mv.answer)
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


class AdversarySecondPlayer:
    """Answers canonically until an offered set permits a value whose distance
    from some earlier answer exceeds the pair pseudometric between the two
    doubletons; then takes that value, the first such earlier move's
    ``element_far_from``.

    The player keeps the game in progress: its distinct (pair, answer) moves
    in first-play order, each answer as numerator and denominator.  A
    repeated move is far exactly when its first copy is, so an inning costs
    one integer test per distinct move on another pair, against the offered
    set's two ends and the base's ``_dd``, ``doubleton_dist`` times its
    common denominator, and O(distinct moves) in all.  It starts afresh when
    ``base`` or the ``history`` list is a different object, or the history
    is shorter than at the last call.
    """

    def __init__(self):
        self._base = self._history = None
        self._seen, self._moves = 0, {}

    def respond(self, base, history, pair, offered):
        if base is not self._base or history is not self._history or len(history) < self._seen:
            self._base, self._history, self._seen, self._moves = base, history, 0, {}
        moves = self._moves  # (pair, answer) -> the answer's (numerator, denominator), in first-play order
        for mv in history[self._seen :]:
            if (mv.pair, mv.answer) not in moves:
                moves[mv.pair, mv.answer] = mv.answer.as_integer_ratio()
        self._seen = len(history)
        scale, (top, bottom) = base._denominator(), offered._ends()
        # with a = n/d and g = D/L: top > a + g is tn d > td (n L + D d), where tn/td = top L
        tn, td = (0, 1) if top is None else (top.numerator * scale, top.denominator)
        bn, bd = bottom.numerator * scale, bottom.denominator
        for (q, answer), (n, d) in moves.items():
            if q == pair:
                continue
            gap = base._dd(pair, q)
            nl, gd = n * scale, gap * d
            if top is None or tn * d > td * (nl + gd) or bn * d < bd * (nl - gd):
                return offered.element_far_from(answer, Fraction(gap, scale))
        return offered.least_element()


def adversary_player_two() -> AdversarySecondPlayer:
    return AdversarySecondPlayer()


class RandomSecondPlayer:
    def __init__(self, seed: int):
        self._rng = random.Random(seed)

    def respond(self, base, history, pair, offered):
        return offered.sample(self._rng)


class ProbeSecondPlayer:
    """Deterministic answers near an end (or the middle) of offered intervals: ``lo + span * position``."""

    _POSITIONS = {"low": Fraction(1, 1024), "mid": Fraction(1, 2), "high": Fraction(1023, 1024)}

    def __init__(self, mode: str):
        if mode not in self._POSITIONS:
            raise MalformedInputError(f"unknown probe mode {mode!r}")
        self.mode = mode

    def respond(self, base, history, pair, offered):
        if offered.intervals:
            lo, hi = offered.intervals[0]
            span = 2 if hi is None else hi - lo
            return lo + span * self._POSITIONS[self.mode]
        return offered.least_element()


class ScriptedFirstPlayer:
    """Plays a fixed script of (pair, choice set) moves."""

    def __init__(self, script):
        self.script = list(script)

    def propose(self, base, history):
        if len(history) >= len(self.script):
            raise MalformedInputError("script exhausted")
        return self.script[len(history)]


class PlanSecondPlayer:
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

    Trigger: 3 * sep < diameter(F_p), with sep = doubleton_dist(p, q), decided
    from F_p's two ends (``ChoiceSet._ends``) without the float +inf.  Then
    F_p holds two values more than 2 * sep apart, so one of them is more than
    sep from any fixed value r_q of F_q, and no full metric extension can take
    both.  ``element_far_from(r_q, sep)`` returns None only when every point
    and every open interval of F_p lies within sep of r_q, so here it always
    finds such a value.
    """
    missing = _metric(base).non_edges()
    sets = {d: _choice_set(choice_sets, d) for d in missing}
    for p in missing:
        top, bottom = sets[p]._ends()
        for q in missing:
            if q == p:
                continue
            sep = doubleton_dist(base, p, q)
            if top is None or 3 * sep < top - bottom:
                r_q = sets[q].least_element()
                return SabotagePlan(p, q, sets[p].element_far_from(r_q, sep), r_q, sep)
    return None


def replay_sabotage(base: PartialMetric, choice_sets, plan: SabotagePlan) -> GameTranscript:
    """Play out a plan: Player I offers every missing pair's own choice set."""
    script = [(d, _choice_set(choice_sets, d)) for d in _metric(base).non_edges()]
    return play(base, len(script), ScriptedFirstPlayer(script), PlanSecondPlayer(plan))
