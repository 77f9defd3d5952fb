"""Glued patchworks: a full base pseudometric with overlapping pieces.

Pieces meet the base in nonempty gateway sets, agree with it on gateway
pairs, and meet each other only inside the base.  The union is then a graph
pseudometric whose shortest-path distances have a closed form: within one
member, the member's own distance; across members, the cheapest route through
one gateway of each side.  ``floppy_certificate`` checks the hypotheses under
which the glued metric is provably floppy and returns per-pair gap bounds.

A ``Patchwork`` is immutable and caches two values on first use: its
``validate_patchwork`` report, and its validated union, a ``PartialMetric``
whose distance table and envelope rows are in turn built once.  ``glue``
reads that one union, and so does a ``gateway_slack`` whose vertex and
gates lie in no one member.  ``glue_hat``, the certificate's slacks and
every other ``gateway_slack`` read the members: within one member the
glued distance is the member's own.  A
certificate reads the union only once it is certified, for its measured
gaps, so one that fails builds no union.  Every entry point first admits
its patchwork by one rule, ``_patchwork``, and a ``Patchwork`` admits its
base and pieces as metrics.  This module is the only one that admits
pseudometrics: the base and the pieces of a patchwork.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .core import Doubleton, PartialMetric, _Record, _jsonable, _metric, shortest_path, validate
from .errors import EmptyGatewaySetError, MalformedInputError, UnknownVertexError

@dataclass(frozen=True)
class Patchwork:
    """A base and its pieces, each a ``PartialMetric``; ``pieces`` is a list or tuple, kept as a tuple.

    Validation, ``glue_hat``, the certificate's verdict and a ``gateway_slack``
    inside one member read the members; ``glue``, any other ``gateway_slack``
    and a certified certificate's measured gaps read the union ``_glued``.
    """

    base: PartialMetric
    pieces: tuple

    def __init__(self, base, pieces):
        if not isinstance(pieces, (list, tuple)):
            raise MalformedInputError(f"patchwork pieces must be a list or tuple, got {type(pieces).__name__}")
        object.__setattr__(self, "base", _metric(base))
        object.__setattr__(self, "pieces", tuple(map(_metric, pieces)))

    def gateways(self, i: int) -> frozenset:
        """Vertices a piece shares with the base."""
        return self.pieces[i].vertices & self.base.vertices

    @cached_property
    def _report(self) -> PatchworkReport:
        """``validate_patchwork`` of this patchwork, made once: its members are immutable."""
        return validate_patchwork(self)

    @cached_property
    def _glued(self) -> PartialMetric:
        """Union of the base and the pieces, made once, for a valid patchwork only.

        Validity makes every overlapping entry agree: an edge two members
        share joins two gateways, and both weigh it at the base distance.
        """
        _require_valid(self)
        return PartialMetric(self.base.vertices.union(*(p.vertices for p in self.pieces)),
                             (e for m in (self.base, *self.pieces) for e in m.edges.items()))


@dataclass
class PatchworkReport(_Record):
    base_full_pseudometric: bool
    pieces_pseudometric: list
    gateways_nonempty: list
    gateway_agreement: list
    intersections_in_base: bool
    witnesses: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return (
            self.base_full_pseudometric
            and all(self.pieces_pseudometric)
            and all(self.gateways_nonempty)
            and all(self.gateway_agreement)
            and self.intersections_in_base
        )

    def to_json(self):
        """``ok`` first, then the fields."""
        return {"ok": self.ok, **super().to_json()}


def _patchwork(pw) -> Patchwork:
    """``pw``, once it is checked to be a ``Patchwork``: the first check of every entry point."""
    if not isinstance(pw, Patchwork):
        raise MalformedInputError(f"expected a Patchwork, got {type(pw).__name__}")
    return pw


def validate_patchwork(pw: Patchwork) -> PatchworkReport:
    """Check the three gluing hypotheses, reporting a witness per failure."""
    base_rep = validate(_patchwork(pw).base)
    witnesses = []
    base_ok = base_rep.connected and base_rep.graph_pseudometric and base_rep.full
    if not base_ok:
        witnesses.append("base is not a full pseudometric")
    pieces_ok, gw_nonempty, gw_agree = [], [], []
    for i, piece in enumerate(pw.pieces):
        rep = validate(piece)
        ok = rep.connected and rep.graph_pseudometric
        pieces_ok.append(ok)
        if not ok:
            witnesses.append(f"piece {i} is not a connected graph pseudometric")
        gates = sorted(pw.gateways(i))
        gw_nonempty.append(bool(gates))
        if not gates:
            witnesses.append(f"piece {i} shares no vertex with the base")
        agree = True
        if ok and base_ok:
            for j, a in enumerate(gates):
                for b in gates[j + 1 :]:
                    if shortest_path(piece, a, b) != shortest_path(pw.base, a, b):
                        agree = False
                        witnesses.append(f"piece {i} disagrees with the base on gateway pair {{{a},{b}}}")
        gw_agree.append(agree)
    inter_ok = True
    for i in range(len(pw.pieces)):
        for j in range(i + 1, len(pw.pieces)):
            stray = (pw.pieces[i].vertices & pw.pieces[j].vertices) - pw.base.vertices
            if stray:
                inter_ok = False
                witnesses.append(f"pieces {i} and {j} share vertices outside the base: {sorted(stray)}")
    return PatchworkReport(base_ok, pieces_ok, gw_nonempty, gw_agree, inter_ok, witnesses)


def _require_valid(pw: Patchwork) -> PatchworkReport:
    report = _patchwork(pw)._report
    if not report.ok:
        raise MalformedInputError("invalid patchwork: " + "; ".join(report.witnesses))
    return report


def glue(pw: Patchwork) -> PartialMetric:
    """Union of the base and all pieces, the same object on every call."""
    return _patchwork(pw)._glued


def _home(pw: Patchwork, v: str) -> PartialMetric:
    """Member metric holding a vertex (the base wins; non-base vertices are in one piece)."""
    for member in (pw.base, *pw.pieces):
        if v in member.vertices:
            return member
    raise UnknownVertexError(f"unknown vertex {v!r}")


def glue_hat(pw: Patchwork, x: str, y: str) -> Fraction:
    """Glued shortest-path distance via the closed form (no union-wide search).

    Same member: the member's own distance.  Different members: minimum over
    gateway pairs of (distance to own gateway) + (base distance between
    gateways) + (distance from the other gateway).  The closed form holds
    only under the gluing hypotheses, so an invalid patchwork is rejected.
    """
    _require_valid(pw)
    f, g = _home(pw, x), _home(pw, y)
    shared = f if y in f.vertices else g  # a vertex outside the base lies only in its home member
    if x in shared.vertices:
        return shortest_path(shared, x, y)
    from_x = [(a, shortest_path(f, x, a)) for a in sorted(f.vertices & pw.base.vertices)]
    to_y = [(b, shortest_path(g, b, y)) for b in sorted(g.vertices & pw.base.vertices)]
    return min(xa + shortest_path(pw.base, a, b) + by for a, xa in from_x for b, by in to_y)


def gateway_slack(pw: Patchwork, v: str, gates) -> Fraction:
    """Minimal triangle slack of v against a gateway set B.

    min over a, b in B of d(a,v) + d(v,b) - d(a,b), distances in the glued
    metric; a == b is allowed and gives 2*d(a,v).  B is a list, tuple, set or
    frozenset: a ``str`` is not read as a set of labels.  When the base, or
    one piece, holds v and every gate, the slack is read in that member,
    whose distances are the glued ones on a valid patchwork; otherwise in
    the union.
    """
    _patchwork(pw)
    if not isinstance(gates, (list, tuple, set, frozenset)):
        raise MalformedInputError(f"gateway set must be a list, tuple, set or frozenset, got {type(gates).__name__}")
    gates = sorted(set(gates))
    if not gates:
        raise EmptyGatewaySetError("gateway set must be nonempty")
    _require_valid(pw)
    holders = (m for m in (pw.base, *pw.pieces) if v in m.vertices and m.vertices.issuperset(gates))
    return _slack(next(holders, None) or pw._glued, v, gates)


def _slack(m: PartialMetric, v: str, gates) -> Fraction:
    to_v = [(a, shortest_path(m, a, v)) for a in gates]
    return min(av + bv - shortest_path(m, a, b) for a, av in to_v for b, bv in to_v)


@dataclass
class GapBound(_Record):
    pair: Doubleton
    delta: Fraction
    measured_gap: Fraction

    def to_json(self):
        """The fields, with ``measured_gap`` written as ``gap``."""
        return _jsonable({"pair": self.pair, "delta": self.delta, "gap": self.measured_gap})


@dataclass
class CertReport(_Record):
    certified: bool
    base_full: bool
    pieces_floppy: list
    slack_failures: list
    glued_floppy: bool | None
    bounds: list


def floppy_certificate(pw: Patchwork) -> CertReport:
    """Certify floppiness of the glued metric from local hypotheses.

    Hypotheses: the base is a full pseudometric; every piece is floppy; for
    every piece, every outside-piece vertex x and every base vertex y outside
    the piece have strictly positive slack against the piece's gateways.  On
    success the report carries, for every cross pair, the provable lower
    bound on its floppiness gap together with the measured gap.

    Each slack is read in the member that holds its vertex and the gateways,
    the piece for x and the base for y, where the glued distance is the
    member's own.  So the verdict reads only members, and only a certified
    patchwork builds the union, for its measured gaps.
    """
    _require_valid(pw)  # the base is a full pseudometric and each piece a connected one: base_full is True
    pieces_floppy = [all(g > 0 for g in piece._gaps().values()) for piece in pw.pieces]
    slack_failures = []
    per_piece = []  # per piece: its vertices off the base, the base vertices off it, and each one's slack
    for i, piece in enumerate(pw.pieces):
        gates = sorted(pw.gateways(i))
        outside = sorted(piece.vertices - pw.base.vertices)
        base_off = sorted(pw.base.vertices - piece.vertices)
        slacks = {}
        for member, vertices, kind in ((piece, outside, ""), (pw.base, base_off, "base vertex ")):
            for v in vertices:
                slacks[v] = slack = _slack(member, v, gates)
                if slack <= 0:
                    slack_failures.append(f"piece {i}: slack of {kind}{v} against gateways is {slack}")
        per_piece.append((outside, base_off, slacks))
    if not all(pieces_floppy) or slack_failures:
        return CertReport(False, True, pieces_floppy, slack_failures, None, [])

    gaps = pw._glued._gaps()  # every bounded cross pair is a non-edge
    glued_floppy = all(g > 0 for g in gaps.values())  # vacuously true when the union is full
    bounds = []
    for i, (outside, base_off, slacks) in enumerate(per_piece):
        # piece vertex vs base vertex not in the piece
        for x in outside:
            for y in base_off:
                d = Doubleton(x, y)
                bounds.append(GapBound(d, min(slacks[x], slacks[y] / 2), gaps[d]))
        # piece vertex vs other-piece vertex
        for other, _, other_slacks in per_piece[i + 1 :]:
            for x in outside:
                for y in other:
                    d = Doubleton(x, y)
                    bounds.append(GapBound(d, min(slacks[x], other_slacks[y]), gaps[d]))
    return CertReport(True, True, pieces_floppy, slack_failures, glued_floppy, bounds)
