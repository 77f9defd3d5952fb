"""Glued patchworks: a full base pseudometric with overlapping pieces.

Pieces meet the base in nonempty gateway sets, agree with it on gateway
pairs, and meet each other only inside the base.  The union is then a graph
pseudometric whose shortest-path distances have a closed form: within one
member, the member's own distance; across members, the cheapest route through
one gateway of each side.  ``floppy_certificate`` checks the hypotheses under
which the glued metric is provably floppy and returns per-pair gap bounds.

A ``Patchwork`` is immutable and caches two values on first use: its
``validate_patchwork`` report, and its validated union, a ``PartialMetric``
whose distance table and envelope rows are in turn built once.  ``glue``,
``gateway_slack`` and ``floppy_certificate`` all read that one union.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .core import Doubleton, PartialMetric, _Record, _jsonable, _sweep, is_floppy, shortest_path, validate
from .errors import EmptyGatewaySetError, MalformedInputError, UnknownVertexError

@dataclass(frozen=True)
class Patchwork:
    base: PartialMetric
    pieces: tuple

    def __init__(self, base, pieces):
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "pieces", tuple(pieces))

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

        Validity makes every overlapping weight coincide: an edge two members
        share joins two gateways, and both weigh it at the base distance.
        """
        _require_valid(self)
        edges = dict(self.base.edges)
        for piece in self.pieces:
            edges.update(piece.edges)
        return PartialMetric(self.base.vertices.union(*(p.vertices for p in self.pieces)), edges)


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


def validate_patchwork(pw: Patchwork) -> PatchworkReport:
    """Check the three gluing hypotheses, reporting a witness per failure."""
    witnesses = []
    base_rep = validate(pw.base)
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
    report = pw._report
    if not report.ok:
        raise MalformedInputError("invalid patchwork: " + "; ".join(report.witnesses))
    return report


def glue(pw: Patchwork) -> PartialMetric:
    """Union of the base and all pieces, the same object on every call."""
    return pw._glued


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
    for member in (pw.base, *pw.pieces):
        if x in member.vertices and y in member.vertices:
            return shortest_path(member, x, y)
    from_x = [(a, shortest_path(f, x, a)) for a in sorted(f.vertices & pw.base.vertices)]
    to_y = [(b, shortest_path(g, b, y)) for b in sorted(g.vertices & pw.base.vertices)]
    return min(xa + shortest_path(pw.base, a, b) + by for a, xa in from_x for b, by in to_y)


def gateway_slack(pw: Patchwork, v: str, gates) -> Fraction:
    """Minimal triangle slack of v against a gateway set B.

    min over a, b in B of d(a,v) + d(v,b) - d(a,b), distances in the glued
    metric; a == b is allowed and gives 2*d(a,v).
    """
    gates = sorted(set(gates))
    if not gates:
        raise EmptyGatewaySetError("gateway set must be nonempty")
    return _slack(pw._glued, v, gates)


def _slack(glued: PartialMetric, v: str, gates) -> Fraction:
    to_v = [(a, shortest_path(glued, a, v)) for a in gates]
    return min(av + bv - shortest_path(glued, a, b) for a, av in to_v for b, bv in to_v)


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
    """
    base_full = _require_valid(pw).base_full_pseudometric
    pieces_floppy = [is_floppy(piece, require_metric=False).floppy for piece in pw.pieces]
    glued = pw._glued
    slack_failures = []
    piece_slacks = []  # per piece: dict vertex -> slack against that piece's gateways
    for i, piece in enumerate(pw.pieces):
        gates = sorted(pw.gateways(i))
        slacks = {}
        for x in sorted(piece.vertices - pw.base.vertices):
            slacks[x] = _slack(glued, x, gates)
            if slacks[x] <= 0:
                slack_failures.append(f"piece {i}: slack of {x} against gateways is {slacks[x]}")
        for y in sorted(pw.base.vertices - piece.vertices):
            slacks[y] = _slack(glued, y, gates)
            if slacks[y] <= 0:
                slack_failures.append(f"piece {i}: slack of base vertex {y} against gateways is {slacks[y]}")
        piece_slacks.append(slacks)
    certified = base_full and all(pieces_floppy) and not slack_failures
    if not certified:
        return CertReport(False, base_full, pieces_floppy, slack_failures, None, [])

    gaps = {d: h - c for d, h, c in _sweep(glued)}  # every bounded cross pair is a non-edge
    glued_floppy = all(g > 0 for g in gaps.values())  # vacuously true when the union is full

    def bound(x, y, delta):
        d = Doubleton(x, y)
        return GapBound(d, delta, Fraction(gaps[d], glued._scale))

    bounds = []
    for i, piece in enumerate(pw.pieces):
        outside = sorted(piece.vertices - pw.base.vertices)
        # piece vertex vs base vertex not in the piece
        for x in outside:
            for y in sorted(pw.base.vertices - piece.vertices):
                bounds.append(bound(x, y, min(piece_slacks[i][x], piece_slacks[i][y] / 2)))
        # piece vertex vs other-piece vertex
        for j in range(i + 1, len(pw.pieces)):
            for x in outside:
                for y in sorted(pw.pieces[j].vertices - pw.base.vertices):
                    bounds.append(bound(x, y, min(piece_slacks[i][x], piece_slacks[j][y])))
    return CertReport(True, base_full, pieces_floppy, slack_failures, glued_floppy, bounds)
