"""Deterministic instance factories for tests, demos, and the CLI.

Vertices of the truncated Cantor tree are binary strings (the root is the
empty string); every comparable pair s < t (proper prefix) carries weight
2^-|s| - 2^-|t|.  Random floppy metrics come from taxicab distances between
distinct integer grid points, thinned down to a target density while keeping
a spanning tree, then rejection-sampled on the floppiness check.  One rule
each checks every count (``core._count``) and every scale (``_positive``).
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, product

from .core import Doubleton, PartialMetric, _count, as_rational, is_floppy
from .errors import DepthZeroError, GenerationExhaustedError, MalformedInputError

_MAX_ATTEMPTS = 64  # floppiness checks random_floppy makes before it gives up


def _positive(scale) -> Fraction:
    scale = as_rational(scale)
    if scale <= 0:
        raise MalformedInputError(f"scale must be positive, got {scale}")
    return scale


def _uniform(vertices, pairs, scale) -> PartialMetric:
    """The metric on ``vertices`` with every one of ``pairs`` at weight ``scale``, which must be positive."""
    w = _positive(scale)
    return PartialMetric(vertices, {Doubleton(u, v): w for u, v in pairs})


def cantor_tree(depth: int) -> PartialMetric:
    """Truncated Cantor tree metric on all binary strings of length <= depth."""
    vertices = [""]
    for k in range(1, _count(depth, 1, "depth", DepthZeroError) + 1):
        vertices.extend("".join(bits) for bits in product("01", repeat=k))
    edges = {}
    for s in vertices:
        for t in vertices:
            if len(s) < len(t) and t.startswith(s):
                edges[Doubleton(s, t)] = Fraction(1, 2 ** len(s)) - Fraction(1, 2 ** len(t))
    return PartialMetric(vertices, edges)


def path_metric(n: int, scale=1) -> PartialMetric:
    vertices = [f"v{i}" for i in range(_count(n, 1, "n"))]
    return _uniform(vertices, zip(vertices, vertices[1:]), scale)


def cycle_metric(n: int, scale=1) -> PartialMetric:
    vertices = [f"v{i}" for i in range(_count(n, 3, "a cycle's n"))]
    return _uniform(vertices, zip(vertices, vertices[1:] + vertices[:1]), scale)


def star_metric(n: int, scale=1) -> PartialMetric:
    """Center c with n leaves at equal distance."""
    leaves = [f"u{i}" for i in range(_count(n, 1, "a star's n"))]
    return _uniform(["c", *leaves], (("c", u) for u in leaves), scale)


def complete_metric(n: int, scale=1) -> PartialMetric:
    """Equilateral full metric on n vertices."""
    vertices = [f"v{i}" for i in range(_count(n, 1, "n"))]
    return _uniform(vertices, combinations(vertices, 2), scale)


def h_graph() -> PartialMetric:
    """Two far-apart leaves hanging off a heavy edge; the standard 4-vertex example."""
    return PartialMetric(
        ["a", "b", "x", "y"],
        {Doubleton("a", "b"): 10, Doubleton("a", "x"): 1, Doubleton("b", "y"): 1},
    )


def _taxicab_weights(rng: random.Random, labels, scale: Fraction) -> dict:
    """Taxicab distance times ``scale`` at every pair of ``labels``, placed on distinct random grid points."""
    span = max(3 * len(labels), 6)
    points = rng.sample([(i, j) for i in range(span) for j in range(span)], len(labels))
    return {Doubleton(u, v): scale * (abs(p[0] - q[0]) + abs(p[1] - q[1]))
            for (u, p), (v, q) in combinations(zip(labels, points), 2)}


def random_floppy(n: int, density, seed: int, *, scale=1) -> PartialMetric:
    """Seeded random floppy graph metric with roughly the requested density."""
    _count(n, 2, "n")
    density = as_rational(density)
    if not 0 < density <= 1:
        raise MalformedInputError(f"density must be in (0, 1], got {density}")
    scale = _positive(scale)
    rng = random.Random(seed)
    total_pairs = n * (n - 1) // 2
    target = max(n - 1, round(density * total_pairs))
    labels = [f"v{i}" for i in range(n)]
    verts = sorted(labels)
    for _ in range(_MAX_ATTEMPTS):
        weights = _taxicab_weights(rng, labels, scale)
        # random spanning tree: attach each vertex to a random earlier one
        order = verts[:]
        rng.shuffle(order)
        keep = {Doubleton(order[i], order[rng.randrange(i)]) for i in range(1, n)}
        rest = [d for d in sorted(weights) if d not in keep]
        rng.shuffle(rest)
        keep.update(rest[: max(0, target - len(keep))])
        # a connected spanning subgraph of a full metric with positive
        # weights is a connected graph metric
        m = PartialMetric(verts, {d: weights[d] for d in keep})
        if is_floppy(m).floppy:
            return m
    raise GenerationExhaustedError(f"no floppy instance after {_MAX_ATTEMPTS} attempts (seed {seed})")
