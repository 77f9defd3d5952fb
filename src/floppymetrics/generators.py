"""Deterministic instance factories for tests, demos, and the CLI.

Vertices of the truncated Cantor tree are binary strings (the root is the
empty string); every comparable pair s < t (proper prefix) carries weight
2^-|s| - 2^-|t|.  Random floppy metrics come from taxicab distances between
distinct integer grid points, thinned down to a target density while keeping
a spanning tree, then rejection-sampled on the floppiness check.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, product

from .core import Doubleton, PartialMetric, as_rational, is_floppy
from .errors import DepthZeroError, GenerationExhaustedError, MalformedInputError

_MAX_ATTEMPTS = 64  # floppiness checks random_floppy makes before it gives up


def cantor_tree(depth: int) -> PartialMetric:
    """Truncated Cantor tree metric on all binary strings of length <= depth."""
    if depth < 1:
        raise DepthZeroError("depth must be at least 1")
    vertices = [""]
    for k in range(1, depth + 1):
        vertices.extend("".join(bits) for bits in product("01", repeat=k))
    edges = {}
    for s in vertices:
        for t in vertices:
            if len(s) < len(t) and t.startswith(s):
                edges[Doubleton(s, t)] = Fraction(1, 2 ** len(s)) - Fraction(1, 2 ** len(t))
    return PartialMetric(vertices, edges)


def path_metric(n: int, scale=1) -> PartialMetric:
    if n < 1:
        raise MalformedInputError("n must be at least 1")
    scale = as_rational(scale)
    vertices = [f"v{i}" for i in range(n)]
    edges = {Doubleton(f"v{i}", f"v{i+1}"): scale for i in range(n - 1)}
    return PartialMetric(vertices, edges)


def cycle_metric(n: int, scale=1) -> PartialMetric:
    if n < 3:
        raise MalformedInputError("a cycle needs at least 3 vertices")
    scale = as_rational(scale)
    vertices = [f"v{i}" for i in range(n)]
    edges = {Doubleton(f"v{i}", f"v{(i+1) % n}"): scale for i in range(n)}
    return PartialMetric(vertices, edges)


def star_metric(n: int, scale=1) -> PartialMetric:
    """Center c with n leaves at equal distance."""
    if n < 1:
        raise MalformedInputError("a star needs at least 1 leaf")
    scale = as_rational(scale)
    vertices = ["c"] + [f"u{i}" for i in range(n)]
    edges = {Doubleton("c", f"u{i}"): scale for i in range(n)}
    return PartialMetric(vertices, edges)


def complete_metric(n: int, scale=1) -> PartialMetric:
    """Equilateral full metric on n vertices."""
    if n < 1:
        raise MalformedInputError("n must be at least 1")
    scale = as_rational(scale)
    vertices = [f"v{i}" for i in range(n)]
    edges = {Doubleton(u, v): scale for u, v in combinations(vertices, 2)}
    return PartialMetric(vertices, edges)


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
    if n < 2:
        raise MalformedInputError("n must be at least 2")
    density = as_rational(density)
    if not 0 < density <= 1:
        raise MalformedInputError(f"density must be in (0, 1], got {density}")
    scale = as_rational(scale)
    if scale <= 0:
        raise MalformedInputError(f"scale must be positive, got {scale}")
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
