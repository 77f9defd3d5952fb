"""Seeded benchmark inputs and independent oracles.

Everything here is plain data (vertex lists and ``{(u, v): Fraction}`` edge
maps) so that each job can build fresh library objects and no distance table
survives from one job to the next.

The constructive generator rests on one fact: if a full metric satisfies every
triangle inequality strictly, each of its connected spanning subgraphs is a
floppy graph metric (every chain of two or more edges is strictly longer than
the direct value, so check <= d(x, y) < hat(x, y) at each non-edge).  Taxicab
distance + 1 between distinct grid points is such a metric.  Unlike
rejection sampling it cannot fail, at any size.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, product


def labels(n: int, prefix: str = "v") -> list:
    width = len(str(n - 1))
    return [f"{prefix}{i:0{width}d}" for i in range(n)]


def key(u: str, v: str) -> tuple:
    return (u, v) if u < v else (v, u)


def strict_taxicab(coords: dict) -> dict:
    """Full metric (taxicab distance + 1) on labelled distinct grid points."""
    out = {}
    for u, v in combinations(sorted(coords), 2):
        (a, b), (c, d) = coords[u], coords[v]
        out[(u, v)] = Fraction(abs(a - c) + abs(b - d) + 1)
    return out


def grid_points(rng: random.Random, n: int) -> list:
    side = max(6, 3 * n)
    return [divmod(cell, side) for cell in rng.sample(range(side * side), n)]


def constructive(rng: random.Random, n: int, density: Fraction):
    """Connected spanning subgraph of a strict taxicab metric with
    ``max(n - 1, round(density * n(n-1)/2))`` edges; always floppy."""
    verts = labels(n)
    full = strict_taxicab(dict(zip(verts, grid_points(rng, n))))
    order = verts[:]
    rng.shuffle(order)
    keep = {key(order[i], order[rng.randrange(i)]) for i in range(1, n)}
    target = max(n - 1, round(density * len(full)))
    rest = [p for p in full if p not in keep]
    rng.shuffle(rest)
    keep.update(rest[: target - len(keep)])
    return verts, {p: full[p] for p in sorted(keep)}, full


def cantor(depth: int):
    """Truncated Cantor tree: binary strings of length <= depth, every
    comparable pair s < t weighted 2^-|s| - 2^-|t|."""
    verts = sorted("".join(bits) for k in range(depth + 1) for bits in product("01", repeat=k))
    edges = {}
    for s, t in combinations(verts, 2):
        if t.startswith(s):
            edges[(s, t)] = cantor_envelope(s, t)
    return verts, edges


def cantor_envelope(s: str, t: str) -> Fraction:
    """Closed form of the Cantor-tree lower envelope: |2^-|s| - 2^-|t||."""
    return abs(Fraction(1, 2 ** len(s)) - Fraction(1, 2 ** len(t)))


def patchwork(rng: random.Random, n_base: int, piece_sizes, gates_per_piece: int):
    """Base plus pieces, all cut from one strict taxicab metric.

    Members agree on gateways because they share one ambient metric; strict
    triangle inequalities make every gateway slack positive, so the
    floppiness certificate applies.  Returns (base, pieces) as
    (vertices, edges) pairs with every member full.
    """
    base = labels(n_base, "b")
    outside = [labels(k, f"p{i}x") for i, k in enumerate(piece_sizes)]
    every = base + [v for group in outside for v in group]
    metric = strict_taxicab(dict(zip(every, grid_points(rng, len(every)))))

    def member(vs):
        vs = sorted(vs)
        return vs, {p: metric[p] for p in combinations(vs, 2)}

    pieces = [member(rng.sample(base, gates_per_piece) + group) for group in outside]
    return member(base), pieces


def floyd_warshall(verts, edges) -> dict:
    """Exact all-pairs shortest paths; None marks unreachable pairs."""
    idx = {v: i for i, v in enumerate(verts)}
    n = len(verts)
    dist = [[Fraction(0) if i == j else None for j in range(n)] for i in range(n)]
    for (u, v), w in edges.items():
        i, j = idx[u], idx[v]
        if dist[i][j] is None or w < dist[i][j]:
            dist[i][j] = dist[j][i] = w
    for k in range(n):
        dk = dist[k]
        for i in range(n):
            dik = dist[i][k]
            if dik is None:
                continue
            di = dist[i]
            for j in range(n):
                if dk[j] is not None and (di[j] is None or dik + dk[j] < di[j]):
                    di[j] = dik + dk[j]
    return {(u, v): dist[idx[u]][idx[v]] for u in verts for v in verts}


def full_metric_problems(verts, edges) -> list:
    """Reasons the weights are not a full graph metric (empty when they are)."""
    problems = []
    n = len(verts)
    if len(edges) != n * (n - 1) // 2:
        problems.append(f"{len(edges)} edges, a full metric on {n} vertices has {n * (n - 1) // 2}")
    if any(w <= 0 for w in edges.values()):
        problems.append("non-positive weight")
    dist = floyd_warshall(verts, edges)
    for (u, v), w in edges.items():
        if dist[(u, v)] != w:
            problems.append(f"edge {u},{v} has weight {w} above its shortest chain {dist[(u, v)]}")
            break
    return problems
