"""The three benchmark workloads as lists of jobs.

A job is one call sequence a user would make.  ``run`` is the only timed
part; ``render`` turns its result into the canonical text whose digest is
compared across passes and against the recorded digests; ``check`` returns
the reasons the result is wrong (empty when it is right).  Both run outside
the timed region.

Jobs call the library through module attributes (``lib.core.is_floppy``),
never through names bound at import, so the tracer's wrappers see them.
Every job builds fresh library objects from plain data, so no distance table
or envelope memo carries over from one job or pass to the next.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Callable

import instances as inst

DENSITIES = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))


@dataclass
class Job:
    id: str
    kind: str
    pairs: int  # missing pairs the job decides: gaps, extension steps or innings
    run: Callable[[], object]
    render: Callable[[object], str]
    check: Callable[[object], list]


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def sub_rng(seed: int, tag: str) -> random.Random:
    """Independent stream per input, so inputs do not depend on build order."""
    return random.Random(f"{seed}/{tag}")


def write_doc(path, verts, edges):
    doc = {
        "vertices": list(verts),
        "edges": [{"u": u, "v": v, "w": str(w)} for (u, v), w in sorted(edges.items())],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)


class Oracle:
    """Floyd-Warshall distances of one instance, computed on first use by a
    check (outside the timed region) and kept for later passes."""

    def __init__(self, verts, edges):
        self.verts, self.edges, self._dist = verts, edges, None

    def __getitem__(self, uv):
        if self._dist is None:
            self._dist = inst.floyd_warshall(self.verts, self.edges)
        return self._dist[uv]

    def ddot(self, p, q):
        return min(self[(p[0], q[0])] + self[(p[1], q[1])], self[(p[0], q[1])] + self[(p[1], q[0])])


# ---------------------------------------------------------------------------
# screen: read-only analysis through the public API.

QUERY_BATCHES = 9
# per batch: distances, pair distances, and envelopes of edges and of
# non-edges (only the latter are memoised by is_floppy), in fixed numbers so
# that every batch on an instance costs about the same
QUERY_MIX = (("hat", 12), ("ddot", 12), ("check-edge", 8), ("check-gap", 8))


def _screen_instance(lib, rng, tag, verts, edges, ambient):
    """validate, then is_floppy, then seeded query batches on one metric."""
    jobs = []
    held = {}
    oracle = Oracle(verts, edges)
    non_edges = [p for p in combinations(verts, 2) if p not in edges]

    def run_validate():
        held["m"] = lib.core.PartialMetric(verts, edges)
        return lib.core.validate(held["m"])

    def check_validate(rep):
        ok = rep.connected and rep.graph_metric and not rep.full
        return [] if ok else [f"validate says {rep.to_json()} for a connected non-full graph metric"]

    def check_floppy(rep):
        # lemma: a connected spanning subgraph of a strict metric is floppy
        return [] if rep.floppy else [f"is_floppy says {rep.to_json()}, the lemma says floppy"]

    jobs.append(Job(f"{tag}/validate", "validate", 0, run_validate, lambda r: canonical(r.to_json()), check_validate))
    jobs.append(Job(
        f"{tag}/is_floppy", "is_floppy", len(non_edges),
        lambda: lib.core.is_floppy(held["m"]), lambda r: canonical(r.to_json()), check_floppy,
    ))

    every = list(combinations(verts, 2))
    pools = {"hat": every, "ddot": every, "check-edge": list(edges), "check-gap": non_edges}
    for b in range(QUERY_BATCHES):
        queries = [(kind, rng.choice(pools[kind]), rng.choice(every)) for kind, count in QUERY_MIX
                   for _ in range(count)]
        rng.shuffle(queries)

        def run_queries(queries=queries):
            m, core = held["m"], lib.core
            out = []
            for kind, p, q in queries:
                if kind == "hat":
                    out.append(core.shortest_path(m, *p))
                elif kind.startswith("check"):
                    out.append(core.lower_envelope(m, *p))
                else:
                    out.append(core.doubleton_dist(m, core.pair(*p), core.pair(*q)))
            return out

        def check_queries(values, queries=queries):
            bad = []
            for (kind, p, q), got in zip(queries, values):
                if kind == "hat":
                    ok = got == oracle[p]
                elif kind.startswith("check"):
                    # an edge is its own envelope; a non-edge's envelope lies
                    # below the strict ambient value, which lies below hat
                    ok = got == edges[p] if p in edges else got <= ambient[p] < oracle[p]
                else:
                    ok = got == oracle.ddot(p, q)
                if not ok:
                    bad.append(f"{kind} {p} {q} gave {got}")
            return bad[:3]

        jobs.append(Job(
            f"{tag}/queries{b}", "queries", 0, run_queries,
            lambda vals: canonical([str(v) for v in vals]), check_queries,
        ))
    return jobs


def _cantor_screen(lib, depth):
    verts, edges = inst.cantor(depth)
    every = list(combinations(verts, 2))

    def run():
        m = lib.core.PartialMetric(verts, edges)
        core = lib.core
        rep = core.validate(m), core.is_floppy(m)
        return rep, [core.lower_envelope(m, s, t) for s, t in every]

    def render(res):
        (val, flop), env = res
        return canonical([val.to_json(), flop.to_json(), [str(c) for c in env]])

    def check(res):
        (val, flop), env = res
        bad = [] if val.graph_metric and flop.floppy else ["Cantor tree not a floppy graph metric"]
        bad += [f"envelope {s},{t} = {c}" for (s, t), c in zip(every, env) if c != inst.cantor_envelope(s, t)][:3]
        return bad

    n_non_edges = len(every) - len(edges)
    return Job(f"cantor{depth}", "cantor", n_non_edges, run, render, check)


def _glue_jobs(lib, rng, tag, n_base, piece_sizes, gates):
    base, pieces = inst.patchwork(rng, n_base, piece_sizes, gates)
    members = [base] + pieces
    union = {}
    for _, es in members:
        union.update(es)
    verts = sorted({v for vs, _ in members for v in vs})
    oracle = Oracle(verts, union)
    cross = [p for p in combinations(verts, 2) if not any(p[0] in vs and p[1] in vs for vs, _ in members)]
    n_non_edges = len(verts) * (len(verts) - 1) // 2 - len(union)

    def patchwork():
        return lib.glue.Patchwork(lib.core.PartialMetric(*base), [lib.core.PartialMetric(*p) for p in pieces])

    def check_cert(rep):
        bad = [] if rep.certified and rep.glued_floppy else [f"not certified: {rep.slack_failures[:2]}"]
        bad += [f"bound {b.pair}: gap {b.measured_gap} < delta {b.delta}" for b in rep.bounds
                if not 0 < b.delta <= b.measured_gap][:3]
        return bad

    def run_hat():
        pw, glue_hat = patchwork(), lib.glue.glue_hat
        return [glue_hat(pw, x, y) for x, y in cross]

    def check_hat(values):
        return [f"glue_hat {p} = {v}" for p, v in zip(cross, values) if v != oracle[p]][:3]

    return [
        Job(f"{tag}/cert", "certificate", n_non_edges,
            lambda: lib.glue.floppy_certificate(patchwork()), lambda r: canonical(r.to_json()), check_cert),
        Job(f"{tag}/glue_hat", "glue_hat", 0, run_hat, lambda vals: canonical([str(v) for v in vals]), check_hat),
    ]


def build_screen(lib, seed, workdir):
    jobs = []
    for n in (20, 30, 40):
        for density in DENSITIES:
            tag = f"c{n}-{density.numerator}q{density.denominator}"
            rng = sub_rng(seed, tag)
            verts, edges, ambient = inst.constructive(rng, n, density)
            jobs += _screen_instance(lib, rng, tag, verts, edges, ambient)
    jobs.append(_cantor_screen(lib, 4))
    # glued n = 15, 25 and 35
    for tag, n_base, sizes in (("pw15", 5, (5, 5)), ("pw25", 7, (6, 6, 6)), ("pw35", 8, (7, 7, 7, 6))):
        jobs += _glue_jobs(lib, sub_rng(seed, tag), tag, n_base, sizes, 3)
    return jobs


# ---------------------------------------------------------------------------
# extend: the write path through cli.main.

def run_cli(lib, argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = lib.cli.main(argv)
    return code, buf.getvalue()


def render_cli(res):
    code, out = res
    return f"{code}\n{out}"


def _extend_job(lib, tag, path, verts, edges, order, choice_path=None):
    non_edges = [p for p in combinations(verts, 2) if p not in edges]
    argv = ["extend", "--order", order]
    if choice_path:
        argv += ["--choice", f"set-file:{choice_path}"]
    argv.append(path)

    def check(res):
        code, out = res
        if code != 0:
            return [f"exit code {code}: {out[:200]}"]
        doc = json.loads(out)
        bad = []
        steps = doc["steps"]
        if sorted(tuple(s["pair"]) for s in steps) != non_edges:
            bad.append("steps do not cover exactly the missing pairs")
        values = []
        for s in steps:
            v, lo, hi = (Fraction(x) for x in (s["value"], s["interval"]["lo"], s["interval"]["hi"]))
            values.append(v)
            if not lo <= v < hi:
                bad.append(f"step {s['pair']} value {v} outside [{lo}, {hi})")
        if choice_path and len(set(values)) != len(values):
            bad.append("set-choice values are not pairwise distinct")
        res_verts = doc["result"]["vertices"]
        res_edges = {inst.key(e["u"], e["v"]): Fraction(e["w"]) for e in doc["result"]["edges"]}
        if any(res_edges.get(p) != w for p, w in edges.items()):
            bad.append("result changed a base edge")
        return bad + inst.full_metric_problems(res_verts, res_edges)

    kind = "extend-set" if choice_path else f"extend-{order}"
    return Job(tag, kind, len(non_edges), lambda: run_cli(lib, argv), render_cli, check)


def _pstep_jobs(lib, rng, tag, path, verts, edges, ambient, count):
    oracle = Oracle(verts, edges)
    non_edges = [p for p in combinations(verts, 2) if p not in edges]
    jobs = []
    for k, p in enumerate(rng.sample(non_edges, count)):
        # r inside the proposition range [check, hat]: the strict ambient value
        # lies there, and so does any point between it and hat
        r = ambient[p] if k % 2 == 0 else (ambient[p] + oracle[p]) / 2
        argv = ["pstep", "--pair", ",".join(p), "--r", str(r), path]

        def check(res):
            code, out = res
            if code != 0:
                return [f"exit code {code}: {out[:200]}"]
            rep = json.loads(out)
            return [] if rep["ok"] else [f"step statements fail: {rep['statements']}"]

        jobs.append(Job(f"{tag}/pstep{k}", "pstep", 1, lambda argv=argv: run_cli(lib, argv), render_cli, check))
    return jobs


def build_extend(lib, seed, workdir):
    jobs = []

    def place(name, verts, edges):
        path = os.path.join(workdir, f"{name}.json")
        write_doc(path, verts, edges)
        return path

    verts, edges = inst.cantor(4)
    jobs.append(_extend_job(lib, "cantor4/lex", place("cantor4", verts, edges), verts, edges, "lex"))
    for n in range(18, 25):
        verts, edges, _ = inst.constructive(sub_rng(seed, f"lex{n}"), n, Fraction(3, 4))
        jobs.append(_extend_job(lib, f"c{n}/lex", place(f"lex{n}", verts, edges), verts, edges, "lex"))
    for n in range(10, 14):
        verts, edges, _ = inst.constructive(sub_rng(seed, f"maxgap{n}"), n, Fraction(1, 2))
        jobs.append(_extend_job(lib, f"c{n}/maxgap", place(f"maxgap{n}", verts, edges), verts, edges, "maxgap"))
    for n in range(14, 18):
        verts, edges, _ = inst.constructive(sub_rng(seed, f"set{n}"), n, Fraction(1, 2))
        sets = {f"{u},{v}": {"intervals": [["0", None]]} for u, v in combinations(verts, 2) if (u, v) not in edges}
        choice_path = os.path.join(workdir, f"sets{n}.json")
        with open(choice_path, "w") as fh:
            json.dump(sets, fh)
        jobs.append(_extend_job(lib, f"c{n}/set", place(f"set{n}", verts, edges), verts, edges, "lex", choice_path))
    for n in range(9, 14):
        rng = sub_rng(seed, f"pstep{n}")
        verts, edges, ambient = inst.constructive(rng, n, Fraction(1, 2))
        jobs += _pstep_jobs(lib, rng, f"c{n}", place(f"pstep{n}", verts, edges), verts, edges, ambient, 17)
    return jobs


# ---------------------------------------------------------------------------
# game: many refereed games through play.

def _game_job(lib, tag, verts, edges, make_p2, burn):
    n_missing = len(verts) * (len(verts) - 1) // 2 - len(edges)
    length = n_missing + burn

    def run():
        base = lib.core.PartialMetric(verts, edges)
        return lib.game.play(base, length, lib.game.winning_player_one(base), make_p2())

    def check(t):
        bad = [] if t.verdict == lib.game.PLAYER_I_WINS else [f"verdict {t.verdict}: {t.reason.to_json()}"]
        return bad + ([] if len(t.moves) == length else [f"{len(t.moves)} innings, expected {length}"])

    return Job(tag, "game", length, run, lambda t: canonical(t.to_json()), check)


def _opponents(lib, rng):
    game = lib.game
    return {
        "low": lambda: game.ProbeSecondPlayer("low"),
        "high": lambda: game.ProbeSecondPlayer("high"),
        "mid": lambda: game.ProbeSecondPlayer("mid"),
        "adversary": lambda: game.adversary_player_two(),
        "random": (lambda s: lambda: game.RandomSecondPlayer(s))(rng.randrange(1 << 30)),
    }


def _sabotage_job(lib, rng, tag):
    """Criterion 6: a path a-b-c-d whose set at ac is wider than 3 ddot(ac, bd)."""
    w = [Fraction(rng.randrange(1, 9)) for _ in range(3)]
    verts = ["a", "b", "c", "d"]
    edges = {("a", "b"): w[0], ("b", "c"): w[1], ("c", "d"): w[2]}
    hat = inst.floyd_warshall(verts, edges)
    sep = min(w[0] + w[2], hat[("a", "d")] + w[1])  # ddot({a,c}, {b,d})
    spread = 3 * sep + rng.randrange(1, 20)
    point_sets = {
        p: (Fraction(1, 2), Fraction(1, 2) + spread) if p == ("a", "c") else (hat[p],)
        for p in combinations(verts, 2) if p not in edges
    }

    def run():
        game = lib.game
        base = lib.core.PartialMetric(verts, edges)
        sets = {lib.core.pair(*p): game.ChoiceSet.of_points(*pts) for p, pts in point_sets.items()}
        plan = game.sabotage_witness(base, sets)
        return plan, game.replay_sabotage(base, sets, plan)

    def render(res):
        plan, t = res
        return canonical([plan.to_json(), t.to_json()])

    def check(res):
        plan, t = res
        bad = [] if abs(plan.r_p - plan.r_q) > plan.separation else ["plan answers are not separated"]
        if t.verdict != lib.game.PLAYER_II_WINS or t.reason.kind != "POLYGONAL_VIOLATION" or not t.reason.detail["chain"]:
            bad.append(f"replay ended {t.verdict}: {t.reason.to_json()}")
        return bad

    return Job(tag, "sabotage", len(point_sets), run, render, check)


def build_game(lib, seed, workdir):
    jobs = []
    # criterion 5 scale: every opponent, burn innings 0-2
    for k in range(10):
        n = 4 + k % 2
        rng = sub_rng(seed, f"small{k}")
        verts, edges, _ = inst.constructive(rng, n, Fraction(1, 2))
        for i, (name, make) in enumerate(_opponents(lib, rng).items()):
            jobs.append(_game_job(lib, f"small{k}/{name}", verts, edges, make, i % 3))
        jobs.append(_game_job(lib, f"small{k}/random-exact", verts, edges, _opponents(lib, rng)["random"], 0))
    for n in range(8, 13):
        rng = sub_rng(seed, f"mid{n}")
        verts, edges, _ = inst.constructive(rng, n, Fraction(1, 2))
        opponents = _opponents(lib, rng)
        probes = ("low", "high", "mid")
        for i, name in enumerate((probes[n % 3], probes[(n + 1) % 3], "adversary", "random")):
            jobs.append(_game_job(lib, f"c{n}/{name}", verts, edges, opponents[name], (n + i) % 3))
    verts, edges = inst.cantor(3)
    opponents = _opponents(lib, sub_rng(seed, "cantor3"))
    for name in ("random", "adversary"):
        jobs.append(_game_job(lib, f"cantor3/{name}", verts, edges, opponents[name], 0))
    for k in range(20):
        jobs.append(_sabotage_job(lib, sub_rng(seed, f"sabotage{k}"), f"sabotage{k}"))
    return jobs


BUILDERS = {"screen": build_screen, "extend": build_extend, "game": build_game}
