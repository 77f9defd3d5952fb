"""A seeded fuzzer that drives every CLI subcommand in process through ``cli.main``.

Three documents, the H-graph, a two-member patchwork and a three-pair choice
map, are each mutated one to three times per mutant with a fixed seed, and
every command reads the mutants of its kind; ``gen`` reads odd option values
instead.  A mutation replaces a value, drops a key or item, or repeats an
item.  Most replacement values are valid but odd (other labels, other
weights, zero, negative and large rationals, empty containers), so that many
mutants reach exit 0 and exit 1.  The rest are hostile: ``None``, bools,
floats, NaN, ``"1/0"``, ``"1_0"``, 10**400, a 5,000-digit string and nested
copies of the document.

Whatever the input, ``main`` must return 0, 1 or 2, let no exception
escape, and write one JSON document to stdout (DOT for ``validate --dot``),
or nothing when argparse rejects the command line.

Two more mutations keep a metric document valid, so that every mutant
reaches the library: renaming one vertex everywhere, and multiplying every
weight by one positive rational k.  What follows from the definitions is
asserted.  hat, check and dd are sums and differences of weights, so
``query`` scales by k and a rename leaves it alone.  Floppiness compares
hat with check, so the ``floppy`` verdict and the least gap survive both,
the gap scaled by k.  ``extend`` takes its values from those numbers, so
scaling scales its whole trace; a rename permutes its steps' pairs, and one
that keeps the label's place in the sorted order renames the trace.

A third valid mutation adds an edge at a missing pair uv.  At weight
hat(u, v) the document stays a graph metric and no ``query --hat`` changes,
since a shortest chain already realizes the new weight.  At a weight in the
pair's admissible interval [check/3 + 2 hat/3, hat) a floppy document stays
floppy, by the one-step extension theorem.
"""

import copy
import json
import random
from fractions import Fraction
from itertools import combinations

import pytest

from floppymetrics.cli import main
from floppymetrics.generators import cantor_tree, random_floppy
from floppymetrics.serialize import metric_to_doc

H_GRAPH = {"vertices": ["a", "b", "x", "y"], "edges": [
    {"u": "a", "v": "b", "w": "10"}, {"u": "a", "v": "x", "w": "1"}, {"u": "b", "v": "y", "w": "1"}]}
PATCHWORK = {
    "base": {"vertices": ["a", "b"], "edges": [{"u": "a", "v": "b", "w": "2"}]},
    "pieces": [{"vertices": ["a", "x"], "edges": [{"u": "a", "v": "x", "w": "1"}]},
               {"vertices": ["b", "y"], "edges": [{"u": "b", "v": "y", "w": "1"}]}],
}
CHOICE_MAP = {"a,y": {"points": ["21/2"]}, "b,x": {"points": ["21/2"], "intervals": [["10", "11"]]},
              "x,y": {"intervals": [["0", None]]}}

LABELS = ["a", "b", "x", "y", "z", "", "a,b"]
WEIGHTS = ["0", "1", "2", "3", "1/3", "21/2", "11", "12", "-1", "0/5", "4/2", "123456789/1000", 0, 5, 10**30]
HOSTILE = [None, True, False, 1.5, float("nan"), "1/0", "1_0", 10**400, "9" * 5000]

COMMANDS = {
    "metric": [
        ["validate", "{doc}"], ["validate", "--dot", "{doc}"], ["query", "--hat", "a", "y", "{doc}"],
        ["query", "--check", "x", "y", "{doc}"], ["query", "--ddot", "a,b", "x,y", "{doc}"], ["floppy", "{doc}"],
        ["step", "--pair", "x,y", "--r", "34/3", "{doc}"], ["pstep", "--pair", "x,y", "--r", "34/3", "{doc}"],
        ["extend", "{doc}"], ["extend", "--order", "maxgap", "{doc}"], ["extend", "--order", "random:3", "{doc}"],
        ["game", "play", "--p2", "adversary", "{doc}"], ["game", "play", "--p2", "mid", "--lambda", "4", "{doc}"],
    ],
    "choice-map": [["extend", "--choice", "set-file:{doc}", "{h}"]],
    "patchwork": [["glue", "{doc}"], ["glue", "--cert", "{doc}"], ["glue", "--hat", "x", "y", "{doc}"],
                  ["glue", "--check-only", "{doc}"]],
}
DOCUMENTS = {"metric": H_GRAPH, "choice-map": CHOICE_MAP, "patchwork": PATCHWORK}
MUTANTS = 300
GEN_INTS = ["0", "1", "2", "3", "-1", "+2", " 2", "0_3", "x", "2.0"]
GEN_RATIONALS = ["1/2", "0", "1", "3/2", "-1", "1/0", "1_0", "NaN", "1e3", "0.5"]


def replacement(rng, doc, old):
    """Three times in four a valid-but-odd value of the old one's kind, a label for a label and a weight
    for anything else; otherwise a hostile value or a nested copy."""
    if rng.random() < 0.25:
        return rng.choice([*HOSTILE, copy.deepcopy(doc), [old], {"w": old}])
    return rng.choice(LABELS if isinstance(old, str) and old.isalpha() else WEIGHTS)


def mutate(rng, doc):
    """A copy of ``doc`` with one slot, a label or a number three times in four, replaced, dropped or repeated."""
    doc = copy.deepcopy(doc)
    slots = []

    def walk(node):
        for key, value in node.items() if isinstance(node, dict) else enumerate(node):
            slots.append((node, key))
            if isinstance(value, (dict, list)):
                walk(value)

    walk(doc)
    leaves = [(node, key) for node, key in slots if not isinstance(node[key], (dict, list))]
    node, key = rng.choice(leaves if rng.random() < 0.75 else slots)
    roll = rng.random()
    if isinstance(node, list) and roll < 0.3:
        if roll < 0.2:
            del node[key]
        else:
            node.insert(key, copy.deepcopy(node[key]))
    elif roll < 0.05:
        del node[key]
    else:
        node[key] = replacement(rng, doc, node[key])
    return doc


def mutants(kind):
    rng = random.Random(f"fuzz-{kind}")
    out = []
    for _ in range(MUTANTS):
        doc = DOCUMENTS[kind]
        for _ in range(rng.randint(1, 3)):
            doc = mutate(rng, doc)
        out.append(doc)
    return out


def gen_argvs():
    rng = random.Random("fuzz-gen")
    for _ in range(MUTANTS):
        n, depth, seed = (rng.choice(GEN_INTS) for _ in range(3))
        density, scale = (rng.choice(GEN_RATIONALS) for _ in range(2))
        yield rng.choice([
            ["gen", "cantor", "--depth", depth],
            ["gen", rng.choice(["path", "cycle", "star", "complete"]), "--n", n, "--scale", scale],
            ["gen", "random", "--n", n, "--density", density, "--seed", seed, "--scale", scale],
        ])


def assert_one_document(capsys, argv):
    """Run ``main`` on ``argv`` and check its exit code and output; return the code."""
    code = main(argv)
    out, err = capsys.readouterr()
    assert code in (0, 1, 2), argv
    if out == "":
        assert code == 2 and err.startswith("usage:"), argv  # argparse rejected the command line
    elif "--dot" in argv and code == 0:
        assert out.startswith("graph metric {") and out.endswith("}\n"), argv
    else:
        json.loads(out)  # exactly one JSON document, or this raises
        assert err == "", argv
    return code


@pytest.mark.parametrize("kind", sorted(DOCUMENTS))
def test_mutated_documents(capsys, tmp_path, kind):
    h = tmp_path / "h.json"
    h.write_text(json.dumps(H_GRAPH))
    codes = set()
    for k, doc in enumerate(mutants(kind)):
        path = tmp_path / f"{k}.json"
        path.write_text(json.dumps(doc))
        for argv in COMMANDS[kind]:
            argv = [arg.format(doc=path, h=h) for arg in argv]
            codes.add(assert_one_document(capsys, argv))
    assert codes >= {0, 2}, codes  # the mutants reach the library, not only the reader


def test_odd_gen_options(capsys):
    codes = {assert_one_document(capsys, argv) for argv in gen_argvs()}
    assert codes >= {0, 2}, codes


COLLINEAR = {"vertices": ["a", "b", "c", "d"], "edges": [  # not floppy: check(a, c) = hat(a, c) = 2
    {"u": "a", "v": "b", "w": "1"}, {"u": "a", "v": "d", "w": "3"}, {"u": "b", "v": "c", "w": "1"},
    {"u": "b", "v": "d", "w": "2"}, {"u": "c", "v": "d", "w": "1"}]}
VALID_BASES = [H_GRAPH, COLLINEAR, metric_to_doc(cantor_tree(2)),
               *(metric_to_doc(random_floppy(6, Fraction(1, 2), seed)) for seed in (1, 2))]
NEW_LABELS = ["z", "", "a,b", "q\\", "\u00e9", "0", "~", "a0", "x\\,"]
VALID_MUTANTS = 120


def pair_text(u, v):
    """``--pair`` text of two labels, with ``\\,`` for a comma and ``\\\\`` for a backslash."""
    return ",".join(label.replace("\\", "\\\\").replace(",", "\\,") for label in (u, v))


def run(capsys, path, *argv):
    code = main([*argv, str(path)])
    return code, json.loads(capsys.readouterr().out)


def scaled(value, k):
    """A JSON result with every string multiplied by ``k`` as a rational, except under the keys that hold labels."""
    if isinstance(value, dict):
        return {key: scaled(v, k) if key not in ("u", "v", "pair", "worst_pair", "vertices") else v
                for key, v in value.items()}
    if isinstance(value, list):
        return [scaled(v, k) for v in value]
    return str(Fraction(value) * k) if isinstance(value, str) else value


def test_valid_mutants_keep_the_invariants(capsys, tmp_path):
    rng = random.Random("fuzz-valid")
    counts = dict.fromkeys(("rename", "in_place", "scale", "extended", "not_floppy"), 0)
    for index in range(VALID_MUTANTS):
        doc = rng.choice(VALID_BASES)
        labels = sorted(doc["vertices"])
        x, y = rng.choice(labels), rng.choice(labels)
        p, q = rng.sample(labels, 2), rng.sample(labels, 2)
        if rng.random() < 0.5:
            k, old, new = Fraction(rng.randrange(1, 30), rng.randrange(1, 30)), None, None
            mutant = {"vertices": doc["vertices"],
                      "edges": [{**e, "w": str(Fraction(e["w"]) * k)} for e in doc["edges"]]}
            name = {v: v for v in labels}
            counts["scale"] += 1
        else:
            k, old = 1, rng.choice(labels)
            # half the time a label next to the old one, which keeps its sorted place: no label lies between s and s + " "
            new = old + " " if rng.random() < 0.5 else rng.choice([v for v in NEW_LABELS if v not in labels])
            name = {v: new if v == old else v for v in labels}
            mutant = {"vertices": [name[v] for v in doc["vertices"]],
                      "edges": [{**e, "u": name[e["u"]], "v": name[e["v"]]} for e in doc["edges"]]}
            counts["rename"] += 1
        before, after = tmp_path / f"{index}.json", tmp_path / f"{index}-mutant.json"
        before.write_text(json.dumps(doc))  # a new file each time: rewriting one file is slow on some file systems
        after.write_text(json.dumps(mutant))
        queries = [["--hat", x, y], ["--check", x, y], ["--ddot", pair_text(*p), pair_text(*q)]]
        renamed = [["--hat", name[x], name[y]], ["--check", name[x], name[y]],
                   ["--ddot", pair_text(*map(name.get, p)), pair_text(*map(name.get, q))]]
        for argv, argv_mutant in zip(queries, renamed):
            _, value = run(capsys, before, "query", *argv)
            assert run(capsys, after, "query", *argv_mutant) == (0, scaled(value, k)), (mutant, argv)

        _, floppy = run(capsys, before, "floppy")
        _, floppy_mutant = run(capsys, after, "floppy")
        assert floppy_mutant["floppy"] == floppy["floppy"], mutant
        assert Fraction(floppy_mutant["gap"]) == Fraction(floppy["gap"]) * k, mutant
        assert old is not None or floppy_mutant["worst_pair"] == floppy["worst_pair"], mutant

        code, trace = run(capsys, before, "extend")
        code_mutant, trace_mutant = run(capsys, after, "extend")
        assert code == code_mutant == (0 if floppy["floppy"] else 1), mutant
        if code == 1:
            counts["not_floppy"] += 1
            error, details = trace_mutant["error"], trace_mutant["details"]
            assert (error, Fraction(details["gap"])) == (trace["error"], Fraction(trace["details"]["gap"]) * k)
            assert old is not None or details["pair"] == trace["details"]["pair"], mutant
            continue
        counts["extended"] += 1
        steps = [{**s, "pair": sorted(map(name.get, s["pair"]))} for s in trace["steps"]]
        if old is None:
            assert trace_mutant == scaled(trace, k), mutant
        elif sorted(name.values()).index(new) == labels.index(old):  # the rename keeps the sorted order
            counts["in_place"] += 1
            assert trace_mutant["steps"] == steps, mutant
        else:
            assert sorted(s["pair"] for s in trace_mutant["steps"]) == sorted(s["pair"] for s in steps), mutant
    assert min(counts.values()) > 0, counts


ADDED_EDGES = 120


def test_added_edges_keep_the_invariants(capsys, tmp_path):
    rng = random.Random("fuzz-added-edge")
    hats, floppy = {}, {}  # per base file: the hat of every vertex pair and the floppy verdict, each read once
    counts = {"at_hat": 0, "admissible": 0}
    for index in range(ADDED_EDGES):
        doc = rng.choice(VALID_BASES)
        before, after = tmp_path / f"base-{VALID_BASES.index(doc)}.json", tmp_path / f"{index}-added.json"
        if before not in hats:
            before.write_text(json.dumps(doc))
            pairs = combinations(sorted(doc["vertices"]), 2)
            hats[before] = {p: run(capsys, before, "query", "--hat", *p) for p in pairs}
            floppy[before] = run(capsys, before, "floppy")[1]["floppy"]
        edges = {frozenset((e["u"], e["v"])) for e in doc["edges"]}
        u, v = rng.choice([p for p in hats[before] if frozenset(p) not in edges])
        hat = Fraction(hats[before][u, v][1]["value"])
        admissible = floppy[before] and rng.random() < 0.5
        if admissible:
            check = Fraction(run(capsys, before, "query", "--check", u, v)[1]["value"])
            lo = check / 3 + 2 * hat / 3
            w = lo + (hat - lo) * Fraction(rng.randrange(64), 64)  # lo itself one time in 64
        else:
            w = hat
        edge = {"u": u, "v": v, "w": str(w)} if rng.random() < 0.5 else {"u": v, "v": u, "w": str(w)}
        at = rng.randrange(len(doc["edges"]) + 1)
        mutant = {"vertices": doc["vertices"], "edges": [*doc["edges"][:at], edge, *doc["edges"][at:]]}
        after.write_text(json.dumps(mutant))
        if admissible:
            counts["admissible"] += 1
            code, report = run(capsys, after, "floppy")
            assert (code, report["floppy"]) == (0, True), mutant
        else:
            counts["at_hat"] += 1
            code, report = run(capsys, after, "validate")
            assert (code, report["graph_metric"]) == (0, True), mutant
            assert {p: run(capsys, after, "query", "--hat", *p) for p in hats[before]} == hats[before], mutant
    assert min(counts.values()) > 0, counts
