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
"""

import copy
import json
import random

import pytest

from floppymetrics.cli import main

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
