"""Golden tests: the exact bytes of every kind of JSON document.

``test_cli.py`` parses the CLI's output into dicts, which hides key order;
these tests compare stdout byte for byte with the files in ``tests/golden/``.
The two largest outputs, ``extend --order maxgap`` and ``game play --p2 mid``
on the Cantor depth-4 tree (about 100 KB each), are pinned by the SHA-256 of
their stdout in ``tests/golden/cantor4.sha256.json`` instead of a file.
A document that is meant to change is re-recorded with
``PYTHONPATH=src python tests/test_golden.py``, and the diff is reviewed.
"""

import hashlib
import io
import json
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from floppymetrics import PartialMetric, Patchwork, dump_metric, pair, patchwork_to_doc
from floppymetrics.cli import main
from floppymetrics.extension import full_extend
from floppymetrics.game import ChoiceSet, replay_sabotage, sabotage_witness
from floppymetrics.generators import cantor_tree

GOLDEN = Path(__file__).with_name("golden")

H_GRAPH = PartialMetric(["a", "b", "x", "y"], {pair("a", "b"): 10, pair("a", "x"): 1, pair("b", "y"): 1})
# A forced non-edge: check(a,c) = hat(a,c) = 2, so the metric is not floppy.
COLLINEAR = PartialMetric(
    ["a", "b", "c", "d"],
    {pair("a", "b"): 1, pair("b", "c"): 1, pair("c", "d"): 1, pair("a", "d"): 3, pair("b", "d"): 2},
)
PATH_ABCD = PartialMetric(["a", "b", "c", "d"], {pair("a", "b"): 1, pair("b", "c"): 1, pair("c", "d"): 1})
TWO_POINT_BASE = PartialMetric(["a", "b"], {pair("a", "b"): 2})
PATCHWORKS = {
    "certified": Patchwork(
        TWO_POINT_BASE,
        [PartialMetric(["a", "x"], {pair("a", "x"): 1}), PartialMetric(["b", "y"], {pair("b", "y"): 1})],
    ),
    # x lies on the geodesic between the gateways: zero slack, no certificate.
    "zero_slack": Patchwork(
        TWO_POINT_BASE,
        [PartialMetric(["a", "b", "x"], {pair("a", "b"): 2, pair("a", "x"): 1, pair("b", "x"): 1})],
    ),
    # The piece says 1 where the base says 2.
    "invalid": Patchwork(TWO_POINT_BASE, [PartialMetric(["a", "b"], {pair("a", "b"): 1})]),
}

# name -> (argv with {file} for the input document, input, expected exit code)
CLI_CASES = {
    "validate": (["validate", "{file}"], H_GRAPH, 0),
    "query_hat": (["query", "--hat", "x", "y", "{file}"], H_GRAPH, 0),
    "floppy": (["floppy", "{file}"], H_GRAPH, 0),
    "floppy_not": (["floppy", "{file}"], COLLINEAR, 0),
    "step": (["step", "--pair", "x,y", "--r", "34/3", "{file}"], H_GRAPH, 0),
    "pstep": (["pstep", "--pair", "x,y", "--r", "34/3", "{file}"], H_GRAPH, 0),
    "extend": (["extend", "{file}"], H_GRAPH, 0),
    "game_win": (["game", "play", "--p2", "random:3", "--lambda", "4", "{file}"], H_GRAPH, 0),
    "game_missing_pair": (["game", "play", "--p2", "adversary", "--lambda", "1", "{file}"], H_GRAPH, 0),
    "glue": (["glue", "{file}"], PATCHWORKS["certified"], 0),
    "glue_cert": (["glue", "--cert", "{file}"], PATCHWORKS["certified"], 0),
    "glue_cert_zero_slack": (["glue", "--cert", "{file}"], PATCHWORKS["zero_slack"], 0),
    "glue_check_only": (["glue", "--check-only", "{file}"], PATCHWORKS["certified"], 0),
    "glue_check_only_invalid": (["glue", "--check-only", "{file}"], PATCHWORKS["invalid"], 0),
    "error_not_floppy": (["game", "play", "{file}"], COLLINEAR, 1),
    "error_r_out_of_range": (["step", "--pair", "x,y", "--r", "12", "{file}"], H_GRAPH, 1),
}
CANTOR_4 = cantor_tree(4)
# Pinned by digest only, in DIGESTS; the benchmark's digests cover Cantor-4 in lex order alone.
DIGEST_CASES = {
    "cantor4_extend_maxgap": (["extend", "--order", "maxgap", "{file}"], CANTOR_4, 0),
    "cantor4_game_mid": (["game", "play", "--p2", "mid", "{file}"], CANTOR_4, 0),
}
DIGESTS = GOLDEN / "cantor4.sha256.json"


def _write_input(doc, path):
    if isinstance(doc, Patchwork):
        path.write_text(json.dumps(patchwork_to_doc(doc)))
    else:
        dump_metric(doc, path)


def _cli_stdout(name, tmp_path):
    argv, doc, _ = {**CLI_CASES, **DIGEST_CASES}[name]
    path = tmp_path / f"{name}.json"
    _write_input(doc, path)
    out = io.StringIO()
    with redirect_stdout(out):
        code = main([arg.format(file=path) for arg in argv])
    return code, out.getvalue()


def _library_documents():
    """Reports that only the Python API makes, rendered as the CLI renders its output."""
    sets = {d: ChoiceSet.of_points(1, 100) for d in PATH_ABCD.non_edges()}
    plan = sabotage_witness(PATH_ABCD, sets)
    mixed = ChoiceSet(points=["5/2", "1"], intervals=[("1/3", "1/2"), (7, None)])
    ay, bx, xy = H_GRAPH.non_edges()
    # In lex order: {a,y} takes the unused point 21/2, {b,x} has only that point left in
    # its interval and reuses it, and {x,y} bisects inside its interval (1/2, 45/4).
    choice = {
        ay: ChoiceSet.of_points(1, "21/2"),
        bx: ChoiceSet.of_points("21/2", 50),
        xy: ChoiceSet(points=[3], intervals=[("1/2", "45/4")]),
    }
    return {
        "sabotage_plan": plan.to_json(),
        "sabotage_replay": replay_sabotage(PATH_ABCD, sets, plan).to_json(),
        "choice_set": mixed.to_json(),
        "extend_random7": full_extend(cantor_tree(3), order="random:7").to_json(),
        "extend_choice_map": full_extend(H_GRAPH, choice=choice).to_json(),
    }


@pytest.mark.parametrize("name", sorted(CLI_CASES))
def test_cli_bytes(name, tmp_path):
    code, out = _cli_stdout(name, tmp_path)
    assert code == CLI_CASES[name][2]
    assert out == (GOLDEN / f"{name}.json").read_text()


@pytest.mark.parametrize("name", sorted(DIGEST_CASES))
def test_cli_digests(name, tmp_path):
    code, out = _cli_stdout(name, tmp_path)
    assert code == DIGEST_CASES[name][2]
    assert hashlib.sha256(out.encode()).hexdigest() == json.loads(DIGESTS.read_text())[name]


@pytest.mark.parametrize("name", sorted(_library_documents()))
def test_library_bytes(name):
    out = json.dumps(_library_documents()[name], indent=2) + "\n"
    assert out == (GOLDEN / f"{name}.json").read_text()


def _record():
    """Rewrite every golden file and digest from the current code."""
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        outputs = {name: _cli_stdout(name, Path(tmp))[1] for name in CLI_CASES}
        digests = {name: hashlib.sha256(_cli_stdout(name, Path(tmp))[1].encode()).hexdigest() for name in DIGEST_CASES}
    outputs.update({name: json.dumps(doc, indent=2) + "\n" for name, doc in _library_documents().items()})
    for name, text in outputs.items():
        path = GOLDEN / f"{name}.json"
        path.write_text(text)
        print(f"wrote {path}")
    DIGESTS.write_text(json.dumps(digests, indent=2) + "\n")
    print(f"wrote {DIGESTS}")


if __name__ == "__main__":
    _record()
