import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from floppymetrics import (
    dump_metric, metric_from_doc, metric_to_doc, pair, patchwork_to_doc, path_metric, Patchwork, PartialMetric,
)
from floppymetrics.cli import main
from floppymetrics.errors import MalformedInputError
from floppymetrics.serialize import choice_map_from_doc


@pytest.fixture
def h_file(h_graph, tmp_path):
    path = tmp_path / "h.json"
    dump_metric(h_graph, path)
    return str(path)


@pytest.fixture
def pw_file(tmp_path):
    base = PartialMetric(["a", "b"], {pair("a", "b"): 2})
    pieces = (
        PartialMetric(["a", "x"], {pair("a", "x"): 1}),
        PartialMetric(["b", "y"], {pair("b", "y"): 1}),
    )
    path = tmp_path / "pw.json"
    path.write_text(json.dumps(patchwork_to_doc(Patchwork(base, pieces))))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.lstrip().startswith(("{", "[")) else out)


class TestValidate:
    def test_report(self, capsys, h_file):
        code, doc = run(capsys, "validate", h_file)
        assert code == 0
        assert doc["graph_metric"] and doc["connected"] and not doc["full"]

    def test_dot(self, capsys, h_file):
        code = main(["validate", "--dot", h_file])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("graph metric {")

    def test_missing_file(self, capsys, tmp_path):
        code, doc = run(capsys, "validate", str(tmp_path / "nope.json"))
        assert code == 2

    def test_garbage_json(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        code, doc = run(capsys, "validate", str(path))
        assert code == 2
        assert doc["error"] == "REJECT_MALFORMED"

    def test_bool_weight_rejected(self, capsys, tmp_path):
        path = tmp_path / "bool.json"
        path.write_text(json.dumps({"vertices": ["a", "b"], "edges": [{"u": "a", "v": "b", "w": True}]}))
        code, doc = run(capsys, "validate", str(path))
        assert code == 2
        assert doc["error"] == "REJECT_MALFORMED"


class TestQuery:
    def test_hat(self, capsys, h_file):
        code, doc = run(capsys, "query", "--hat", "x", "y", h_file)
        assert (code, doc["value"]) == (0, "12")

    def test_check(self, capsys, h_file):
        code, doc = run(capsys, "query", "--check", "x", "y", h_file)
        assert (code, doc["value"]) == (0, "8")

    def test_ddot(self, capsys, h_file):
        code, doc = run(capsys, "query", "--ddot", "a,b", "x,y", h_file)
        assert (code, doc["value"]) == (0, "2")

    def test_unknown_vertex_is_domain_error(self, capsys, h_file):
        code, doc = run(capsys, "query", "--hat", "x", "zzz", h_file)
        assert code == 1
        assert doc["error"] == "UNKNOWN_VERTEX"


class TestFloppy:
    def test_report(self, capsys, h_file):
        code, doc = run(capsys, "floppy", h_file)
        assert code == 0
        assert doc["floppy"] is True


class TestStep:
    def test_theorem_step(self, capsys, h_file):
        code, doc = run(capsys, "step", "--pair", "x,y", "--r", "34/3", h_file)
        assert code == 0
        m = metric_from_doc(doc)
        assert m.weight(pair("x", "y")) == Fraction(34, 3)

    def test_out_of_range(self, capsys, h_file):
        code, doc = run(capsys, "step", "--pair", "x,y", "--r", "1", h_file)
        assert code == 1
        assert doc["error"] == "R_OUT_OF_RANGE"

    def test_proposition_mode_accepts_envelope(self, capsys, h_file):
        code, doc = run(capsys, "step", "--pair", "x,y", "--r", "8", "--mode", "proposition", h_file)
        assert code == 0

    def test_bad_pair_syntax(self, capsys, h_file):
        code, doc = run(capsys, "step", "--pair", "xy", "--r", "11", h_file)
        assert code == 2
        assert doc["error"] == "REJECT_MALFORMED"


class TestPstep:
    def test_report(self, capsys, h_file):
        code, doc = run(capsys, "pstep", "--pair", "x,y", "--r", "34/3", h_file)
        assert code == 0
        assert doc["ok"] is True
        assert set(doc["statements"]) == {"1", "2", "3", "4", "5"}

    def test_disconnected_metric(self, capsys, h_graph, tmp_path):
        path = tmp_path / "split.json"
        dump_metric(PartialMetric(h_graph.vertices | {"p", "q"}, {**h_graph.edges, pair("p", "q"): 1}), path)
        code, doc = run(capsys, "pstep", "--pair", "x,y", "--r", "34/3", str(path))
        assert code == 1
        assert doc["error"] == "DISCONNECTED"


@pytest.fixture
def comma_file(tmp_path):
    """The H graph with x renamed to "x,1" and b to "b\\" (a trailing backslash)."""
    m = PartialMetric(
        ["a", "b\\", "x,1", "y"],
        {pair("a", "b\\"): 10, pair("a", "x,1"): 1, pair("b\\", "y"): 1},
    )
    path = tmp_path / "comma.json"
    dump_metric(m, path)
    return str(path)


class TestEscapedLabels:
    """``\\,`` is a comma and ``\\\\`` a backslash inside a pair's labels."""

    def test_step(self, capsys, comma_file):
        code, doc = run(capsys, "step", "--pair", r"x\,1,y", "--r", "34/3", comma_file)
        assert code == 0
        assert metric_from_doc(doc).weight(pair("x,1", "y")) == Fraction(34, 3)

    def test_pstep(self, capsys, comma_file):
        code, doc = run(capsys, "pstep", "--pair", r"y,x\,1", "--r", "34/3", comma_file)
        assert code == 0
        assert doc["pair"] == ["x,1", "y"] and doc["ok"] is True

    def test_ddot(self, capsys, comma_file):
        code, doc = run(capsys, "query", "--ddot", r"a,b\\", r"x\,1,y", comma_file)
        assert (code, doc["value"]) == (0, "2")

    @pytest.mark.parametrize("text", [r"x\,1", "x,1,y", r"x\1,y", "x,y\\", r"x\,1\,y", ","])
    def test_not_two_labels_is_malformed(self, capsys, comma_file, text):
        """Rejected as ``--pair`` and as a choice-map key alike."""
        code, doc = run(capsys, "step", "--pair", text, "--r", "34/3", comma_file)
        assert code == 2
        assert doc["error"] == "REJECT_MALFORMED"
        with pytest.raises(MalformedInputError):
            choice_map_from_doc({text: {"points": ["1"]}})

    def test_extend_with_choice_set_file(self, capsys, comma_file, tmp_path):
        keys = [r"x\,1,y", "y,a", r"b\\,x\,1"]
        cpath = tmp_path / "sets.json"
        cpath.write_text(json.dumps({key: {"intervals": [["0", None]]} for key in keys}))
        code, doc = run(capsys, "extend", "--choice", f"set-file:{cpath}", comma_file)
        assert code == 0
        assert sorted(s["pair"] for s in doc["steps"]) == [["a", "y"], ["b\\", "x,1"], ["x,1", "y"]]


class TestExtend:
    def test_lex(self, capsys, h_file):
        code, doc = run(capsys, "extend", h_file)
        assert code == 0
        assert len(doc["steps"]) == 3
        result = metric_from_doc(doc["result"])
        assert len(result.edges) == 6

    def test_choice_sets_from_file(self, capsys, h_file, tmp_path):
        sets = {
            "x,y": {"intervals": [["0", None]]},
            "a,y": {"intervals": [["0", None]]},
            "b,x": {"intervals": [["0", None]]},
        }
        cpath = tmp_path / "sets.json"
        cpath.write_text(json.dumps(sets))
        code, doc = run(capsys, "extend", "--choice", f"set-file:{cpath}", h_file)
        assert code == 0
        values = [s["value"] for s in doc["steps"]]
        assert len(set(values)) == 3

    def test_point_choice_sets_from_file(self, capsys, h_file, tmp_path):
        """Point-only sets: each pair takes its first unused in-range point,
        and a pair whose in-range points are all used takes the first again."""
        sets = {"a,y": {"points": ["21/2"]}, "b,x": {"points": ["21/2", "12"]}, "x,y": {"points": ["11"]}}
        cpath = tmp_path / "points.json"
        cpath.write_text(json.dumps(sets))
        code, doc = run(capsys, "extend", "--choice", f"set-file:{cpath}", h_file)
        assert code == 0
        assert [(s["pair"], s["value"]) for s in doc["steps"]] == [
            (["a", "y"], "21/2"),
            (["b", "x"], "21/2"),
            (["x", "y"], "11"),
        ]

    def test_bad_choice_spec(self, capsys, h_file):
        code, doc = run(capsys, "extend", "--choice", "oracle", h_file)
        assert code == 2


class TestGame:
    def test_winning_vs_random(self, capsys, h_file):
        code, doc = run(capsys, "game", "play", "--p2", "random:3", h_file)
        assert code == 0
        assert doc["verdict"] == "PLAYER_I_WINS"
        assert len(doc["moves"]) == 3

    def test_short_game_with_lambda(self, capsys, h_file):
        code, doc = run(capsys, "game", "play", "--p2", "adversary", "--lambda", "1", h_file)
        assert code == 0
        assert doc["verdict"] == "PLAYER_II_WINS"
        assert doc["reason"]["kind"] == "MISSING_PAIR"

    def test_unknown_strategy(self, capsys, h_file):
        code, doc = run(capsys, "game", "play", "--p2", "psychic", h_file)
        assert code == 2

    def test_non_floppy_base_names_worst_pair(self, capsys, collinear_witness, tmp_path):
        path = tmp_path / "forced.json"
        dump_metric(collinear_witness, path)
        code, doc = run(capsys, "game", "play", str(path))
        assert code == 1
        assert doc["error"] == "NOT_FLOPPY"
        assert doc["details"] == {"pair": "{a,c}", "gap": "0"}


class TestGlue:
    def test_glued_metric(self, capsys, pw_file):
        code, doc = run(capsys, "glue", pw_file)
        assert code == 0
        assert sorted(doc["vertices"]) == ["a", "b", "x", "y"]

    def test_check_only(self, capsys, pw_file):
        code, doc = run(capsys, "glue", "--check-only", pw_file)
        assert (code, doc["ok"]) == (0, True)

    def test_hat(self, capsys, pw_file):
        code, doc = run(capsys, "glue", "--hat", "x", "y", pw_file)
        assert (code, doc["value"]) == (0, "4")

    def test_cert(self, capsys, pw_file):
        code, doc = run(capsys, "glue", "--cert", pw_file)
        assert code == 0
        assert doc["certified"] is True
        assert doc["glued_floppy"] is True


class TestGen:
    def test_cantor(self, capsys):
        code, doc = run(capsys, "gen", "cantor", "--depth", "2")
        assert code == 0
        assert len(doc["vertices"]) == 7

    def test_random_is_seeded(self, capsys):
        _, a = run(capsys, "gen", "random", "--n", "5", "--seed", "4")
        _, b = run(capsys, "gen", "random", "--n", "5", "--seed", "4")
        assert a == b

    def test_gen_pipes_into_validate(self, capsys, tmp_path):
        code, doc = run(capsys, "gen", "path", "--n", "3", "--scale", "1/2")
        path = tmp_path / "p.json"
        path.write_text(json.dumps(doc))
        code, rep = run(capsys, "validate", str(path))
        assert (code, rep["graph_metric"]) == (0, True)

    def test_bad_scale(self, capsys):
        code, doc = run(capsys, "gen", "path", "--n", "3", "--scale", "huge")
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [["cantor", "--scale", "5"], ["path", "--n", "3", "--seed", "9", "--depth", "7"], ["star", "--density", "1/3"]],
        ids=["cantor-scale", "path-seed-depth", "star-density"],
    )
    def test_option_of_another_kind_rejected(self, capsys, argv):
        assert main(["gen", *argv]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "unrecognized arguments" in err


class TestMalformedInput:
    """Input the CLI cannot use exits 2 with ``REJECT_MALFORMED`` on stdout and
    nothing on stderr."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["validate", "{edges_5}"],
            ["extend", "--choice", "set-file:{list_doc}", "{h}"],
            ["extend", "--choice", "set-file:{number_value}", "{h}"],
            ["extend", "--order", "random:x", "{h}"],
            ["extend", "--order", "random:", "{h}"],
            ["game", "play", "--p2", "random:x", "{h}"],
            ["game", "play", "--lambda", "-1", "{h}"],
            ["validate", "{list_labels}"],
            ["extend", "--choice", "set-file:{points_string}", "{path3}"],
            ["glue", "--hat", "x", "b", "{gateway_disagreement}"],
            ["glue", "--cert", "{pieces_object}"],
            ["glue", "--cert", "{list_doc}"],
            ["step", "--pair", "x,y", "--r", "10.5", "{h}"],
            ["gen", "path", "--scale", "1.5"],
            ["validate", "{decimal_weight}"],
        ],
        ids=["edges-not-a-list", "set-file-list", "set-file-number-value", "order-random-x",
             "order-random-empty", "p2-random-x", "negative-lambda", "edge-labels-not-strings",
             "set-file-points-string", "glue-hat-gateway-disagreement", "glue-pieces-object",
             "glue-list-doc", "decimal-r", "decimal-scale", "decimal-weight"],
    )
    def test_rejected_without_traceback(self, capsys, h_file, tmp_path, argv):
        files = {"h": h_file}
        for name, content in (
            ("edges_5", {"vertices": ["a", "b"], "edges": 5}),
            ("list_doc", [1]),
            ("number_value", {"x,y": 5}),
            ("list_labels", {"vertices": ["a", "b"], "edges": [{"u": ["a"], "v": ["b"], "w": 1}]}),
            ("points_string", {"v0,v2": {"points": "12"}}),
            ("path3", metric_to_doc(path_metric(3))),
            ("gateway_disagreement", {
                "base": {"vertices": ["a", "b"], "edges": [{"u": "a", "v": "b", "w": "10"}]},
                "pieces": [{"vertices": ["a", "b", "x"], "edges": [{"u": "a", "v": "b", "w": "1"}, {"u": "a", "v": "x", "w": "1"}]}],
            }),
            ("decimal_weight", {"vertices": ["a", "b"], "edges": [{"u": "a", "v": "b", "w": "1.5"}]}),
            ("pieces_object", {"base": {"vertices": ["a", "b"], "edges": [{"u": "a", "v": "b", "w": "1"}]}, "pieces": {}}),
        ):
            files[name] = str(tmp_path / f"{name}.json")
            (tmp_path / f"{name}.json").write_text(json.dumps(content))
        code = main([arg.format(**files) for arg in argv])
        out, err = capsys.readouterr()
        assert code == 2
        assert json.loads(out)["error"] == "REJECT_MALFORMED"
        assert err == ""


class TestWeightGrammar:
    def test_exponent_weight_rejected_at_once(self, tmp_path):
        """``"1e100000000"`` is 12 bytes; read as a rational it is a 330-million-bit integer."""
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"vertices": ["a", "b"], "edges": [{"u": "a", "v": "b", "w": "1e100000000"}]}))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        proc = subprocess.run(
            [sys.executable, "-m", "floppymetrics.cli", "floppy", str(path)],
            capture_output=True, text=True, env=env, timeout=10,
        )
        assert (proc.returncode, json.loads(proc.stdout)["error"], proc.stderr) == (2, "REJECT_MALFORMED", "")


class TestInputFiles:
    """A file the CLI cannot read or parse is malformed input, for every kind of document."""

    @pytest.mark.parametrize("content", [None, b"{nope", b"\xff\xfe"], ids=["missing", "not-json", "not-utf8"])
    @pytest.mark.parametrize(
        "argv",
        [["validate", "{f}"], ["glue", "--cert", "{f}"], ["extend", "--choice", "set-file:{f}", "{h}"]],
        ids=["metric", "patchwork", "choice-map"],
    )
    def test_rejected(self, capsys, h_file, tmp_path, content, argv):
        path = tmp_path / "doc.json"
        if content is not None:
            path.write_bytes(content)
        code = main([arg.format(f=path, h=h_file) for arg in argv])
        out, err = capsys.readouterr()
        assert (code, json.loads(out)["error"], err) == (2, "REJECT_MALFORMED", "")


class _ClosedPipe:
    """A stdout whose reader has gone: every write raises ``BrokenPipeError``."""

    def __init__(self, fd):
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass

    def fileno(self):
        return self.fd


class TestClosedStdout:
    def test_broken_pipe_exits_1_and_silences_stdout(self, monkeypatch, tmp_path):
        """No second write and no traceback: stdout is pointed at the null device."""
        fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
        try:
            monkeypatch.setattr(sys, "stdout", _ClosedPipe(fd))
            assert main(["gen", "cantor", "--depth", "2"]) == 1
            assert os.path.samestat(os.fstat(fd), os.stat(os.devnull))
        finally:
            os.close(fd)

    @pytest.mark.parametrize(
        "argv", [["gen", "cantor", "--depth", "4"], ["validate", "--dot", "{h}"]], ids=["gen", "dot"]
    )
    def test_reader_gone_before_output(self, h_file, argv):
        """``floppymetrics gen cantor --depth 4 | head -n 1``, with the reader already gone.
        A short output fails at its flush, which must also happen inside ``main``."""
        read_end, write_end = os.pipe()
        os.close(read_end)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "floppymetrics.cli", *(arg.format(h=h_file) for arg in argv)],
                stdout=write_end, stderr=subprocess.PIPE, text=True, env=env,
            )
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (1, "")


class TestUsage:
    def test_no_command(self, capsys):
        assert main([]) == 2

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2


class TestParserReuse:
    def test_repeated_calls_match_fresh_processes(self, capfd, h_file):
        """main() reuses one parser per process; a sequence of calls, with
        parse errors in between and options that differ from call to call,
        prints and returns exactly what a fresh process does for each."""
        calls = [
            ["query", "--hat", "x", "y", h_file],
            ["query", "--check", "x", "y", h_file],
            ["frobnicate"],
            ["step", "--pair", "x,y", "--r", "8", "--mode", "proposition", h_file],
            ["step", "--pair", "x,y", "--r", "8", h_file],
            ["query", "--hat", "x", h_file],
            ["validate", "--dot", h_file],
            ["validate", h_file],
            ["gen", "path", "--n", "3"],
            ["gen", "cycle"],
        ]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        for argv in calls:
            fresh = subprocess.run(
                [sys.executable, "-m", "floppymetrics.cli", *argv], capture_output=True, text=True, env=env
            )
            code = main(argv)
            out, err = capfd.readouterr()
            assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
