import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from floppymetrics import (
    dump_metric, metric_from_doc, metric_to_doc, pair, patchwork_to_doc, path_metric, Patchwork, PartialMetric,
)
from floppymetrics import cli
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

    def test_choice_set_with_unknown_key_is_malformed(self, capsys, h_file, tmp_path):
        """A misspelt ``intervals`` would leave the set {1}; the whole map is rejected, naming the key."""
        cpath = tmp_path / "sets.json"
        cpath.write_text(json.dumps({"a,y": {"intervals": [["0", None]]}, "b,x": {"intervals": [["0", None]]},
                                     "x,y": {"points": ["1"], "intervls": [["0", None]]}}))
        code, doc = run(capsys, "extend", "--choice", f"set-file:{cpath}", h_file)
        assert (code, doc["error"]) == (2, "REJECT_MALFORMED")
        assert "'intervls'" in doc["message"]

    def test_choice_map_naming_a_pair_twice_is_malformed(self, capsys, h_file, tmp_path):
        """``y,a`` used to replace the set of ``a,y``, and ``extend`` then failed on a set nobody meant."""
        cpath = tmp_path / "sets.json"
        cpath.write_text('{"a,y": {"intervals": [["0", null]]}, "b,x": {"intervals": [["0", null]]},'
                         ' "x,y": {"intervals": [["0", null]]}, "y,a": {"points": ["1"]}}')
        code, doc = run(capsys, "extend", "--choice", f"set-file:{cpath}", h_file)
        assert (code, doc["error"]) == (2, "REJECT_MALFORMED")
        assert "names pair {a,y} twice: 'a,y' and 'y,a'" in doc["message"]


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
        assert doc["details"] == {"pair": ["a", "c"], "gap": "0"}


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

    @pytest.mark.parametrize("kind", ["path", "cycle", "star", "complete", "random"])
    @pytest.mark.parametrize("scale", ["0", "-1/2"])
    def test_scale_must_be_positive(self, capsys, kind, scale):
        """An all-zero document would pass as a metric here and fail later as ``NOT_GRAPH_METRIC``."""
        code, doc = run(capsys, "gen", kind, "--n", "3", f"--scale={scale}")
        assert (code, doc["error"]) == (2, "REJECT_MALFORMED")
        assert "scale must be positive" in doc["message"]

    def test_depth_zero_keeps_its_code(self, capsys):
        code, doc = run(capsys, "gen", "cantor", "--depth", "0")
        assert (code, doc["error"]) == (1, "DEPTH_ZERO")

    @pytest.mark.parametrize(
        "argv",
        [["cantor", "--scale", "5"], ["path", "--n", "3", "--seed", "9", "--depth", "7"], ["star", "--density", "1/3"]],
        ids=["cantor-scale", "path-seed-depth", "star-density"],
    )
    def test_option_of_another_kind_rejected(self, capsys, argv):
        assert main(["gen", *argv]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "unrecognized arguments" in err


# random:SEED takes ASCII digits only; int() reads each of these as a number
SEEDS_NOT_DIGITS = {"1_0": "underscore", " 10 ": "spaces", "+10": "plus", "-1": "negative", "\u0661\u0660": "arabic-indic"}


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
            *(["extend", "--order", f"random:{seed}", "{h}"] for seed in SEEDS_NOT_DIGITS),
            *(["game", "play", "--p2", f"random:{seed}", "{h}"] for seed in SEEDS_NOT_DIGITS),
            *(["gen", "path", "--n", n] for n in ("1_0", " 3", "+3")),
            ["gen", "cantor", "--depth", "1_0"],
            ["gen", "random", "--seed", "1_0"],
            ["game", "play", "--lambda", "1_0", "{h}"],
        ],
        ids=["edges-not-a-list", "set-file-list", "set-file-number-value", "order-random-x",
             "order-random-empty", "p2-random-x", "negative-lambda", "edge-labels-not-strings",
             "set-file-points-string", "glue-hat-gateway-disagreement", "glue-pieces-object",
             "glue-list-doc", "decimal-r", "decimal-scale", "decimal-weight",
             *(f"{option}-seed-{name}" for option in ("order", "p2") for name in SEEDS_NOT_DIGITS.values()),
             "gen-n-underscore", "gen-n-space", "gen-n-plus", "gen-depth-underscore", "gen-seed-underscore",
             "lambda-underscore"],
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

    def test_unknown_key_is_named(self, capsys, tmp_path):
        """An edge entry holds exactly u, v and w: an extra ``weight`` used to be dropped silently."""
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"vertices": ["a", "b"], "edges": [{"u": "a", "v": "b", "w": "1", "weight": "5"}]}))
        code, doc = run(capsys, "validate", str(path))
        assert (code, doc["error"]) == (2, "REJECT_MALFORMED")
        assert "unknown key(s) 'weight'" in doc["message"]

    def test_repeated_key_is_named(self, capsys, tmp_path):
        """The JSON reader kept the last of two ``edges`` keys, so this document loaded as ab = 5."""
        path = tmp_path / "m.json"
        path.write_text('{"vertices": ["a", "b"], "edges": [{"u": "a", "v": "b", "w": "1"}],'
                        ' "edges": [{"u": "a", "v": "b", "w": "5"}]}')
        code, doc = run(capsys, "validate", str(path))
        assert (code, doc["error"]) == (2, "REJECT_MALFORMED")
        assert "repeats the key 'edges'" in doc["message"]


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


class TestUnprintableResult:
    """Each weight has 4300 digits, the most the reader accepts, so hat(a, c) has
    4301: more than CPython writes as a string.  Such a result, or an error
    whose message names such a number, exits 2 with ``REJECT_MALFORMED``."""

    @pytest.fixture
    def big_file(self, tmp_path):
        w = "9" * 4300
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"vertices": ["a", "b", "c"], "edges": [
            {"u": "a", "v": "b", "w": w}, {"u": "b", "v": "c", "w": w}]}))
        return str(path)

    @pytest.mark.parametrize(
        "argv",
        [["query", "--hat", "a", "c"], ["floppy"], ["extend"], ["step", "--pair", "a,c", "--r", "1"]],
        ids=["query-hat", "floppy", "extend", "step-r-out-of-range"],
    )
    def test_error_object(self, capsys, big_file, argv):
        code = main([*argv, big_file])
        out, err = capsys.readouterr()
        assert (code, json.loads(out)["error"], err) == (2, "REJECT_MALFORMED", "")

    def test_message_names_the_environment_variable(self, capsys, big_file):
        main(["query", "--hat", "a", "c", big_file])
        message = json.loads(capsys.readouterr().out)["message"]
        assert "PYTHONINTMAXSTRDIGITS" in message and "set_int_max_str_digits" not in message

    @staticmethod
    def console(big_file, **env):
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path), **env}
        return subprocess.run(
            [sys.executable, "-m", "floppymetrics.cli", "query", "--hat", "a", "c", big_file],
            capture_output=True, text=True, env=env, timeout=30,
        )

    def test_no_traceback_from_the_console(self, big_file):
        proc = self.console(big_file)
        assert (proc.returncode, json.loads(proc.stdout)["error"], proc.stderr) == (2, "REJECT_MALFORMED", "")

    def test_the_environment_variable_lifts_the_limit(self, big_file):
        proc = self.console(big_file, PYTHONINTMAXSTRDIGITS="0")
        # 2 * (10**4300 - 1), written out without converting it here
        assert (proc.returncode, json.loads(proc.stdout), proc.stderr) == (0, {"value": "1" + "9" * 4299 + "8"}, "")

    def test_small_values_of_the_same_metric_still_print(self, capsys, big_file):
        assert run(capsys, "query", "--check", "a", "c", big_file) == (0, {"value": "0"})

    def test_other_value_errors_surface(self, monkeypatch):
        """Only CPython's integer-string limit is caught; any other ``ValueError`` is a bug and escapes."""
        def broken(depth):
            raise ValueError("some bug")

        monkeypatch.setattr(cli, "cantor_tree", broken)
        with pytest.raises(ValueError, match="some bug"):
            main(["gen", "cantor"])


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

    @pytest.mark.parametrize(
        "flags",
        [["--cert", "--hat", "a", "b"], ["--check-only", "--hat", "a", "b"], ["--cert", "--check-only"],
         ["--hat", "a", "b", "--cert"]],
        ids=["cert-hat", "check-only-hat", "cert-check-only", "hat-cert"],
    )
    def test_glue_modes_exclude_each_other(self, capsys, pw_file, flags):
        """One glue mode per call: a second one is a usage error, not silently ignored."""
        assert main(["glue", *flags, pw_file]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("usage: floppymetrics glue") and "not allowed with argument" in err


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
