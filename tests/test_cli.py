"""Command-line surface: exit codes, output formats, determinism."""

import json
import sys

import pytest

from linquant.cli import EXIT_USAGE, RECURSION_LIMIT, main

from conftest import CRAIG_F_TEXT, CRAIG_G_TEXT, EX1_TEXT


@pytest.fixture
def files(tmp_path):
    def write(name, text):
        p = tmp_path / name
        p.write_text(text, encoding="utf-8")
        return str(p)

    return write


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestElim:
    def test_example_simplified(self, files, capsys):
        path = files("ex1.lq", EX1_TEXT)
        code, out, _ = run(capsys, "elim", path, "--simplify")
        assert code == 0
        assert "sup" not in out and "inf" not in out
        assert "oo" in out

    def test_quantifier_free_echoed(self, files, capsys):
        path = files("qf.lq", "[x > 0] * 1 + [x <= 0] * 2")
        code, out, _ = run(capsys, "elim", path)
        assert code == 0
        assert out.strip() == "[x > 0] * 1 + [x <= 0] * 2"

    def test_parse_error_exit_code(self, files, capsys):
        path = files("bad.lq", "[x > ] * 1")
        code, _, err = run(capsys, "elim", path)
        assert code == 1
        assert "parse error" in err

    def test_ill_formed_exit_code(self, files, capsys):
        path = files("ill.lq", "[x > 0] * oo + [x > -1] * (-oo)")
        code, _, err = run(capsys, "elim", path)
        assert code == 2
        assert "0 and 1" in err

    def test_missing_file_exit_code(self, tmp_path, capsys):
        code, out, err = run(capsys, "elim", str(tmp_path / "absent.lq"))
        assert code == 5
        assert out == ""
        assert err.startswith("cannot read input:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "text",
        [
            '{"kind": "quantity"}',
            '{"kind": "quantity", "prefix": [',
            '{"kind": "x"}',
            '{"kind": "quantity", "prefix": [], "body": []}',
        ],
        ids=["missing-key", "truncated", "unknown-kind", "empty-body"],
    )
    def test_malformed_json_ast_exit_code(self, files, capsys, text):
        code, out, err = run(capsys, "elim", files("bad.json", text))
        assert code == 1
        assert out == ""
        assert err.startswith("parse error:") and err.count("\n") == 1

    def test_deep_nesting_exit_code(self, files, capsys):
        # deeper than the recursion limit the CLI runs its commands under
        depth = RECURSION_LIMIT + 100
        code, out, err = run(capsys, "elim", files("deep.lq", "[" + "!" * depth + "(x>0)] * 1"))
        assert code == 1
        assert out == ""
        assert err.startswith("parse error:") and "nesting too deep" in err
        assert err.count("\n") == 1

    def test_too_deep_for_engine_exit_code(self, files, capsys):
        # parses (the && chain is read iteratively) but the engine's tree
        # walks over the guard exceed the CLI's recursion limit
        chain = " && ".join(f"x > {i % 7}" for i in range(15_000))
        limit = sys.getrecursionlimit()
        code, out, err = run(capsys, "elim", files("chain.lq", f"sup x : [{chain}] * 1"))
        assert code == 1
        assert out == ""
        assert err.startswith("too deep:") and err.count("\n") == 1
        assert sys.getrecursionlimit() == limit  # main restores the limit

    def test_json_output(self, files, capsys):
        path = files("qf.lq", "[x >= 1/2] * oo")
        code, out, _ = run(capsys, "elim", path, "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["kind"] == "quantity"
        assert doc["body"][0]["value"] == "oo"

    def test_json_input(self, files, capsys):
        path = files("qf.lq", "[x >= 1/2] * oo")
        _, out, _ = run(capsys, "elim", path, "--json")
        path2 = files("qf.json", out)
        code, out2, _ = run(capsys, "elim", path2)
        assert code == 0
        assert out2.strip() == "[x >= 1/2] * oo"

    def test_deterministic_output(self, files, capsys):
        path = files("ex1.lq", EX1_TEXT)
        _, first, _ = run(capsys, "elim", path, "--simplify")
        _, second, _ = run(capsys, "elim", path, "--simplify")
        assert first == second


class TestEval:
    def test_example_value(self, files, capsys):
        path = files("ex1.lq", EX1_TEXT)
        code, out, _ = run(
            capsys, "eval", path, "--sigma", "y1=0,y2=-5,y3=-3,z=-1"
        )
        assert code == 0
        assert out.strip() == "3"

    def test_zero(self, files, capsys):
        path = files("zero.lq", "[true] * 0")
        code, out, _ = run(capsys, "eval", path, "--sigma", "")
        assert code == 0
        assert out.strip() == "0"

    def test_missing_binding(self, files, capsys):
        path = files("qf.lq", "[x > 0] * 1")
        code, _, err = run(capsys, "eval", path, "--sigma", "")
        assert code == 3
        assert "missing binding" in err

    def test_bad_sigma_value(self, files, capsys):
        path = files("qf.lq", "[x > 0] * 1")
        code, _, err = run(capsys, "eval", path, "--sigma", "x=abc")
        assert code == 1
        assert err.startswith("parse error") and "x=abc" in err

    def test_rational_output(self, files, capsys):
        path = files("qf.lq", "[true] * (5/3)")
        code, out, _ = run(capsys, "eval", path)
        assert out.strip() == "5/3"

    @pytest.mark.parametrize(
        "text,sigma,printed",
        [("[true] * oo", "", "oo"), ("[x > 0] * (-oo) + [x <= 0] * 1", "x=1", "-oo")],
    )
    def test_infinite_output(self, files, capsys, text, sigma, printed):
        code, out, _ = run(capsys, "eval", files("inf.lq", text), "--sigma", sigma)
        assert code == 0
        assert out.strip() == printed

    def test_rejected_input_never_evaluated(self, files, capsys):
        path = files("ill.lq", "[x > 0] * oo + [x > -1] * (-oo)")
        code, _, err = run(capsys, "eval", path, "--sigma", "x=1")
        assert code == 2  # well-formedness gate fires before any evaluation


class TestEntails:
    def test_craig_pair_yes(self, files, capsys):
        f = files("f.lq", CRAIG_F_TEXT)
        g = files("g.lq", CRAIG_G_TEXT)
        code, out, _ = run(capsys, "entails", f, g)
        assert code == 0
        assert out.strip() == "yes"

    def test_reversed_no_with_witness(self, files, capsys):
        f = files("f.lq", CRAIG_F_TEXT)
        g = files("g.lq", CRAIG_G_TEXT)
        code, out, _ = run(capsys, "entails", g, f)
        assert code == 4
        assert out.startswith("no")

    def test_self_entailment(self, files, capsys):
        f = files("f.lq", CRAIG_F_TEXT)
        code, out, _ = run(capsys, "entails", f, f)
        assert code == 0 and out.strip() == "yes"


class TestInterpolate:
    def test_strongest(self, files, capsys):
        f = files("f.lq", CRAIG_F_TEXT)
        g = files("g.lq", CRAIG_G_TEXT)
        code, out, _ = run(capsys, "interpolate", f, g, "--strongest")
        assert code == 0
        assert out.strip() == "[x >= 0] * 2*x"

    def test_weakest(self, files, capsys):
        f = files("f.lq", CRAIG_F_TEXT)
        g = files("g.lq", CRAIG_G_TEXT)
        code, out, _ = run(capsys, "interpolate", f, g, "--weakest")
        assert code == 0
        assert out.strip() == "[x >= 0] * (3*x + 1)"

    def test_non_entailing_pair(self, files, capsys):
        f = files("one.lq", "[true] * 1")
        g = files("zero.lq", "[true] * 0")
        code, _, err = run(capsys, "interpolate", f, g)
        assert code == 4
        assert "not an entailment" in err


class TestCheckAndGnf:
    def test_check_ok(self, files, capsys):
        path = files("ok.lq", "[x > 0] * oo + [x <= 0] * (-oo)")
        code, out, _ = run(capsys, "check", path)
        assert code == 0 and out.strip() == "ok"

    def test_check_violation_names_pair(self, files, capsys):
        path = files("ill.lq", "[x > 0] * oo + [x > -1] * (-oo)")
        code, out, _ = run(capsys, "check", path)
        assert code == 2
        assert "0 and 1" in out

    def test_gnf(self, files, capsys):
        path = files("ex1.lq", EX1_TEXT)
        code, out, _ = run(capsys, "gnf", path, "--var", "x")
        assert code == 0
        assert out.count("] *") == 2  # two partitioning branches
        assert "x - 2" not in out  # x isolated everywhere

    def test_deep_negation_chain(self, files, capsys):
        # parses under the default recursion limit; normal form and
        # entailment walk it under the limit the CLI sets
        path = files("neg.lq", "[" + "!" * 960 + "(x>0)] * 1")
        code, out, _ = run(capsys, "gnf", path, "--var", "x")
        assert code == 0 and out.strip() == "[x > 0] * 1 + [x <= 0] * 0"
        code, out, _ = run(capsys, "entails", path, path)
        assert code == 0 and out.strip() == "yes"

    def test_stdin(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("[true] * 1"))
        code, out, _ = run(capsys, "eval")
        assert code == 0 and out.strip() == "1"


@pytest.mark.parametrize(
    "argv,code",
    [(["elim", "--jobs", "2", "f"], EXIT_USAGE), ([], EXIT_USAGE), (["--help"], 0)],
    ids=["unknown-option", "no-command", "help"],
)
def test_usage_exit_code(capsys, argv, code):
    # a bad command line must not read as exit 2, a well-formedness violation
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == code
    err = capsys.readouterr().err
    if code:
        assert err.startswith("usage error:") and err.count("\n") == 1
