import argparse
import contextlib
import copy
import io
import itertools
import json
import os
import re
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import formulas
from ielprove import cli, prover, refuter
from ielprove.cli import main
from ielprove.formula import parse, render
from ielprove.kripke import check_frame, model_from_json, model_to_json, satisfies
from ielprove.refuter import check_refutation, refutation_from_json
from ielprove.rules import (
    axiom_leaf,
    check_proof,
    derivation_json,
    proof_from_json,
    rule_node,
)
from ielprove.sequent import Logic, Sequent

CORPUS = str(Path(__file__).resolve().parent.parent / "corpus" / "paper.txt")
# Certificates with six non-subformulas at one node.
NONSUB = Path(__file__).resolve().parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDecide:
    def test_invalid_exit_and_model(self, capsys):
        code, out, _ = run(capsys, "decide", "--logic", "iel", "K a -> a")
        assert code == 1
        assert "invalid" in out and "depth: 2" in out

    def test_valid_exit_and_proof(self, capsys):
        code, out, _ = run(capsys, "decide", "--logic", "iel", "K(a->b) -> (K a -> K b)")
        assert code == 0
        assert "valid" in out and "[ImpR]" in out

    def test_json_invalid(self, capsys):
        code, out, _ = run(capsys, "decide", "--format", "json", "K a -> a")
        assert code == 1
        obj = json.loads(out)
        assert obj["status"] == "invalid"
        assert obj["model"]["worlds"] == [0, 1]

    def test_json_valid(self, capsys):
        code, out, _ = run(capsys, "decide", "--format", "json", "a -> K a")
        assert json.loads(out)["status"] == "valid" and code == 0

    def test_dot_for_countermodel(self, capsys):
        code, out, _ = run(capsys, "decide", "--format", "dot", "K a")
        assert code == 1
        assert out.startswith("digraph")

    def test_dot_on_valid_is_an_error(self, capsys):
        code, _, err = run(capsys, "decide", "--format", "dot", "a -> K a")
        assert code == 2
        assert "error" in err

    def test_syntax_error(self, capsys):
        code, _, err = run(capsys, "decide", "K a ->")
        assert code == 2
        assert "syntax error" in err

    def test_file_input(self, capsys, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text("K a -> ~~a\n")
        code, _, _ = run(capsys, "decide", "--logic", "iel-", "--file", str(path))
        assert code == 1

    def test_missing_formula(self, capsys):
        code, _, err = run(capsys, "decide")
        assert code == 2


class TestProve:
    def test_hides_model_by_default(self, capsys):
        code, out, _ = run(capsys, "prove", "K a -> a")
        assert code == 1
        assert "worlds" not in out

    def test_model_flag(self, capsys):
        # The model is decide's to print; prove has no --model.
        code, out, _ = run(capsys, "decide", "K a -> a")
        assert code == 1
        assert "worlds" in out
        code, out, err = _main_captured(["prove", "--model", "K a -> a"])
        assert code == 2 and out == ""
        assert "unrecognized arguments: --model" in err


class TestRefute:
    def test_text_output(self, capsys):
        code, out, _ = run(capsys, "refute", "K a -> a")
        assert code == 1
        assert "[ImpR1]" in out and "[KL2]" in out and "(eSat)" in out
        assert "worlds" in out

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "refute", "--format", "json", "K(a|b) -> (K a | K b)")
        assert code == 1
        obj = json.loads(out)
        assert obj["status"] == "invalid"
        assert obj["refutation"]["calculus"] == "riel"
        assert "model" in obj

    def test_valid_formula(self, capsys):
        code, out, _ = run(capsys, "refute", "--format", "json", "a -> K a")
        assert code == 0
        assert json.loads(out)["status"] == "valid"

    def test_dot_on_valid_is_an_error(self, capsys):
        code, out, err = run(capsys, "refute", "--format", "dot", "a -> K a")
        assert code == 2 and out == ""
        assert err == "error: dot output needs a model certificate; the formula is valid\n"

    def test_refutation_checked_once(self, capsys, monkeypatch):
        calls = []
        original = refuter.check_refutation

        def counting(t, logic):
            calls.append(t)
            return original(t, logic)

        monkeypatch.setattr(refuter, "check_refutation", counting)
        monkeypatch.setattr(cli, "check_refutation", counting)
        code, _, _ = run(capsys, "refute", "K a -> a")
        assert code == 1 and len(calls) == 1

    def test_rejected_refutation_is_a_checker_defect(self, capsys, monkeypatch):
        def reject(t, logic):
            raise ValueError("invalid refutation: planted")

        monkeypatch.setattr(cli, "extract_model", reject)
        code, out, err = run(capsys, "refute", "K a -> a")
        assert code == 2 and out == ""
        assert err == "error: internal checker defect: invalid refutation: planted\n"


class TestCheckCommands:
    def _decide_json(self, capsys, *argv):
        code, out, _ = run(capsys, "decide", "--format", "json", *argv)
        return json.loads(out)

    def test_check_proof_roundtrip(self, capsys, tmp_path):
        obj = self._decide_json(capsys, "K a -> ~~a")
        path = tmp_path / "proof.json"
        path.write_text(json.dumps(obj["proof"]))
        code, out, _ = run(capsys, "check-proof", str(path))
        assert code == 0 and out.strip() == "ok"

    def test_check_proof_rejects_tampering(self, capsys, tmp_path):
        obj = self._decide_json(capsys, "K a -> ~~a")
        proof = obj["proof"]
        proof["children"][0]["sequent"]["gamma"] = []
        path = tmp_path / "proof.json"
        path.write_text(json.dumps(proof))
        code, out, _ = run(capsys, "check-proof", str(path))
        assert code == 1
        assert "BadInstantiation" in out or "NonAxiomLeaf" in out

    def test_check_proof_schema_error(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"rule": "Cut"}')
        code, _, err = run(capsys, "check-proof", str(path))
        assert code == 2

    def test_check_proof_rejects_reserved_variable_name(self, capsys, tmp_path):
        # A variable named `false` would print as falsum: `; false, false => false`.
        fake = {"op": "var", "name": "false"}
        leaf = {"rule": None, "axiom": "Id", "children": [], "sequent": {
            "theta": [], "gamma": [fake, {"op": "bot"}], "delta": [fake], "e": False}}
        path = tmp_path / "proof.json"
        path.write_text(json.dumps(leaf))
        code, out, err = run(capsys, "check-proof", str(path))
        assert code == 2 and out == "" and err.startswith("error: schema error")

    def test_check_model_rejects_boolean_worlds(self, capsys, tmp_path):
        path = tmp_path / "model.json"
        for model in ({"worlds": [True], "root": True, "leq": [[True, True]],
                       "e": [[True, True]], "val": {"1": ["a"]}},
                      {"worlds": [0, False], "root": 0, "leq": [[0, 0]], "e": []}):
            path.write_text(json.dumps(model))
            for fmt in ("text", "dot"):
                code, out, err = run(capsys, "check-model", "--format", fmt, str(path))
                assert code == 2 and out == "" and err.startswith("error: schema error")

    def test_check_model_rejects_bad_names_and_world_keys(self, capsys, tmp_path):
        path = tmp_path / "model.json"
        base = {"worlds": [1], "root": 1, "leq": [[1, 1]], "e": [[1, 1]]}
        injected = 'a"]; x [label="pwn'
        for val in ({"1": [injected]}, {"1": ["false"]}, {" 1": ["a"]}, {"1_0": ["a"]},
                    {"01": ["a"]}):
            path.write_text(json.dumps(dict(base, val=val)))
            for fmt in ("text", "dot"):
                code, out, err = run(capsys, "check-model", "--format", fmt, str(path))
                assert code == 2 and out == "" and err.startswith("error: schema error")
        path.write_text(json.dumps(dict(base, val={"1": ["a"]})))
        assert run(capsys, "check-model", "--format", "dot", str(path))[0] == 0

    def test_check_model(self, capsys, tmp_path):
        obj = self._decide_json(capsys, "K a -> a")
        path = tmp_path / "model.json"
        path.write_text(json.dumps(obj["model"]))
        code, out, _ = run(capsys, "check-model", str(path))
        assert code == 0 and out.strip() == "ok"
        # The same model violates nothing under iel-; a clipped E does.
        broken = dict(obj["model"], e=[])
        path.write_text(json.dumps(broken))
        code, out, _ = run(capsys, "check-model", "--logic", "iel", str(path))
        assert code == 1 and "Im3" in out

    def test_check_model_dot(self, capsys, tmp_path):
        obj = self._decide_json(capsys, "K a -> a")
        path = tmp_path / "model.json"
        path.write_text(json.dumps(obj["model"]))
        code, out, _ = run(capsys, "check-model", "--format", "dot", str(path))
        assert code == 0 and out.startswith("digraph")

    def test_check_refutation(self, capsys, tmp_path):
        code, out, _ = run(capsys, "refute", "--format", "json", "K a -> a")
        obj = json.loads(out)
        path = tmp_path / "ref.json"
        path.write_text(json.dumps(obj["refutation"]))
        code, out, _ = run(capsys, "check-refutation", str(path))
        assert code == 0 and out.strip() == "ok"
        code, out, _ = run(capsys, "check-refutation", "--logic", "iel-", str(path))
        assert code == 1 and "BadRule" in out


class TestCrosscheck:
    def test_single_formula(self, capsys):
        code, out, _ = run(capsys, "crosscheck", "--logic", "iel", "--bound", "3",
                           "K(a|b) -> (K a | K b)")
        assert code == 0
        assert out.startswith("consistent: invalid")

    def test_json(self, capsys):
        code, out, _ = run(capsys, "crosscheck", "--format", "json", "--bound", "2",
                           "K a -> a")
        obj = json.loads(out)
        assert code == 0 and obj["consistent"]
        assert obj["reports"][0]["prover_model_depth"] == 2
        assert obj["reports"][0]["oracle"]["min_depth_found"] == 2
        assert obj["reports"][0]["oracle"]["countermodel"]["worlds"] == [0, 1]

    def test_random_with_seed(self, capsys):
        code, out, _ = run(capsys, "crosscheck", "--random", "5", "--seed", "3",
                           "--bound", "2")
        assert code == 0
        assert out.count("consistent:") == 5

    @pytest.mark.parametrize("argv, error", [
        (("--random", "1", "--seed", "1", "--bound", "2", "a -> a"),
         "give a formula, --file or --random, not more than one"),
        (("--random", "1", "--seed", "1", "--bound", "2", "--file", "/nonexistent"),
         "give a formula, --file or --random, not more than one"),
        (("--seed", "5", "a -> a"), "--seed needs --random"),
    ], ids=["random-and-formula", "random-and-file", "seed-without-random"])
    def test_one_formula_source(self, capsys, argv, error):
        assert run(capsys, "crosscheck", *argv) == (2, "", f"error: {error}\n")

    @pytest.mark.parametrize("argv, error", [
        (("--bound", "0", "a"), "must be at least 1, got 0"),
        (("--bound", "7", "a"), "must be at most 6, got 7"),
        (("--bound", "7", "--random", "3"), "must be at most 6, got 7"),
    ])
    def test_bound_out_of_range_is_a_usage_error(self, capsys, monkeypatch, argv, error):
        def refuse(f, logic):
            raise AssertionError("a formula was decided")

        monkeypatch.setattr(cli, "decide", refuse)
        monkeypatch.setattr(prover, "decide", refuse)
        with pytest.raises(SystemExit) as exc:
            main(["crosscheck", *argv])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert captured.err.startswith("usage: ielprove crosscheck ")
        assert captured.err.splitlines()[-1] == f"ielprove crosscheck: error: argument --bound: {error}"


class TestBatch:
    def test_shipped_corpus(self, capsys):
        code, out, _ = run(capsys, "batch", "--corpus", CORPUS)
        assert code == 0
        assert "14/14 records passed" in out

    def test_wrong_status_fails(self, capsys, tmp_path):
        path = tmp_path / "corpus.txt"
        path.write_text("valid iel K a -> a\n")
        code, out, _ = run(capsys, "batch", "--corpus", str(path))
        assert code == 1
        assert "FAIL" in out

    def test_malformed_record(self, capsys, tmp_path):
        path = tmp_path / "corpus.txt"
        path.write_text("maybe iel K a\n")
        code, _, err = run(capsys, "batch", "--corpus", str(path))
        assert code == 2


class TestRejectedCertificates:
    """decide answers with a certificate its checker rejects."""

    @pytest.fixture(params=["countermodel", "proof"])
    def case(self, request, monkeypatch):
        if request.param == "countermodel":
            build = refuter.refutation_model

            def clear_e(t, logic):  # an IEL countermodel with no E-edges breaks Im3
                return build(t, logic)._replace(e_rel=frozenset())

            monkeypatch.setattr(cli, "refutation_model", clear_e)
            monkeypatch.setattr(prover, "refutation_model", clear_e)
            return "invalid", "K a -> a"
        search = prover.prove_or_refute

        def wrong_rule(s, logic):  # the root claims a rule that cannot have produced it
            return prover.Proof(search(s, logic).tree._replace(rule="OrR"))

        monkeypatch.setattr(prover, "prove_or_refute", wrong_rule)
        return "valid", "a -> K a"

    def test_decide_reports_a_checker_defect(self, capsys, case):
        code, out, err = run(capsys, "decide", case[1])
        assert code == 2 and out == ""
        assert err.startswith("error: internal checker defect: ")
        assert err.split(": ")[2].startswith(("Im3", "BadInstantiation"))

    def test_batch_fails_the_record(self, capsys, tmp_path, case):
        path = tmp_path / "corpus.txt"
        path.write_text(f"{case[0]} iel {case[1]}\n")
        code, out, _ = run(capsys, "batch", "--corpus", str(path))
        assert code == 1
        assert f"FAIL line 1: expected {case[0]}, got {case[0]}" in out
        assert "(certificate rejected)" in out and "0/1 records passed" in out

    def test_crosscheck_reports_a_contradiction(self, capsys, case):
        code, out, _ = run(capsys, "crosscheck", "--bound", "2", case[1])
        assert code == 1
        assert out.startswith(f"CONTRADICTION: {case[0]} (iel)")
        assert "problem: prover certificate rejected: " in out


@pytest.mark.parametrize("argv", [
    ("decide", "--format", "json", "K(a|b) -> (K a | K b)"),
    ("refute", "--format", "json", "K(a|b) -> (K a | K b)"),
    ("decide", "--format", "json", "K(a->b) -> (K a -> K b)"),
    ("check-proof", str(NONSUB / "nonsubformula-proof.json")),
    ("check-refutation", str(NONSUB / "nonsubformula-refutation.json")),
])
def test_deterministic_across_processes(argv):
    """Hash randomization differs per process; output must not."""
    env = dict(os.environ)
    env.pop("PYTHONHASHSEED", None)
    cmd = [sys.executable, "-m", "ielprove.cli", *argv]
    runs = [subprocess.run(cmd, capture_output=True, env=env, text=True)
            for _ in range(2)]
    assert runs[0].stdout == runs[1].stdout
    assert runs[0].returncode == runs[1].returncode


def test_parser_built_once_per_process(capsys, monkeypatch):
    built = []
    original = cli.build_parser

    def counting():
        built.append(1)
        return original()

    cli._parser.cache_clear()
    monkeypatch.setattr(cli, "build_parser", counting)
    codes = [run(capsys, "decide", "K a -> a")[0] for _ in range(5)]
    assert codes == [1] * 5 and len(built) == 1


def _echo(args):
    return args


@pytest.fixture(scope="class")
def echo_parser():
    """A parser from build_parser whose commands return their Namespace; main
    uses one built the same way, so main(argv) returns what it parsed."""
    with pytest.MonkeyPatch.context() as mp:
        for name in ("_cmd_decide", "_cmd_check", "_cmd_crosscheck", "_cmd_batch"):
            mp.setattr(cli, name, _echo)
        cli._parser.cache_clear()
        yield cli.build_parser()
    cli._parser.cache_clear()


def _parsed(parse, argv):
    """parse(argv)'s Namespace, or its SystemExit code, with what it printed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = parse(list(argv))
        except SystemExit as exc:
            result = ("exit", exc.code)
    return result, out.getvalue(), err.getvalue()


_COMMANDS = ["decide", "prove", "refute", "check-proof", "check-model",
             "check-refutation", "crosscheck", "batch"]
_ARGV_WORDS = _COMMANDS + [
    "--logic", "iel", "iel-", "--logic=iel-", "--format", "text", "json", "dot",
    "--file", "--bound", "--random", "--seed", "--corpus", "0", "1", "3", "-1",
    "K a -> a", "a", "~a", "--", "-h", "--help", "--he", "frob", "--frob", "-x", "",
]
_ARGVS = st.one_of(
    st.lists(st.sampled_from(_ARGV_WORDS), max_size=6),
    st.tuples(st.sampled_from(_COMMANDS), st.lists(st.sampled_from(_ARGV_WORDS), max_size=6))
    .map(lambda pair: [pair[0], *pair[1]]),
)

# Each command's option strings, with their actions, and words for values
# and positionals.
_OPTIONS = {name: {option: action for action in command._actions if action.nargs != 0
                   for option in action.option_strings}
            for name, command in cli.build_parser()._actions[1].choices.items()}
_VALUES = st.sampled_from(["iel", "iel-", "text", "json", "dot", "s4", "", "0", "1", " 3", "1_0",
                           "\u0663", "6", "7", "K a -> a", "(a | b) -> K (a | b)", "a b"])


@st.composite
def _plain_argvs(draw):
    """A command name, then options with values and 0-2 positionals (mostly
    one) in any order; no word after the name but an option string starts
    with "-".  An option with choices mostly takes one of them."""
    name = draw(st.sampled_from(_COMMANDS))
    options = _OPTIONS[name]
    units = []
    for option in draw(st.lists(st.sampled_from(sorted(options)), max_size=5)):
        choices = options[option].choices
        values = _VALUES if choices is None else st.sampled_from(list(choices)) | _VALUES
        units.append([option, draw(values)])
    units += [[draw(_VALUES)] for _ in range(draw(st.sampled_from([1, 1, 0, 2])))]
    return [name, *itertools.chain.from_iterable(draw(st.permutations(units)))]


class TestArgvParity:
    """main parses argv as build_parser().parse_args does: the same Namespace,
    or the same exit code, help and error text."""

    @pytest.mark.parametrize("argv", [
        (), ("-h",), ("decide", "-h"), ("frob", "a"), ("decide", "a", "b"),
        ("decide", "a", "--", "b"), ("decide", "--logic", "s4", "a"),
        ("crosscheck", "--bound", "0", "a"), ("--", "decide", "a"), ("batch",),
        ("refute", "--format", "dot", "a", "b", "c"), ("decide", "--", "-a"),
    ])
    def test_edge_argv(self, echo_parser, argv):
        assert _parsed(main, argv) == _parsed(echo_parser.parse_args, argv)

    @given(_ARGVS)
    @settings(max_examples=300, deadline=None)
    def test_argv(self, echo_parser, argv):
        assert _parsed(main, argv) == _parsed(echo_parser.parse_args, argv)

    @given(_plain_argvs())
    @settings(max_examples=300, deadline=None)
    def test_plain_argv(self, echo_parser, argv):
        """An argv of the plain form gives parse_args's Namespace without a
        call to it when parse_args accepts the argv, and parse_args's error
        when it does not."""
        expected = _parsed(echo_parser.parse_args, argv)
        parser, calls = cli._parser(), []

        def counted(argv):
            calls.append(argv)
            return argparse.ArgumentParser.parse_args(parser, argv)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(parser, "parse_args", counted)
            assert _parsed(main, argv) == expected
        assert len(calls) == (0 if isinstance(expected[0], argparse.Namespace) else 1)


@pytest.mark.parametrize("logic", ["iel", "iel-"])
@pytest.mark.parametrize("command", [["decide"], ["refute"], ["crosscheck", "--bound", "3"]])
def test_bench_argv_is_scanned(capsys, monkeypatch, command, logic):
    """The benchmark's argv shapes never reach argparse's parse."""
    def refuse(*args, **kwargs):
        raise AssertionError("argparse parsed an argv of the plain form")

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", refuse)
    for text in ("K a -> a", "K(a|b) -> (K a | K b)", "a -> a"):
        code, out, err = run(capsys, *command, "--format", "json", "--logic", logic, text)
        assert code in (0, 1) and err == "" and json.loads(out)


def test_command_parsers_hold_only_what_the_scan_reads():
    """cli._scan reads store actions of one value each, and at most one
    positional.  Any other kind of action (store_true, append, a const,
    nargs "*" or a count, a mutually exclusive group) it would read wrongly,
    so a command that adds one fails here first.  A positional's nargs "?"
    is matched as parse_args matches it only when it is the sole positional,
    and a string default that was not given is taken as it is: parse_args
    passes it through type, and for a positional through choices."""
    parser = cli.build_parser()
    assert [type(a) for a in parser._actions] == [argparse._HelpAction,
                                                  argparse._SubParsersAction]
    assert not parser._defaults
    for name, command in parser._actions[1].choices.items():
        assert command.prefix_chars == "-" and command.fromfile_prefix_chars is None, name
        assert not command._mutually_exclusive_groups, name
        actions = [a for a in command._actions if not isinstance(a, argparse._HelpAction)]
        for action in actions:
            assert type(action) is argparse._StoreAction, (name, action)
            assert action.nargs in (None, "?") and action.const is None, (name, action)
            if isinstance(action.default, str):
                assert action.type is None, (name, action)
                assert action.option_strings or action.choices is None, (name, action)
        assert sum(not a.option_strings for a in actions) <= 1, name


def run_process(*argv):
    """Run the CLI in a fresh interpreter, as a user would."""
    return subprocess.run([sys.executable, "-m", "ielprove.cli", *argv],
                          capture_output=True, text=True)


class TestExitCodeContract:
    @pytest.mark.parametrize("argv", [
        ("crosscheck", "--bound", "0", "K a -> a"),
        ("crosscheck", "--bound", "7", "a"),
        ("crosscheck", "--random", "-1"),
        ("decide", "~" * 1000 + "a"),
    ])
    def test_bad_input_exits_2_without_traceback(self, argv):
        run = run_process(*argv)
        assert run.returncode == 2
        assert "Traceback" not in run.stderr
        assert "error:" in run.stderr

    TOO_DEEP = (2, "", "error: input is nested too deeply\n")

    def test_over_deep_certificate_is_one_documented_line(self, capsys, tmp_path):
        # A 600-node AndL chain: json.load recurses two levels a node.
        s = Sequent(gamma=frozenset({parse("a & b")}), delta=frozenset({parse("c")}))
        t = axiom_leaf(s, "Id")
        for _ in range(600):
            t = rule_node(s, "AndL", (t,))
        path = tmp_path / "deep.json"
        path.write_text(derivation_json(t))
        assert run(capsys, "check-proof", str(path)) == self.TOO_DEEP

    @pytest.mark.parametrize("command", ["decide", "refute"])
    def test_deep_formula_certificate_prints(self, capsys, command):
        # K nested 1,200 deep on both sides of an implication: the search
        # and text output handle it, and the JSON encoder does not recurse,
        # so json mode prints the proof too (ImpR over two equal Id leaves).
        n = 1200
        text = "K " * n + "a -> " + "K " * n + "a"
        assert run(capsys, command, text)[0] == 0
        chain = '{"body": ' * n + '{"name": "a", "op": "var"}' + ', "op": "k"}' * n
        leaf = ('{"axiom": "Id", "children": [], "rule": null, "sequent": {"delta": ['
                + chain + '], "e": false, "gamma": [' + chain + '], "theta": []}}')
        imp = '{"left": ' + chain + ', "op": "imp", "right": ' + chain + '}'
        root = ('{"axiom": null, "children": [' + leaf + ", " + leaf + '], "rule": "ImpR", '
                '"sequent": {"delta": [' + imp + '], "e": false, "gamma": [], "theta": []}}')
        assert run(capsys, command, "--format", "json", text) == (
            0, '{"proof": ' + root + ', "status": "valid"}\n', "")

    @pytest.mark.parametrize("command", ["decide", "prove", "refute", "crosscheck"])
    def test_formula_and_file_together_is_an_error(self, capsys, tmp_path, command):
        path = tmp_path / "formula.txt"
        path.write_text("K a -> a\n")
        assert run(capsys, command, "a -> a", "--file", str(path)) == (
            2, "", "error: give a formula or --file, not both\n")

    FILE_READERS = pytest.mark.parametrize("argv", [
        ("decide", "--file"), ("check-proof",), ("check-model",), ("check-refutation",),
        ("batch", "--corpus"),
    ], ids=["decide", "check-proof", "check-model", "check-refutation", "batch"])

    @FILE_READERS
    def test_file_that_is_not_utf8_cannot_be_read(self, capsys, tmp_path, argv):
        # Latin-1 text: before, check-* called this a schema error, and
        # decide and batch printed "error: UnicodeDecodeError: ...".
        path = tmp_path / "latin1.txt"
        path.write_bytes("K a -> ä".encode("latin-1"))
        reason = "'utf-8' codec can't decode byte 0xe4 in position 7: unexpected end of data"
        assert run(capsys, *argv, str(path)) == (2, "", f"error: cannot read {path}: {reason}\n")

    @FILE_READERS
    def test_utf8_byte_order_mark_is_skipped(self, capsys, tmp_path, argv):
        # Before, decide gave "syntax error: unexpected character", batch a
        # corpus line error and the check commands "Unexpected UTF-8 BOM",
        # all with exit 2.
        f = parse("K a -> a")
        text = {
            "decide": "K a -> a\n",
            "check-proof": derivation_json(prover.decide(parse("a -> a"), Logic.IEL).tree),
            "check-model": json.dumps(model_to_json(prover.decide(f, Logic.IEL).model)),
            "check-refutation": refuter.refutation_json(prover.prove_or_refute_formula(f, Logic.IEL)),
            "batch": "invalid iel K a -> a\n",
        }[argv[0]]
        path = tmp_path / "input.txt"
        path.write_text(text, encoding="utf-8")
        plain = run(capsys, *argv, str(path))
        path.write_text(text, encoding="utf-8-sig")
        assert path.read_bytes().startswith(b"\xef\xbb\xbf")
        marked = run(capsys, *argv, str(path))
        assert plain[0] in (0, 1) and plain[2] == ""
        assert marked[:2] == plain[:2]

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="this Python converts integer strings of any length")
    @pytest.mark.parametrize("command", ["check-proof", "check-model", "check-refutation"])
    def test_oversized_json_integer_is_not_valid_json(self, capsys, tmp_path, command):
        # json.loads raises a plain ValueError past the digit limit; before,
        # the check commands called that a schema error.
        path = tmp_path / "big.json"
        path.write_text('{"worlds": [' + "9" * (sys.get_int_max_str_digits() + 1) + "]}")
        with pytest.raises(ValueError) as raised:
            json.loads(path.read_text())
        assert run(capsys, command, str(path)) == (
            2, "", f"error: {path} is not valid JSON: {raised.value}\n")

    @pytest.mark.parametrize("command", ["check-proof", "check-refutation", "crosscheck", "prove"])
    def test_dot_only_where_a_model_is_drawn(self, capsys, tmp_path, command):
        # Real certificates: before dot was refused, these printed "ok".
        _, proof, _ = run(capsys, "decide", "--format", "json", "a -> K a")
        _, refuted, _ = run(capsys, "refute", "--format", "json", "K a -> a")
        certificates = {"check-proof": json.loads(proof)["proof"],
                        "check-refutation": json.loads(refuted)["refutation"]}
        path = tmp_path / "certificate.json"
        path.write_text(json.dumps(certificates.get(command)))
        if command in ("crosscheck", "prove"):
            targets = ["K a -> a", "a -> a"]  # invalid and valid
        else:
            targets = [str(path)]
        for target in targets:
            code, out, err = _main_captured([command, "--format", "dot", target])
            assert code == 2 and out == ""
            assert "invalid choice: 'dot'" in err

    def test_over_deep_formula_is_one_documented_line(self, capsys):
        # The proof search recurses.
        assert run(capsys, "decide", "~" * 1000 + "a") == self.TOO_DEEP

    def test_other_exception_names_its_type(self, capsys, monkeypatch):
        def broken(f, logic):
            raise KeyError("x")

        monkeypatch.setattr(cli, "prove_or_refute_formula", broken)
        assert run(capsys, "decide", "a") == (2, "", "error: KeyError: 'x'\n")

    def test_unexpected_exception_is_one_line(self, capsys):
        code, out, err = run(capsys, "decide", "~" * 1000 + "a")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("prefix", ["~", "K "])
    def test_deep_chain_decides(self, prefix):
        # The search spends two frames a level: 400 levels fit in Python's
        # default recursion limit of 1,000.
        assert run_process("decide", prefix * 400 + "a").returncode == 1

    @pytest.mark.parametrize("command", ["decide", "prove", "refute"])
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_tree_too_large_to_print(self, capsys, command, fmt):
        # One search node a level, but ImpR's two premises are the same
        # sequent: as a tree, the proof has 2^31 - 1 nodes.
        assert run(capsys, command, "--format", fmt, "a -> " * 30 + "a") == (
            2, "", "error: the proof has 2147483647 nodes as a tree, "
                   "more than the 100000 this command prints\n")

    TOO_LARGE = re.compile(r"error: the (proof|refutation) has \d+ nodes as a tree, "
                           r"more than the 100000 this command prints\n")

    @settings(max_examples=15, deadline=None)
    @given(shape=st.sampled_from(["K ", "~", "a -> ", "("]), n=st.integers(2000, 5000),
           # Between 9 and 16 implications a certificate prints, and takes
           # seconds to write and check.
           inner=st.integers(0, 8) | st.integers(17, 30),
           logic=st.sampled_from(["iel", "iel-"]))
    def test_deep_chains(self, tmp_path_factory, shape, n, inner, logic):
        """n connectives of one shape over "a", or n parentheses around a
        chain of inner implications: decide and refute exit 0 or 1 with
        certificates that check-proof, check-refutation and check-model
        accept, or exit 2 with one of two lines; check-proof on an Id leaf
        over the chain accepts it, or exits 2 as nested too deeply."""
        if shape == "(":
            text = "(" * n + "a -> " * inner + "a" + ")" * n
        else:
            text = shape * n + "a"
        path = tmp_path_factory.getbasetemp() / "chain.json"

        def check(command, certificate):
            path.write_text(certificate)
            code, out, err = _main_captured([command, "--logic", logic, str(path)])
            assert (code, out, err) in ((0, "ok\n", ""), self.TOO_DEEP)

        for command in ("decide", "refute"):
            code, out, err = _main_captured([command, "--format", "json", "--logic", logic,
                                             text])
            if code == 2:
                assert out == "" and (err == self.TOO_DEEP[2] or self.TOO_LARGE.fullmatch(err))
                continue
            assert code in (0, 1) and err == ""
            obj = json.loads(out)
            for key in CHECKERS.keys() & obj.keys():
                check(CHECKERS[key], json.dumps(obj[key]))
        f = parse(text)
        check("check-proof", derivation_json(axiom_leaf(
            Sequent(gamma=frozenset({f}), delta=frozenset({f})), "Id")))


# Random JSON built from the certificates' own keys and names, so that
# decoding gets past its first checks often.
_KEYS = ("sequent", "rule", "axiom", "children", "calculus", "theta", "gamma",
         "delta", "e", "op", "name", "left", "right", "body", "worlds", "root",
         "leq", "val")
_NAMES = ("AndL", "AndR", "ImpR", "KL", "KR", "eKR", "Glue", "KL2", "ImpR1",
          "Id", "Irr", "eId", "Sat", "eSat", "kSat", "var", "bot", "and", "or",
          "imp", "k", "a", "b", "0", "1")
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 3) | st.sampled_from(_NAMES)
    | st.text(max_size=4) | st.floats(allow_nan=False, allow_infinity=False),
    lambda kids: st.lists(kids, max_size=4)
    | st.dictionaries(st.sampled_from(_KEYS) | st.text(max_size=3), kids, max_size=5),
    max_leaves=25,
)
CHECKERS = {"proof": "check-proof", "refutation": "check-refutation", "model": "check-model"}


@lru_cache(maxsize=1)
def real_certificates() -> tuple[tuple[str, str, object], ...]:
    """(checker, logic, certificate) from refute --format json."""
    out = []
    for text in ("K a -> a", "K(a|b) -> (K a | K b)", "K a -> ~~a", "a | ~a",
                 "K(a->b) -> (K a -> K b)", "((a -> b) -> a) -> a"):
        for logic in ("iel", "iel-"):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                main(["refute", "--format", "json", "--logic", logic, text])
            obj = json.loads(buf.getvalue())
            out.extend((CHECKERS[key], logic, obj[key]) for key in CHECKERS if key in obj)
    return tuple(out)


@st.composite
def mutated_certificates(draw):
    """A real certificate with one to three parts replaced, dropped or
    copied from elsewhere in it."""
    command, logic, cert = draw(st.sampled_from(real_certificates()))
    cert = copy.deepcopy(cert)
    for _ in range(draw(st.integers(1, 3))):
        parent, key, node = None, None, cert
        for _ in range(draw(st.integers(0, 12))):
            if not isinstance(node, (dict, list)) or not node:
                break
            keys = sorted(node) if isinstance(node, dict) else range(len(node))
            parent, key = node, draw(st.sampled_from(keys))
            node = parent[key]
        if parent is None:
            continue
        action = draw(st.sampled_from(("replace", "drop", "copy")))
        if action == "drop":
            del parent[key]
        elif action == "copy":
            parent[key] = copy.deepcopy(draw(st.sampled_from(list(_parts(cert)))))
        else:
            parent[key] = draw(json_values)
    return command, logic, cert


def _parts(obj):
    """obj and every value nested in it."""
    yield obj
    values = obj.values() if isinstance(obj, dict) else obj if isinstance(obj, list) else ()
    for value in values:
        yield from _parts(value)


def _main_captured(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects its arguments
            code = exc.code
    return code, out.getvalue(), err.getvalue()


class TestCheckerExitCodes:
    """check-proof, check-refutation and check-model on any JSON: exit 0,
    1 or 2, and exit 2 only for a schema error, in one line."""

    def _check(self, tmp_path_factory, command, logic, cert, fmt="text"):
        path = tmp_path_factory.getbasetemp() / "certificate.json"
        path.write_text(json.dumps(cert))
        code, _, err = _main_captured([command, "--logic", logic, "--format", fmt, str(path)])
        assert code in (0, 1, 2) and "Traceback" not in err
        if code == 2:
            assert err.startswith("error: schema error") and err.count("\n") == 1, err
        else:
            assert err == ""
        return code

    def test_real_certificates_pass(self, tmp_path_factory):
        for command, logic, cert in real_certificates():
            assert self._check(tmp_path_factory, command, logic, cert) == 0

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(sorted(CHECKERS.values())), st.sampled_from(("iel", "iel-")),
           json_values, st.sampled_from(("text", "json")))
    def test_random_json(self, tmp_path_factory, command, logic, obj, fmt):
        self._check(tmp_path_factory, command, logic, obj, fmt)

    @settings(max_examples=200, deadline=None)
    @given(mutated_certificates(), st.sampled_from(("text", "json")))
    def test_mutated_certificates(self, tmp_path_factory, mutated, fmt):
        self._check(tmp_path_factory, *mutated, fmt)


# Formula text for the formula commands: arbitrary text, text over the
# formula alphabet, and rendered formulas.
formula_texts = (st.text(max_size=20)
                 | st.text(alphabet=" ()~&|->Kabfalse", max_size=24)
                 | formulas.map(render))


class TestFormulaExitCodes:
    """decide, prove, refute, crosscheck and batch on any text: exit 0, 1 or
    2 and no traceback; a certificate printed with exit 0 or 1 passes its
    checker."""

    @pytest.mark.parametrize("command", [
        ("decide",), ("prove",), ("refute",), ("crosscheck", "--bound", "2")])
    @settings(max_examples=100, deadline=None)
    @given(text=formula_texts, logic=st.sampled_from(("iel", "iel-")),
           fmt=st.sampled_from(("text", "json", "dot")))
    def test_formula_commands(self, command, text, logic, fmt):
        # "--" keeps text that starts with "-" a formula, not a flag.
        code, out, err = _main_captured([*command, "--logic", logic, "--format", fmt,
                                         "--", text])
        assert code in (0, 1, 2) and "Traceback" not in err, err
        if code == 2 or fmt != "json" or command[0] not in ("decide", "refute"):
            return
        f, lg = parse(text), Logic(logic)
        obj = json.loads(out)
        if code == 0:
            assert check_proof(proof_from_json(obj["proof"]), lg) == []
            return
        model = model_from_json(obj["model"])
        assert check_frame(model, lg) == []
        assert satisfies(model, model.root, Sequent(delta=frozenset({f})))
        if command[0] == "refute":
            assert check_refutation(refutation_from_json(obj["refutation"]), lg) == []

    @settings(max_examples=100, deadline=None)
    @given(st.lists(
        st.text(max_size=20)
        | st.tuples(st.sampled_from(("valid", "invalid", "maybe")),
                    st.sampled_from(("iel", "iel-", "iel+")),
                    formula_texts).map(" ".join),
        max_size=5))
    def test_batch(self, tmp_path_factory, lines):
        path = tmp_path_factory.getbasetemp() / "corpus.txt"
        path.write_text("\n".join(lines), encoding="utf-8")
        code, _, err = _main_captured(["batch", "--corpus", str(path)])
        assert code in (0, 1, 2) and "Traceback" not in err, err
