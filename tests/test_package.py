"""The package surface: what a command's import loads, the lazily resolved
public names, the names the benchmark harness imports, and records that
cannot be changed once built but can be copied and pickled."""

import ast
import copy
import importlib
import importlib.util
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import ielprove
from ielprove import formula
from ielprove.formula import Var, parse
from ielprove.prover import decide, prove_or_refute_formula
from ielprove.sequent import Logic, Sequent, sequent

SRC = str(Path(ielprove.__file__).resolve().parent.parent)
BENCH = Path(__file__).resolve().parent.parent / "bench"
WATCHED = ("dataclasses", "ielprove.oracle")


def loaded(code: str) -> set[str]:
    """The modules of WATCHED, and the ielprove submodules, that a fresh
    interpreter holds after running code."""
    probe = ("\nimport json, sys\nprint(json.dumps(sorted(m for m in sys.modules\n"
             f"    if m in {WATCHED!r} or m.startswith('ielprove.'))))\n")
    run = subprocess.run([sys.executable, "-c", code + probe], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": SRC})
    assert run.returncode == 0, run.stderr
    return set(json.loads(run.stdout.splitlines()[-1]))


class TestStartUp:
    """A command loads only what it runs.  The baseline interpreter imports
    what the command line needs from the standard library, so a Python whose
    argparse, json or typing imports dataclasses does not fail the test."""

    def test_decide_loads_neither_dataclasses_nor_the_oracle(self):
        baseline = loaded("import argparse, json, typing")
        got = loaded("import ielprove.cli as cli\n"
                     "cli.main(['decide', '--format', 'json', 'K a -> a'])")
        assert "ielprove.cli" in got
        assert not {m for m in got if m in WATCHED} - baseline

    def test_crosscheck_loads_the_oracle(self):
        got = loaded("import ielprove.cli as cli\ncli.main(['crosscheck', '--bound', '1', 'a'])")
        assert "ielprove.oracle" in got

    def test_package_import_loads_no_submodule(self):
        assert loaded("import ielprove") == set()


class TestLazyPackage:
    def test_every_public_name_resolves_and_is_listed(self):
        listed = dir(ielprove)
        for name in ielprove.__all__:
            assert getattr(ielprove, name) is not None
            assert name in listed
        assert ielprove.parse is formula.parse and ielprove.BOT is formula.BOT

    def test_submodules_resolve_on_first_use(self):
        got = loaded("import ielprove\nielprove.kripke.depth")
        assert "ielprove.kripke" in got and "ielprove.oracle" not in got

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            ielprove.no_such_name  # noqa: B018
        assert not hasattr(ielprove, "cli_main")


def _resolves(module: str, name: str) -> bool:
    """Whether `from module import name` finds name: an attribute of the
    module, or a submodule of a package, imported or not."""
    found = importlib.import_module(module)
    return hasattr(found, name) or (
        hasattr(found, "__path__") and importlib.util.find_spec(f"{module}.{name}") is not None)


class TestBenchImports:
    def test_every_name_the_bench_imports_resolves(self):
        """Each `from ielprove... import name` in bench/*.py, read with ast
        and not run, names something its module defines."""
        imported = [(node.module, alias.name)
                    for path in sorted(BENCH.glob("*.py"))
                    for node in ast.walk(ast.parse(path.read_text(), str(path)))
                    if isinstance(node, ast.ImportFrom) and node.level == 0
                    and (node.module or "").split(".")[0] == "ielprove"
                    for alias in node.names]
        assert {module for module, _ in imported} >= {"ielprove.rules", "ielprove.refuter"}
        missing = [(module, name) for module, name in imported if not _resolves(module, name)]
        assert missing == []


class TestImmutableRecords:
    @pytest.mark.parametrize("field", ["left", "right", "_text", "_subs"])
    def test_formula(self, field):
        f = parse("a -> K b")
        with pytest.raises(AttributeError):
            setattr(f, field, Var("c"))
        with pytest.raises(AttributeError):
            delattr(f, field)
        assert f == parse("a -> K b")

    @pytest.mark.parametrize("field", ["theta", "gamma", "delta", "e_flag", "size"])
    def test_sequent(self, field):
        s = sequent([], [parse("a")], [parse("a & b")])
        with pytest.raises(AttributeError):
            setattr(s, field, frozenset())
        assert s.size == 1

    def test_derivation(self):
        t = prove_or_refute_formula(parse("K a -> a"), Logic.IEL)
        with pytest.raises(AttributeError):
            t.rule = "OrR"

    def test_kripke_model(self):
        m = decide(parse("K a -> a"), Logic.IEL).model
        with pytest.raises(AttributeError):
            m.root = 1

    def test_equal_sequents_hash_equal(self):
        a, b = parse("a -> b"), parse("K a")
        s = Sequent(frozenset({a}), frozenset({b}), frozenset({a, b}), True)
        t = sequent([parse("a -> b")], [parse("K a")], [parse("K a"), parse("a -> b")], True)
        assert s == t and hash(s) == hash(t)
        assert s != sequent([a], [b], [a, b], False)
        assert "size" not in repr(s) and repr(s).startswith("Sequent(theta=frozenset({")

    def test_equal_derivations_hash_equal(self):
        f = parse("K(a | b) -> (K a | K b)")
        t, u = (prove_or_refute_formula(f, Logic.IEL) for _ in range(2))
        assert t is not u
        assert t == u and hash(t) == hash(u)


class TestSequentRecord:
    """A Sequent is the NamedTuple of its four fields; size is computed."""

    s = sequent([parse("a")], [parse("K(a | b)")], [parse("~c & a")], True)

    def test_fields(self):
        assert Sequent._fields == ("theta", "gamma", "delta", "e_flag")
        assert "size" not in Sequent._fields and self.s.size == 4

    def test_unpacks_to_its_fields(self):
        theta, gamma, delta, e_flag = self.s
        assert (theta, gamma, delta, e_flag) == (self.s.theta, self.s.gamma, self.s.delta, True)
        assert self.s == (theta, gamma, delta, e_flag)  # a tuple equals its plain tuple

    def test_replace_is_a_fresh_sequent(self):
        c = frozenset({parse("c")})
        t = self.s._replace(delta=c, e_flag=False)
        fresh = Sequent(self.s.theta, self.s.gamma, c, False)
        assert type(t) is Sequent and t == fresh and hash(t) == hash(fresh) and t.size == 2

    def test_hash_is_the_hash_of_its_fields(self):
        s = self.s
        assert hash(s) == hash((s.theta, s.gamma, s.delta, s.e_flag))


class TestCopyAndPickle:
    @pytest.mark.parametrize("make", [
        lambda: parse("a -> K b"),
        lambda: parse("false"),
        lambda: sequent([parse("a")], [parse("K(a | b)")], [parse("~c & a")], True),
        lambda: prove_or_refute_formula(parse("K(a -> b) -> (K a -> K b)"), Logic.IEL).tree,
    ], ids=["formula", "bottom", "sequent", "proof"])
    @pytest.mark.parametrize("round_trip", [
        copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x)),
    ], ids=["copy", "deepcopy", "pickle"])
    def test_round_trip(self, make, round_trip):
        x = make()
        y = round_trip(x)
        assert type(y) is type(x) and y == x and hash(y) == hash(x)
