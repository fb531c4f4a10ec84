"""Certificates are DAGs in memory: the memoized search hands back one node
object per repeated subsequent.  Checking, depth and JSON visit each
distinct node once per call; these tests pin that the results are those of
the expanded tree, and that deep derivations need no recursion."""

import json
from pathlib import Path

import pytest

from conftest import derivation_dict, reference_check_proof, reference_check_refutation
from ielprove.cli import _crosscheck_report, main
from ielprove.formula import K, Formula, parse, render
from ielprove.kripke import check_frame, model_from_json, model_to_json
from ielprove.oracle import random_formulas
from ielprove.prover import Proof, decide, prove_or_refute_formula
from ielprove.refuter import (
    check_refutation,
    extract_model,
    refutation_from_json,
    refutation_json,
    refutation_to_json,
)
from ielprove.rules import (
    Derivation,
    axiom_leaf,
    check_proof,
    derivation_depth,
    derivation_json,
    derivation_size,
    derivation_text,
    proof_from_json,
    proof_to_json,
    rule_node,
)
from ielprove.sequent import Logic, sequent

a = parse("a")


def unshared(t: Derivation) -> Derivation:
    """The same derivation with a fresh object at every occurrence."""
    return Derivation(t.sequent, t.rule, t.axiom, tuple(unshared(c) for c in t.children))


def _nodes(t: Derivation):
    """Every occurrence, expanded."""
    stack = [t]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(node.children)


def occurrences(t: Derivation) -> int:
    return sum(1 for _ in _nodes(t))


def distinct(t: Derivation) -> int:
    return len({id(node) for node in _nodes(t)})


def _conj(parts):
    return " & ".join(f"({p})" for p in parts)


def k_chain(n):
    links = _conj([f"K(p{i} -> p{i + 1})" for i in range(n)])
    return f"({links}) -> K p0 -> K p{n}"


def k_conj(n):
    ps = [f"p{i}" for i in range(n)]
    return f"({_conj([f'K {p}' for p in ps])}) -> K({_conj(ps)})"


def k_power(n):
    return f"{'K ' * n}p -> {'K ' * (n + 1)}p"


FAMILY_TEXTS = ([k_chain(n) for n in range(2, 7)] + [k_conj(n) for n in range(2, 9)]
                + [k_power(n) for n in range(1, 12)])


# The formulas of tests/golden/certificates.json and the valid K families.
FORMULAS = [*random_formulas(80, seed=31337), *map(parse, FAMILY_TEXTS)]


@pytest.fixture(scope="module")
def certs():
    """(proof or refutation, is_refutation, logic) per formula and logic."""
    out = []
    for f in FORMULAS:
        for logic in Logic:
            result = prove_or_refute_formula(f, logic)
            if isinstance(result, Proof):
                out.append((result.tree, False, logic))
            else:
                out.append((result, True, logic))
    return out


def _has_twins(s) -> bool:
    """Some two formula objects in s, subformulas included, are equal but
    not the same object."""
    seen = {}
    stack = [*s.theta, *s.gamma, *s.delta]
    while stack:
        f = stack.pop()
        if seen.setdefault(f, f) is not f:
            return True
        stack.extend(v for v in vars(f).values() if isinstance(v, Formula))
    return False


class TestSharedDefects:
    def _shared_proof(self):
        """Y & Y with Y = (a & a) & (a & a).  One object T proves both
        premises of the root, and one object S proves the first premise
        of T, so the defects of S and of T each occur more than once."""
        aa = parse("a & a")
        y_text = "(a & a) & (a & a)"
        y = parse(y_text)
        s_node = rule_node(sequent([], [], [aa]), "AndR", (
            axiom_leaf(sequent([], [], [a]), "Id"),
            axiom_leaf(sequent([], [], [a]), "Irr"),
        ))
        u_node = axiom_leaf(sequent([], [], [aa]), "Id")
        t_node = rule_node(sequent([], [], [y]), "AndR", (s_node, u_node))
        return rule_node(sequent([], [], [parse(f"({y_text}) & ({y_text})")]),
                         "AndR", (t_node, t_node))

    def test_each_occurrence_reports_its_defects_in_tree_order(self):
        t = self._shared_proof()
        copy = unshared(t)
        assert distinct(t) < occurrences(t) == distinct(copy)
        defects = check_proof(t, Logic.IEL)
        assert defects == check_proof(copy, Logic.IEL) == reference_check_proof(t, Logic.IEL)
        for logic in Logic:
            assert check_refutation(t, logic) == reference_check_refutation(t, logic)
        assert [str(d) for d in defects] == [
            "BadAxiom: Id does not fit  ;  => a",
            "BadAxiom: Irr does not fit  ;  => a",
            "BadAxiom: Id does not fit  ;  => a & a",
        ] * 2

    def test_shared_tampered_node_in_a_search_proof(self):
        """Replace every occurrence of a leaf the search shares by a leaf
        without an axiom: the DAG and its expansion get the same defect
        list, one defect per occurrence."""
        t = decide(parse(k_chain(3)), Logic.IEL).tree
        counts = {}
        for node in _nodes(t):
            counts[id(node)] = counts.get(id(node), 0) + 1
        leaf = next(n for n in _nodes(t) if not n.children and counts[id(n)] > 1)
        memo = {}

        def swap(node):
            if id(node) not in memo:
                memo[id(node)] = (
                    Derivation(node.sequent, None, None, ()) if node is leaf
                    else Derivation(node.sequent, node.rule, node.axiom,
                                    tuple(swap(c) for c in node.children)))
            return memo[id(node)]

        dag = swap(t)
        assert distinct(dag) < occurrences(dag)
        defects = check_proof(dag, Logic.IEL)
        assert defects == check_proof(unshared(dag), Logic.IEL) == reference_check_proof(
            dag, Logic.IEL)
        for logic in Logic:
            assert check_refutation(dag, logic) == reference_check_refutation(dag, logic)
        assert [d.kind for d in defects] == ["NonAxiomLeaf"] * counts[id(leaf)]


class TestEncoder:
    def test_bytes_equal_json_dumps_of_the_dict(self, certs):
        shared = 0
        for t, is_refutation, _ in certs:
            assert derivation_size(t) == occurrences(t)
            assert derivation_json(t) == json.dumps(derivation_dict(t), sort_keys=True)
            assert proof_to_json(t) == derivation_dict(t)
            if is_refutation:
                assert refutation_json(t) == json.dumps(derivation_dict(t, "riel"), sort_keys=True)
                assert refutation_to_json(t) == derivation_dict(t, "riel")
            shared += distinct(t) < occurrences(t)
        assert shared > 20

    def test_bytes_equal_json_dumps_on_random_certificates(self):
        """Seeded random formulas of up to 4-20 connectives, both logics.
        Formulas are hash-consed, so no sequent of the sample holds equal
        formulas as distinct objects, subformulas included."""
        kinds, twins = set(), 0
        for n in (4, 8, 12, 16, 20):
            for f in random_formulas(30, seed=n, max_connectives=n):
                for logic in Logic:
                    result = prove_or_refute_formula(f, logic)
                    t = result.tree if isinstance(result, Proof) else result
                    assert derivation_size(t) == occurrences(t)
                    assert derivation_json(t) == json.dumps(derivation_dict(t), sort_keys=True)
                    assert proof_to_json(t) == derivation_dict(t)
                    if not isinstance(result, Proof):
                        assert refutation_json(t) == json.dumps(
                            derivation_dict(t, "riel"), sort_keys=True)
                        assert refutation_to_json(t) == derivation_dict(t, "riel")
                    kinds.add(isinstance(result, Proof))
                    twins += any(_has_twins(node.sequent) for node in _nodes(t))
        assert kinds == {True, False}
        assert twins == 0

    def test_depth_and_checks_match_the_expansion(self, certs):
        for t, is_refutation, logic in certs:
            copy = unshared(t)
            assert derivation_depth(t) == derivation_depth(copy)
            check = check_refutation if is_refutation else check_proof
            assert check(t, logic) == check(copy, logic) == []


GOLDEN = Path(__file__).resolve().parent / "golden"

# The refute-families bench workload's de-bruijn n=1 formula, written out
# with atoms p0-p2: its proof is about 680 KB of JSON.
DE_BRUIJN_1 = (
    "(((((p0) -> (p1)) & ((p1) -> (p0))) -> ((p0) & (p1) & (p2)))"
    " & ((((p1) -> (p2)) & ((p2) -> (p1))) -> ((p0) & (p1) & (p2)))"
    " & ((((p2) -> (p0)) & ((p0) -> (p2))) -> ((p0) & (p1) & (p2))))"
    " -> ((p0) & (p1) & (p2))")


class TestCliBytes:
    """Every --format json answer is json.dumps(obj, sort_keys=True) of its
    dict form, plus a newline, byte for byte; the certificates in it are
    the dict forms of conftest's reference encoder."""

    def _expect(self, capsys, argv, obj, code):
        assert main(argv) == code, argv
        assert capsys.readouterr().out == json.dumps(obj, sort_keys=True) + "\n", argv

    def test_decide_and_refute_json(self, capsys):
        """decide, prove and refute, on every formula under both logics."""
        for f in [*FORMULAS, parse(DE_BRUIJN_1), parse(k_chain(6))]:
            for logic in Logic:
                argv = ("--format", "json", "--logic", logic.value, render(f))
                out = decide(f, logic)
                if isinstance(out, Proof):
                    proof = {"status": "valid", "proof": derivation_dict(out.tree)}
                    decided = proved = refuted = proof
                else:
                    decided = {"status": "invalid", "model": model_to_json(out.model)}
                    proved = {"status": "invalid"}
                    r = prove_or_refute_formula(f, logic)
                    refuted = {"status": "invalid", "refutation": derivation_dict(r, "riel"),
                               "model": model_to_json(extract_model(r, logic))}
                for command, obj in (("decide", decided), ("prove", proved),
                                     ("refute", refuted)):
                    self._expect(capsys, [command, *argv], obj,
                                 0 if obj["status"] == "valid" else 1)

    def test_check_commands_json(self, capsys, tmp_path):
        """A certificate that checks and one that does not, per command."""
        f = parse("K a -> a")
        proof = decide(parse("K(a -> b) -> (K a -> K b)"), Logic.IEL).tree
        refutation = prove_or_refute_formula(f, Logic.IEL)
        model = decide(f, Logic.IEL).model
        files = {
            "check-proof": [derivation_dict(proof),
                            json.loads((GOLDEN / "nonsubformula-proof.json").read_text())],
            "check-refutation": [derivation_dict(refutation, "riel"), json.loads(
                (GOLDEN / "nonsubformula-refutation.json").read_text())],
            "check-model": [model_to_json(model), {**model_to_json(model), "e": []}],
        }
        decoders = {"check-proof": (proof_from_json, check_proof),
                    "check-refutation": (refutation_from_json, check_refutation),
                    "check-model": (model_from_json, check_frame)}
        seen = set()
        for command, certificates in files.items():
            decode, check = decoders[command]
            for i, certificate in enumerate(certificates):
                path = tmp_path / f"{command}-{i}.json"
                path.write_text(json.dumps(certificate))
                defects = check(decode(certificate), Logic.IEL)
                seen.add(not defects)
                self._expect(capsys, [command, "--format", "json", str(path)],
                             {"ok": not defects, "defects": [str(d) for d in defects]},
                             0 if not defects else 1)
        assert seen == {True, False}

    def test_crosscheck_json(self, capsys):
        for logic in Logic:
            for f in (parse("K a -> a"), parse("a -> K a"), parse("K a -> ~~a")):
                report = _crosscheck_report(f, logic, 2)
                self._expect(capsys, ["crosscheck", "--format", "json", "--logic", logic.value,
                                      "--bound", "2", render(f)],
                             {"consistent": report["consistent"], "reports": [report]}, 0)
        reports = [_crosscheck_report(f, Logic.IEL, 3) for f in random_formulas(5, seed=1)]
        self._expect(capsys, ["crosscheck", "--format", "json", "--random", "5", "--seed", "1"],
                     {"consistent": True, "reports": reports}, 0)


class TestDeepDerivation:
    N = 5000

    def _chain(self, n):
        """n AndL nodes over one leaf, all on one sequent: the formulas stay
        shallow and only the tree is deep."""
        s = sequent([], [parse("a & b")], [parse("c")])
        t = axiom_leaf(s, "Id")
        for _ in range(n):
            t = rule_node(s, "AndL", (t,))
        return t

    def test_deep_formulas_encode_without_recursion(self):
        """An Id leaf holding a 5,000-deep K chain on both sides: each
        formula's text is built from its children's, children first."""
        f = a
        for _ in range(self.N):
            f = K(f)
        chain = '{"body": ' * self.N + '{"name": "a", "op": "var"}' + ', "op": "k"}' * self.N
        leaf = axiom_leaf(sequent([], [f], [f]), "Id")
        assert derivation_json(leaf) == (
            '{"axiom": "Id", "children": [], "rule": null, "sequent": {"delta": ['
            + chain + '], "e": false, "gamma": [' + chain + '], "theta": []}}')

    def test_check_depth_and_encode_without_recursion(self):
        t = self._chain(self.N)
        assert derivation_depth(t) == self.N
        kinds = [d.kind for d in check_proof(t, Logic.IEL)]
        assert kinds == ["BadInstantiation"] * self.N + ["BadAxiom", "DepthBound"]
        kinds = [d.kind for d in check_refutation(t, Logic.IEL)]
        assert kinds == ["BadInstantiation"] * self.N + ["BadAxiom", "DepthBound"]
        leaf = json.dumps(derivation_dict(self._chain(0)), sort_keys=True)
        head, tail = json.dumps(derivation_dict(self._chain(1)), sort_keys=True).split(leaf)
        assert derivation_json(t) == head * self.N + leaf + tail * self.N
        lines = derivation_text(t).split("\n")
        assert len(lines) == self.N + 1
        assert lines[-1] == "  " * self.N + derivation_text(self._chain(0))

    def test_decode_without_recursion(self):
        """A 2,000-node chain handed to the decoder as Python objects, deeper
        than CPython's json decoder reads: each node is checked on the way
        down and built on the way back, children first."""
        n = 2000
        leaf = derivation_dict(self._chain(0))
        obj = leaf
        for _ in range(n):
            obj = {"sequent": leaf["sequent"], "rule": "AndL", "axiom": None, "children": [obj]}
        t = proof_from_json(obj)
        assert derivation_depth(t) == n
        assert derivation_json(t) == derivation_json(self._chain(n))
        kinds = [d.kind for d in check_proof(t, Logic.IEL)]
        assert kinds == ["BadInstantiation"] * n + ["BadAxiom", "DepthBound"]
