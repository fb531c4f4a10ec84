import ast
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ielprove
from ielprove import oracle
from ielprove.cli import main
from ielprove.formula import parse, render
from ielprove.kripke import KripkeModel, check_frame, forces, model_to_json
from ielprove.oracle import (
    _e_relations,
    _force_masks,
    _model,
    _orders,
    _rooted_orders,
    brute_force_invalid,
    enumerate_models,
    random_formulas,
    variables,
)
from ielprove.sequent import Logic

GOLDEN = Path(__file__).resolve().parent / "golden" / "oracle_reports.json"
CORPUS = Path(__file__).resolve().parent.parent / "corpus" / "paper.txt"


class TestEnumerate:
    def test_single_world_counts(self):
        # With seriality a lone world must E-reach itself; without it the
        # empty relation is also allowed.
        assert len(list(enumerate_models(frozenset(), 1, Logic.IEL))) == 1
        assert len(list(enumerate_models(frozenset(), 1, Logic.IEL_MINUS))) == 2

    def test_models_pass_frame_check(self):
        for logic in Logic:
            for m in enumerate_models(frozenset({"a"}), 2, logic):
                assert check_frame(m, logic) == []

    def test_deterministic_order(self):
        first = list(enumerate_models(frozenset({"a"}), 2, Logic.IEL))
        second = list(enumerate_models(frozenset({"a"}), 2, Logic.IEL))
        assert first == second

    def test_bound_validated(self, monkeypatch):
        # Refused before any order is enumerated: _rooted_orders(7) alone
        # would try 2^30 relations.
        def refuse(n):
            raise AssertionError(f"enumerated the orders on {n} worlds")

        monkeypatch.setattr(oracle, "_rooted_orders", refuse)
        for bound in (0, 7):
            with pytest.raises(ValueError):
                next(enumerate_models(frozenset(), bound, Logic.IEL))

    def test_valuations_are_persistent(self):
        for m in enumerate_models(frozenset({"a", "b"}), 2, Logic.IEL_MINUS):
            for w, v in m.leq:
                assert m.valuation[w] <= m.valuation[v]


class TestBruteForce:
    def test_classical_reflection(self):
        r = brute_force_invalid(parse("K a -> a"), 2, Logic.IEL)
        assert r.countermodel is not None
        assert r.min_depth_found == 2

    def test_co_reflection_has_no_countermodel(self):
        r = brute_force_invalid(parse("a -> K a"), 3, Logic.IEL)
        assert r.countermodel is None
        assert r.min_depth_found is None

    def test_bare_k(self):
        r = brute_force_invalid(parse("K a"), 3, Logic.IEL)
        assert r.min_depth_found == 1

    def test_countermodels_refute(self):
        for text in ("K a -> a", "K a", "K(a | b) -> (K a | K b)"):
            f = parse(text)
            r = brute_force_invalid(f, 3, Logic.IEL)
            assert r.countermodel is not None
            assert not forces(r.countermodel, r.countermodel.root, f)


class TestForceMasks:
    def test_masks_match_reference_forcing(self):
        # Bit i of a world's mask is forces() in the order's i-th model.
        names = ("a", "b")
        formulas = random_formulas(30, seed=77, variables=names)
        for logic in Logic:
            for n in (1, 2, 3):
                for order in _orders(n, len(names), logic):
                    models = [_model(order, names, i, logic) for i in range(order.models)]
                    for f in formulas:
                        masks = _force_masks(order, f, names)[f]
                        for i, m in enumerate(models):
                            for w in sorted(m.worlds):
                                assert (masks[w] >> i & 1) == forces(m, w, f), (
                                    render(f), logic.value, m, w)

    def test_scan_builds_at_most_one_model(self, monkeypatch):
        f = parse("K(a | b) -> (K a | K b)")
        brute_force_invalid(f, 3, Logic.IEL)  # the orders are cached from here on
        built = []

        def counting(*args):
            built.append(args)
            return KripkeModel(*args)

        monkeypatch.setattr(oracle, "KripkeModel", counting)
        assert brute_force_invalid(f, 3, Logic.IEL).countermodel is not None
        assert len(built) == 1
        assert brute_force_invalid(parse("a -> K a"), 3, Logic.IEL).countermodel is None
        assert len(built) == 1


def _break_im2(e_relations):
    """_e_relations plus, over an order with 0 < 1, E = {(1, 1)}: the edge
    (1, 1) is not inherited by 0, so Im2 fails."""
    def planted(leq, n, logic):
        extra = [frozenset({(1, 1)})] if (0, 1) in leq else []
        return e_relations(leq, n, logic) + extra
    return planted


@pytest.fixture
def fresh_orders():
    """An empty order cache, so that patched helpers are called."""
    _orders.cache_clear()
    yield
    _orders.cache_clear()


def _filtered_e_relations(leq, n, logic):
    """_e_relations as a filter over every subset of the order's pairs, in
    the order of their bitmasks over the sorted pairs."""
    pairs = sorted(leq)
    bit = {p: 1 << k for k, p in enumerate(pairs)}
    needs = [(bit[b, c], sum(bit[a, c] for a in range(n) if (a, b) in leq))
             for b, c in pairs]
    leaving = [sum(bit[p] for p in pairs if p[0] == w) for w in range(n)]
    out = []
    for bits in range(1 << len(pairs)):
        if any(bits & edge and needed & ~bits for edge, needed in needs):
            continue
        if logic is Logic.IEL and not all(bits & edges for edges in leaving):
            continue
        out.append(frozenset(p for p in pairs if bits & bit[p]))
    return out


class TestFrames:
    def test_e_relations_match_the_filter(self):
        for logic in Logic:
            for n in range(1, 5):
                for leq in _rooted_orders(n):
                    assert _e_relations(leq, n, logic) == _filtered_e_relations(leq, n, logic)

    def test_frames_are_built_once_per_world_count(self, monkeypatch, fresh_orders):
        calls = []

        def counting(leq, n, logic):
            calls.append((leq, n, logic))
            return _e_relations(leq, n, logic)

        monkeypatch.setattr(oracle, "_e_relations", counting)
        for n in range(1, 4):
            for k in range(4):
                for logic in Logic:
                    _orders(n, k, logic)
        assert len(calls) == len(set(calls)) == 2 * sum(len(_rooted_orders(n)) for n in (1, 2, 3))

    def test_mask_layout(self):
        # The orders of k variables are the orders of none, the frames, with
        # each frame's bit spread over its valuations.
        for logic in Logic:
            for n in range(1, 4):
                frames = _orders(n, 0, logic)
                for k in range(3):
                    orders = _orders(n, k, logic)
                    assert len(orders) == len(frames)
                    for order, fr in zip(orders, frames):
                        assert order.leq is fr.leq
                        assert order.e_rels is fr.e_rels
                        assert order.ups is fr.ups
                        assert order.size == len(order.ups) ** k
                        assert order.full == (1 << order.models) - 1
                        for w, pairs in enumerate(order.e_up):
                            assert [u for u, _ in pairs] == [
                                u for u in range(n) if any((w, u) in e for e in order.e_rels)]
                            for u, absent in pairs:
                                assert absent == sum(
                                    1 << e * order.size + i
                                    for e, rel in enumerate(order.e_rels) if (w, u) not in rel
                                    for i in range(order.size))


class TestFrameCheck:
    def test_planted_e_relation_is_rejected(self, monkeypatch, fresh_orders):
        monkeypatch.setattr(oracle, "_e_relations", _break_im2(oracle._e_relations))
        with pytest.raises(AssertionError, match="Im2"):
            brute_force_invalid(parse("a -> a"), 2, Logic.IEL_MINUS)
        with pytest.raises(AssertionError, match="Im2"):
            list(enumerate_models(frozenset({"a"}), 2, Logic.IEL))

    def test_planted_up_set_is_rejected(self, monkeypatch, fresh_orders):
        plain = oracle._upsets
        monkeypatch.setattr(oracle, "_upsets",
                            lambda leq, n: plain(leq, n) + [frozenset({0})])
        with pytest.raises(AssertionError, match="not upward closed"):
            brute_force_invalid(parse("a -> a"), 2, Logic.IEL)

    def test_check_survives_optimised_mode(self):
        code = (
            "from ielprove import oracle\n"
            "from ielprove.formula import parse\n"
            "from ielprove.sequent import Logic\n"
            "plain = oracle._e_relations\n"
            "oracle._e_relations = lambda leq, n, logic: plain(leq, n, logic) + (\n"
            "    [frozenset({(1, 1)})] if (0, 1) in leq else [])\n"
            "try:\n"
            "    oracle.brute_force_invalid(parse('a -> a'), 2, Logic.IEL_MINUS)\n"
            "except AssertionError as exc:\n"
            "    print('rejected' if 'Im2' in str(exc) else exc)\n"
        )
        src = str(Path(ielprove.__file__).resolve().parent.parent)
        run = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                             text=True, env={**os.environ, "PYTHONPATH": src})
        assert run.stdout.strip() == "rejected", run.stderr


def crosscheck(capsys, f, logic, bound):
    """The report of `crosscheck --format json` on one formula."""
    code = main(["crosscheck", "--format", "json", "--logic", logic.value,
                 "--bound", str(bound), render(f)])
    obj = json.loads(capsys.readouterr().out)
    assert code == (0 if obj["consistent"] else 1)
    (report,) = obj["reports"]
    return report


class TestCrosscheck:
    """The crosscheck command compares the prover with the oracle."""

    def test_invalid_agreement(self, capsys):
        r = crosscheck(capsys, parse("K(a | b) -> (K a | K b)"), Logic.IEL, 3)
        assert r["consistent"]
        assert r["status"] == "invalid"
        assert r["oracle"]["countermodel"] is not None

    def test_valid_agreement(self, capsys):
        r = crosscheck(capsys, parse("~~(K a -> a)"), Logic.IEL, 3)
        assert r["consistent"]
        assert r["status"] == "valid"
        assert r["oracle"]["countermodel"] is None

    def test_depth_agreement_without_seriality(self, capsys):
        r = crosscheck(capsys, parse("K a -> ~~a"), Logic.IEL_MINUS, 2)
        assert r["consistent"]
        assert r["prover_model_depth"] == 1
        assert r["oracle"]["min_depth_found"] == 1

    def test_corpus(self, capsys, corpus_records):
        for valid, logic, f in corpus_records:
            r = crosscheck(capsys, f, logic, 3)
            assert r["consistent"], (render(f), r["problems"])
            assert (r["status"] == "valid") == valid


def test_oracle_imports_no_prover():
    """The oracle is the ground truth the prover is checked against, so of
    this package it reads formulas, models and logics only."""
    tree = ast.parse(Path(oracle.__file__).read_text(encoding="utf-8"))
    local, absolute = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            local |= {node.module} if node.module else {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            absolute.add(node.module)
        elif isinstance(node, ast.Import):
            absolute |= {a.name for a in node.names}
    assert local == {"formula", "kripke", "sequent"}
    assert not any(name.split(".")[0] == "ielprove" for name in absolute)


class TestCorpusAtBoundFour:
    def test_no_false_validity(self, corpus_records):
        # Deeper scan for the formulas the prover claims valid.
        for valid, logic, f in corpus_records:
            if not valid:
                continue
            r = brute_force_invalid(f, 4, logic)
            assert r.countermodel is None, render(f)


class TestRandomFormulas:
    def test_deterministic(self):
        assert random_formulas(30, seed=5) == random_formulas(30, seed=5)
        assert random_formulas(30, seed=5) != random_formulas(30, seed=6)

    def test_respects_bounds(self):
        from ielprove.formula import connective_count
        for f in random_formulas(200, seed=1, max_connectives=8):
            assert connective_count(f) <= 8
            assert variables(f) <= {"a", "b", "c"}


def _report_entry(f, logic, bound):
    r = brute_force_invalid(f, bound, logic)
    model = None if r.countermodel is None else hashlib.sha256(
        json.dumps(model_to_json(r.countermodel), sort_keys=True).encode("utf-8")).hexdigest()
    return {"formula": render(f), "logic": logic.value, "bound": bound,
            "countermodel": model, "min_depth_found": r.min_depth_found,
            "models_enumerated": r.models_enumerated}


def golden_text() -> str:
    """Oracle reports for 200 seeded random formulas over a, b, c at bound 3
    (both logics), 40 over a, b at bound 4 and the corpus at bound 4, with
    the countermodel as a digest of its JSON."""
    entries = [_report_entry(f, logic, 3)
               for f in random_formulas(200, seed=4242) for logic in Logic]
    entries += [_report_entry(f, logic, 4)
                for f in random_formulas(40, seed=4343, variables=("a", "b"))
                for logic in Logic]
    for line in CORPUS.read_text(encoding="utf-8").splitlines():
        if line.strip() and not line.startswith("#"):
            _, logic, text = line.split(None, 2)
            entries.append(_report_entry(parse(text), Logic(logic), 4))
    return json.dumps(entries, indent=1, sort_keys=True) + "\n"


class TestGoldenReports:
    def test_reproduces_golden_file(self):
        assert golden_text() == GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    # Re-record the golden file: PYTHONPATH=src python tests/test_oracle.py --record
    if sys.argv[1:] == ["--record"]:
        GOLDEN.write_text(golden_text(), encoding="utf-8")
