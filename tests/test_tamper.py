"""Checking power, pinned: tamper with every node of emitted certificates
and compare what the checkers say against tests/golden/tampered.json.

Each node is mutated three ways, one at a time: its rule name becomes the
next name of the same calculus, its first child's sequent becomes its own
sequent, and its axiom tag becomes the next tag of the same calculus.
"Next" follows sorted name order, wrapping around.  A renamed rule or tag
can still be correct (AndR1 for AndR2 on `a & a`, Id where Irr also fits),
so the golden file pins every mutation's defect lines; a child that repeats
its parent's sequent never shrinks, so that mutation must always be caught.
"""

import json
import sys
from pathlib import Path

from ielprove.formula import parse, render
from ielprove.oracle import random_formulas
from ielprove.prover import Proof, prove_or_refute_formula
from ielprove.refuter import RIEL_AXIOMS, RIEL_RULES, check_refutation
from ielprove.rules import AXIOMS, RULES, check_proof
from ielprove.sequent import Logic

GOLDEN = Path(__file__).resolve().parent / "golden" / "tampered.json"

# Seeded random formulas, plus formulas whose certificates use the rules
# the random ones miss (eGlue, eImpL, eAndR, eOrL) or a renaming that can
# still be correct (eAndR1/eAndR2 on `a & a`).
FORMULAS = [render(f) for f in random_formulas(40, seed=11, max_connectives=10)] + [
    "K a -> a", "K(a | b) -> (K a | K b)", "K a -> ~~a", "K(a & a)", "false & a -> a",
    "K ~~a -> K a", "K(a & b) -> K(b & c)", "K(a -> b) -> (K a -> K b)",
    "K(a & b) -> K(b & a)", "K(a | b) -> K(b | a)", "K(a | b) -> K a",
]


def _next(names, name):
    order = sorted(names)
    return order[(order.index(name) + 1) % len(order)]


def _local_mutants(node, rules, axioms):
    if node.rule is not None:
        yield "rule", node._replace(rule=_next(rules, node.rule))
    if node.children:
        child = node.children[0]._replace(sequent=node.sequent)
        yield "premise", node._replace(children=(child, *node.children[1:]))
    if node.axiom is not None:
        yield "axiom", node._replace(axiom=_next(axioms, node.axiom))


def _mutants(root, rules, axioms):
    """(preorder node index, kind, tampered root) for every node of root."""
    count = 0

    def walk(node):
        nonlocal count
        index = count
        count += 1
        for kind, mutant in _local_mutants(node, rules, axioms):
            yield index, kind, mutant
        for i, child in enumerate(node.children):
            for sub_index, kind, sub in walk(child):
                children = (*node.children[:i], sub, *node.children[i + 1:])
                yield sub_index, kind, node._replace(children=children)

    return walk(root)


def tampered_entries() -> list[dict]:
    entries = []
    for text in FORMULAS:
        for logic in Logic:
            out = prove_or_refute_formula(parse(text), logic)
            if isinstance(out, Proof):
                calculus, tree, rules, axioms, check = (
                    "proof", out.tree, RULES, AXIOMS, check_proof)
            else:
                calculus, tree, rules, axioms, check = (
                    "refutation", out, RIEL_RULES, RIEL_AXIOMS, check_refutation)
            assert check(tree, logic) == [], text
            for index, kind, mutant in _mutants(tree, rules, axioms):
                entries.append({
                    "formula": text, "logic": logic.value, "calculus": calculus,
                    "node": index, "kind": kind,
                    "defects": [str(d) for d in check(mutant, logic)],
                })
    return entries


def golden_text() -> str:
    return json.dumps(tampered_entries(), indent=1, sort_keys=True) + "\n"


def test_every_premise_swap_is_rejected():
    entries = json.loads(GOLDEN.read_text(encoding="utf-8"))
    swaps = [e for e in entries if e["kind"] == "premise"]
    assert swaps and all(e["defects"] for e in swaps)


def test_reproduces_golden_file():
    assert golden_text() == GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    # Re-record the golden file: PYTHONPATH=src python tests/test_tamper.py --record
    if sys.argv[1:] == ["--record"]:
        GOLDEN.write_text(golden_text(), encoding="utf-8")
