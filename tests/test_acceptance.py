"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they print.
"""

import time

import pytest

from ielprove.formula import connective_count, parse, render
from ielprove.kripke import check_frame, depth, forces, satisfies
from ielprove.oracle import brute_force_invalid, random_formulas
from ielprove.prover import Countermodel, Proof, decide, prove_or_refute_formula
from ielprove.refuter import Refutation, check_refutation, extract_model
from ielprove.rules import check_proof, derivation_depth
from ielprove.sequent import Logic, Sequent

SEED = 20240817
IEL, IELM = Logic.IEL, Logic.IEL_MINUS


def _line(num: int, ok: bool, desc: str, failures: list[str]) -> None:
    print(f"\ncriterion {num}: {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {num}: " + "; ".join(failures[:5])


@pytest.fixture(scope="module")
def formulas500():
    return random_formulas(500, seed=SEED, max_connectives=8,
                           variables=("a", "b", "c"))


@pytest.fixture(scope="module")
def corpus_formulas(corpus_records):
    return [(logic, f) for _, logic, f in corpus_records]


def test_criterion_1_corpus_statuses():
    failures = []
    cases = [
        ("a -> K a", True),
        ("K(a -> b) -> (K a -> K b)", True),
        ("K a -> ~~a", True),
        ("~~(K a -> a)", True),
        ("K a -> a", False),
        ("K a", False),
        ("K(a | b) -> (K a | K b)", False),
    ]
    for text, want in cases:
        start = time.monotonic()
        got = isinstance(decide(parse(text), IEL), Proof)
        elapsed = time.monotonic() - start
        if got != want:
            failures.append(f"{text}: expected {'valid' if want else 'invalid'}")
        if elapsed >= 1.0:
            failures.append(f"{text}: took {elapsed:.2f}s")
    _line(1, not failures, "shipped-corpus validity statuses under IEL, each < 1 s", failures)


def test_criterion_2_model_depths():
    failures = []
    out = decide(parse("K a -> a"), IEL)
    m = out.model
    expected = {
        "worlds": frozenset({0, 1}),
        "leq": frozenset({(0, 0), (0, 1), (1, 1)}),
        "e": frozenset({(0, 1), (1, 1)}),
        "val": {0: frozenset(), 1: frozenset({"a"})},
    }
    if depth(m) != 2:
        failures.append(f"K a -> a depth {depth(m)} != 2")
    if (m.worlds, m.leq, m.e_rel, dict(m.valuation)) != (
            expected["worlds"], expected["leq"], expected["e"], expected["val"]):
        failures.append("K a -> a countermodel shape differs")
    m2 = decide(parse("K a"), IEL).model
    if depth(m2) != 1 or (m2.root, m2.root) not in m2.e_rel:
        failures.append("K a needs a depth-1 model with reflexive E")
    m3 = decide(parse("K a -> ~~a"), IELM).model
    if depth(m3) != 1 or m3.e_rel != frozenset():
        failures.append("K a -> ~~a under IEL- needs a single world with empty E")
    _line(2, not failures, "exact countermodel depths and shapes", failures)


def test_criterion_3_separation():
    failures = []
    f = parse("K a -> ~~a")
    if not isinstance(decide(f, IELM), Countermodel):
        failures.append("K a -> ~~a should be invalid under IEL-")
    if not isinstance(decide(f, IEL), Proof):
        failures.append("K a -> ~~a should be valid under IEL")
    if not isinstance(decide(parse("K(a -> b) -> (K a -> K b)"), IELM), Proof):
        failures.append("distribution should be valid under IEL-")
    _line(3, not failures, "IEL- separation is exact", failures)


def test_criterion_4_certificate_structure(formulas500, corpus_formulas):
    failures = []
    start = time.monotonic()
    jobs = list(corpus_formulas) + [(logic, f) for f in formulas500 for logic in Logic]
    for logic, f in jobs:
        bound = connective_count(f)
        out = decide(f, logic)
        if isinstance(out, Proof):
            if derivation_depth(out.tree) > bound:
                failures.append(f"proof depth exceeds bound: {render(f)}")
            if check_proof(out.tree, logic):
                failures.append(f"proof rejected: {render(f)}")
        ref = prove_or_refute_formula(f, logic)
        if isinstance(ref, Refutation):
            if derivation_depth(ref) > bound:
                failures.append(f"refutation depth exceeds bound: {render(f)}")
            if check_refutation(ref, logic):
                failures.append(f"refutation rejected: {render(f)}")
    elapsed = time.monotonic() - start
    if elapsed >= 60:
        failures.append(f"runtime {elapsed:.1f}s over budget")
    _line(4, not failures,
          f"depth bound, subformula property and checkers over corpus + 500 "
          f"random formulas x 2 logics ({elapsed:.1f}s)", failures)


def test_criterion_5_oracle_agreement(formulas500, corpus_formulas):
    failures = []
    start = time.monotonic()
    jobs = list(corpus_formulas) + [(logic, f) for f in formulas500 for logic in Logic]
    for logic, f in jobs:
        out = decide(f, logic)
        report = brute_force_invalid(f, 4, logic)
        if isinstance(out, Proof):
            if report.countermodel is not None:
                failures.append(f"false validity: {render(f)} ({logic.value})")
        else:
            m = out.model
            if check_frame(m, logic):
                failures.append(f"bad frame: {render(f)} ({logic.value})")
            if not satisfies(m, m.root, Sequent(delta=frozenset({f}))):
                failures.append(f"root fails sequent: {render(f)} ({logic.value})")
            if (report.min_depth_found is not None
                    and report.min_depth_found < depth(m)):
                failures.append(f"oracle beat prover depth: {render(f)} ({logic.value})")
    elapsed = time.monotonic() - start
    if elapsed >= 300:
        failures.append(f"runtime {elapsed:.1f}s over budget")
    _line(5, not failures,
          f"oracle agreement at bound 4 over corpus + 500 random formulas "
          f"x 2 logics ({elapsed:.1f}s)", failures)


def test_criterion_6_coherence(formulas500, corpus_formulas):
    failures = []
    start = time.monotonic()
    jobs = list(corpus_formulas) + [(logic, f)
                                    for f in formulas500[:200] for logic in Logic]
    for logic, f in jobs:
        proved = isinstance(decide(f, logic), Proof)
        out = prove_or_refute_formula(f, logic)
        if isinstance(out, Proof) != proved:
            failures.append(f"coherence broken: {render(f)} ({logic.value})")
        if isinstance(out, Refutation):
            m = extract_model(out, logic)
            if forces(m, m.root, f):
                failures.append(f"extracted model forces formula: {render(f)}")
    elapsed = time.monotonic() - start
    if elapsed >= 60:
        failures.append(f"runtime {elapsed:.1f}s over budget")
    _line(6, not failures,
          f"refutational/validity search coherence and extraction over corpus "
          f"+ 200 random formulas x 2 logics ({elapsed:.1f}s)", failures)


def test_criterion_7_monotonicity(formulas500, corpus_formulas):
    failures = []
    pool = [f for _, f in corpus_formulas] + formulas500[:200]
    for f in pool:
        if isinstance(decide(f, IELM), Proof) and not isinstance(decide(f, IEL), Proof):
            failures.append(f"IEL- valid but IEL invalid: {render(f)}")
    _line(7, not failures, "validity is monotone from IEL- to IEL", failures)


def test_criterion_8_intuitionistic_fragment():
    failures = []
    cases = [("p -> p", True), ("~~(p | ~p)", True),
             ("p | ~p", False), ("((p -> q) -> p) -> p", False)]
    for text, want in cases:
        f = parse(text)
        for logic in Logic:
            got = isinstance(decide(f, logic), Proof)
            if got != want:
                failures.append(f"{text} under {logic.value}")
            report = brute_force_invalid(f, 3, logic)
            if (report.countermodel is None) != want:
                failures.append(f"oracle disagrees on {text} under {logic.value}")
    _line(8, not failures,
          "K-free formulas decide identically in both logics and match the oracle",
          failures)
