"""Brute-force semantic oracle at desk scale.

Enumerates every labelled rooted Kripke model up to a world bound (orders
with a designated root, E-relations filtered by the frame conditions,
persistent valuations) to cross-validate prover outcomes and model-depth
minimality.  Also hosts the seeded random-formula generator used by the
test corpus and the crosscheck command.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterator, Optional

from .formula import BOT, And, Formula, Imp, K, Or, Var, subformulas
from .kripke import KripkeModel, check_frame, depth, forces
from .prover import Proof, decide, outcome_defect
from .sequent import Logic


@dataclass
class OracleReport:
    formula: Formula
    logic: Logic
    bound_worlds: int
    countermodel: Optional[KripkeModel]
    min_depth_found: Optional[int]
    models_enumerated: int


def oracle_report_to_json(r: OracleReport) -> dict:
    from .formula import render
    from .kripke import model_to_json
    return {
        "formula": render(r.formula),
        "logic": r.logic.value,
        "bound_worlds": r.bound_worlds,
        "countermodel": None if r.countermodel is None else model_to_json(r.countermodel),
        "min_depth_found": r.min_depth_found,
        "models_enumerated": r.models_enumerated,
    }


def variables(f: Formula) -> frozenset[str]:
    return frozenset(g.name for g in subformulas(f) if isinstance(g, Var))


# ---------------------------------------------------------------------------
# Model enumeration
# ---------------------------------------------------------------------------

def _is_partial_order(rel: frozenset[tuple[int, int]], n: int) -> bool:
    for a in range(n):
        for b in range(n):
            if a != b and (a, b) in rel and (b, a) in rel:
                return False
            for c in range(n):
                if (a, b) in rel and (b, c) in rel and (a, c) not in rel:
                    return False
    return True


@lru_cache(maxsize=None)
def _rooted_orders(n: int) -> tuple[frozenset[tuple[int, int]], ...]:
    """Labelled partial orders on 0..n-1 in which 0 is below every world."""
    optional = [(i, j) for i in range(1, n) for j in range(1, n) if i != j]
    base = frozenset({(i, i) for i in range(n)} | {(0, j) for j in range(1, n)})
    out = []
    for bits in range(1 << len(optional)):
        rel = base | {optional[k] for k in range(len(optional)) if bits >> k & 1}
        if _is_partial_order(frozenset(rel), n):
            out.append(frozenset(rel))
    return tuple(out)


def _e_relations(leq: frozenset[tuple[int, int]], n: int,
                 logic: Logic) -> list[frozenset[tuple[int, int]]]:
    """Subrelations of the order closed downwards (Im2), serial for IEL."""
    pairs = sorted(leq)
    out = []
    for bits in range(1 << len(pairs)):
        e = frozenset(pairs[k] for k in range(len(pairs)) if bits >> k & 1)
        if any((a, b) in leq and (b, c) in e and (a, c) not in e
               for a, b in pairs for c in range(n)):
            continue
        if logic is Logic.IEL and any(
                not any((w, v) in e for v in range(n)) for w in range(n)):
            continue
        out.append(e)
    return out


def _upsets(leq: frozenset[tuple[int, int]], n: int) -> list[frozenset[int]]:
    out = []
    for bits in range(1 << n):
        ws = frozenset(w for w in range(n) if bits >> w & 1)
        if all((a, b) not in leq or b in ws for a in ws for b in range(n)):
            out.append(ws)
    return out


@lru_cache(maxsize=None)
def _model_pool(names: tuple[str, ...], max_worlds: int,
                logic: Logic) -> tuple[KripkeModel, ...]:
    models = []
    for n in range(1, max_worlds + 1):
        for leq in _rooted_orders(n):
            ups = _upsets(leq, n)
            e_rels = _e_relations(leq, n, logic)
            for e in e_rels:
                for val_pick in itertools.product(ups, repeat=len(names)):
                    valuation = {
                        w: frozenset(name for name, ws in zip(names, val_pick) if w in ws)
                        for w in range(n)
                    }
                    m = KripkeModel(frozenset(range(n)), 0, leq, e, valuation)
                    assert not check_frame(m, logic)
                    models.append(m)
    return tuple(models)


def enumerate_models(vars: frozenset[str] | set[str], max_worlds: int,
                     logic: Logic) -> Iterator[KripkeModel]:
    """Every rooted model with at most max_worlds worlds over the given
    variables, in a fixed order.  Labelled enumeration; no isomorphism
    reduction."""
    if max_worlds < 1:
        raise ValueError("max_worlds must be at least 1")
    yield from _model_pool(tuple(sorted(vars)), max_worlds, logic)


# ---------------------------------------------------------------------------
# Brute-force refutation search
# ---------------------------------------------------------------------------

def brute_force_invalid(f: Formula, max_worlds: int, logic: Logic,
                        full_scan: bool = True) -> OracleReport:
    """Scan all models up to the bound for one whose root does not force f.

    With full_scan, min_depth_found is the minimum depth over every
    countermodel in the bound (the scan stops early only once depth one is
    reached, which no model can undercut); without it the scan stops at the
    first countermodel and leaves min_depth_found unset.
    """
    first: Optional[KripkeModel] = None
    min_depth: Optional[int] = None
    count = 0
    for m in enumerate_models(variables(f), max_worlds, logic):
        count += 1
        if not forces(m, m.root, f):
            if first is None:
                first = m
            if not full_scan:
                break
            d = depth(m)
            if min_depth is None or d < min_depth:
                min_depth = d
            if min_depth == 1:
                break
    return OracleReport(f, logic, max_worlds, first,
                        min_depth if full_scan else None, count)


@dataclass
class CrosscheckReport:
    formula: Formula
    logic: Logic
    bound_worlds: int
    prover_valid: bool
    prover_model_depth: Optional[int]
    oracle: OracleReport
    problems: list[str] = field(default_factory=list)

    @property
    def consistent(self) -> bool:
        return not self.problems


def crosscheck(f: Formula, logic: Logic, max_worlds: int = 3) -> CrosscheckReport:
    """Run the decision procedure and the oracle against each other.

    A contradiction is flagged when outcome_defect rejects the prover's
    certificate, when the prover claims validity but the oracle holds a
    countermodel, or when the oracle found a strictly shallower
    countermodel than the prover's.
    """
    outcome = decide(f, logic)
    problems: list[str] = []
    defect = outcome_defect(f, outcome, logic)
    if defect is not None:
        problems.append(f"prover certificate rejected: {defect}")
    model_depth = None if isinstance(outcome, Proof) else depth(outcome.model)
    report = brute_force_invalid(f, max_worlds, logic)
    if isinstance(outcome, Proof) and report.countermodel is not None:
        problems.append("prover says valid but the oracle found a countermodel")
    if (model_depth is not None and report.min_depth_found is not None
            and report.min_depth_found < model_depth):
        problems.append(
            f"oracle found depth {report.min_depth_found} below prover depth {model_depth}")
    return CrosscheckReport(f, logic, max_worlds, isinstance(outcome, Proof),
                            model_depth, report, problems)


# ---------------------------------------------------------------------------
# Seeded random formulas
# ---------------------------------------------------------------------------

def random_formula(rng: random.Random, max_connectives: int,
                   variables: tuple[str, ...] = ("a", "b", "c")) -> Formula:
    budget = rng.randint(0, max_connectives)

    def go(b: int) -> Formula:
        if b == 0:
            return BOT if rng.random() < 0.1 else Var(rng.choice(variables))
        shape = rng.choice(("and", "or", "imp", "imp", "k", "k"))
        if shape == "k":
            return K(go(b - 1))
        left = rng.randint(0, b - 1)
        sides = (go(left), go(b - 1 - left))
        return {"and": And, "or": Or, "imp": Imp}[shape](*sides)

    return go(budget)


def random_formulas(count: int, seed: int, max_connectives: int = 8,
                    variables: tuple[str, ...] = ("a", "b", "c")) -> list[Formula]:
    rng = random.Random(seed)
    return [random_formula(rng, max_connectives, variables) for _ in range(count)]
