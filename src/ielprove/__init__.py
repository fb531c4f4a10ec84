"""ielprove: decision procedures with checkable certificates for the
intuitionistic epistemic logics IEL and IEL-."""

from .formula import (
    BOT,
    And,
    Bottom,
    Formula,
    FormulaSyntaxError,
    Imp,
    K,
    Or,
    Var,
    connective_count,
    parse,
    render,
    subformulas,
)
from .kripke import KripkeModel, check_frame, depth, forces, satisfies
from .oracle import brute_force_invalid, enumerate_models
from .prover import Countermodel, Outcome, Proof, decide, outcome_defect, piel, prove_or_refute
from .refuter import Refutation, check_refutation, extract_model
from .rules import Derivation, check_proof
from .sequent import Logic, Sequent, sequent

__version__ = "0.1.0"

__all__ = [
    "And", "BOT", "Bottom", "Countermodel", "Derivation", "Formula",
    "FormulaSyntaxError", "Imp", "K", "KripkeModel", "Logic", "Or", "Outcome",
    "Proof", "Refutation", "Sequent", "Var", "brute_force_invalid",
    "check_frame", "check_proof", "check_refutation", "connective_count",
    "decide", "depth", "enumerate_models", "extract_model",
    "forces", "outcome_defect", "parse", "piel",
    "prove_or_refute", "render", "satisfies", "sequent", "subformulas",
]
