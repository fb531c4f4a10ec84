"""ielprove: decision procedures with checkable certificates for the
intuitionistic epistemic logics IEL and IEL-.

The names of __all__ and the submodules are loaded on first use (PEP 562),
so importing one submodule, as the command line does, loads no other."""

from importlib import import_module

__version__ = "0.1.0"

# Each public name -> the submodule that defines it.
_SOURCES = {
    **dict.fromkeys(["BOT", "And", "Bottom", "Formula", "FormulaSyntaxError", "Imp", "K",
                     "Or", "Var", "connective_count", "parse", "render", "subformulas"],
                    "formula"),
    **dict.fromkeys(["KripkeModel", "check_frame", "depth", "forces", "satisfies"], "kripke"),
    **dict.fromkeys(["brute_force_invalid", "enumerate_models"], "oracle"),
    **dict.fromkeys(["Countermodel", "Outcome", "Proof", "decide", "outcome_defect", "piel",
                     "prove_or_refute"], "prover"),
    **dict.fromkeys(["Refutation", "check_refutation", "extract_model"], "refuter"),
    **dict.fromkeys(["Derivation", "check_proof"], "rules"),
    **dict.fromkeys(["Logic", "Sequent", "sequent"], "sequent"),
}

__all__ = sorted(_SOURCES)


def __getattr__(name: str) -> object:
    if name in _SOURCES:
        return getattr(import_module(f".{_SOURCES[name]}", __name__), name)
    if name in _SOURCES.values():
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
