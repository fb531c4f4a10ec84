"""Command-line front end.

Subcommands: decide, prove, refute, check-proof, check-model,
check-refutation, crosscheck and batch.  Exit codes: 0 for valid (or a
clean check/crosscheck/batch), 1 for invalid (or a failed check), 2 for
errors.  Certificates are re-validated in-process before being printed.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache
from typing import Optional

from .formula import Formula, FormulaSyntaxError, parse, render
from .kripke import (
    KripkeModel,
    check_frame,
    model_from_json,
    model_text,
    model_to_dot,
    model_to_json,
    satisfies,
)
from .oracle import crosscheck, oracle_report_to_json, random_formulas
from .prover import Proof, decide, prove_or_refute_formula
from .refuter import (
    check_refutation,
    extract_model,
    refutation_from_json,
    refutation_to_json,
)
from .rules import check_proof, derivation_text, proof_from_json, proof_to_json
from .sequent import Logic, Sequent


class CliError(Exception):
    pass


def _logic(args: argparse.Namespace) -> Logic:
    return Logic(args.logic)


def _read_formula(args: argparse.Namespace) -> Formula:
    if args.file is not None:
        try:
            with open(args.file, encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise CliError(f"cannot read {args.file}: {exc}") from exc
    elif args.formula is not None:
        text = args.formula
    else:
        raise CliError("no formula given (positional argument or --file)")
    try:
        return parse(text)
    except FormulaSyntaxError as exc:
        raise CliError(f"syntax error: {exc}") from exc


def _read_json(path: str) -> object:
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CliError(f"{path} is not valid JSON: {exc}") from exc


def _emit_json(obj: dict) -> None:
    print(json.dumps(obj, sort_keys=True))


def _verified_countermodel(f: Formula, model: KripkeModel, logic: Logic) -> None:
    violations = check_frame(model, logic)
    if violations:
        raise CliError(f"internal checker defect: {violations[0]}")
    if not satisfies(model, model.root, Sequent(delta=frozenset({f}))):
        raise CliError("internal checker defect: countermodel does not refute the formula")


def _verified_proof(tree, logic: Logic) -> None:
    defects = check_proof(tree, logic)
    if defects:
        raise CliError(f"internal checker defect: {defects[0]}")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _cmd_decide(args: argparse.Namespace, print_model: bool = True) -> int:
    f = _read_formula(args)
    logic = _logic(args)
    outcome = decide(f, logic)
    if isinstance(outcome, Proof):
        _verified_proof(outcome.tree, logic)
        if args.format == "json":
            _emit_json({"status": "valid", "proof": proof_to_json(outcome.tree)})
        elif args.format == "dot":
            raise CliError("dot output needs a model certificate; the formula is valid")
        else:
            print(f"valid ({logic.value}): {render(f)}")
            print(derivation_text(outcome.tree))
        return 0
    model = outcome.model
    _verified_countermodel(f, model, logic)
    if not print_model:
        if args.format == "json":
            _emit_json({"status": "invalid"})
        else:
            print(f"invalid ({logic.value}): {render(f)}")
        return 1
    if args.format == "json":
        _emit_json({"status": "invalid", "model": model_to_json(model)})
    elif args.format == "dot":
        print(model_to_dot(model))
    else:
        print(f"invalid ({logic.value}): {render(f)}")
        print(model_text(model))
    return 1


def _cmd_prove(args: argparse.Namespace) -> int:
    return _cmd_decide(args, print_model=args.model)


def _cmd_refute(args: argparse.Namespace) -> int:
    f = _read_formula(args)
    logic = _logic(args)
    out = prove_or_refute_formula(f, logic)
    if isinstance(out, Proof):
        _verified_proof(out.tree, logic)
        if args.format == "json":
            _emit_json({"status": "valid", "proof": proof_to_json(out.tree)})
        else:
            print(f"valid ({logic.value}): {render(f)} (no refutation exists)")
            print(derivation_text(out.tree))
        return 0
    try:
        model = extract_model(out, logic)  # checks the refutation first
    except ValueError as exc:
        raise CliError(f"internal checker defect: {exc}") from exc
    _verified_countermodel(f, model, logic)
    if args.format == "json":
        _emit_json({
            "status": "invalid",
            "refutation": refutation_to_json(out),
            "model": model_to_json(model),
        })
    elif args.format == "dot":
        print(model_to_dot(model))
    else:
        print(f"invalid ({logic.value}): {render(f)}")
        print(derivation_text(out))
        print(model_text(model))
    return 1


def _report_defects(defects: list, args: argparse.Namespace) -> int:
    if args.format == "json":
        _emit_json({"ok": not defects, "defects": [str(d) for d in defects]})
    else:
        if defects:
            for d in defects:
                print(d)
        else:
            print("ok")
    return 0 if not defects else 1


def _cmd_check_proof(args: argparse.Namespace) -> int:
    try:
        tree = proof_from_json(_read_json(args.path))
    except ValueError as exc:
        raise CliError(f"schema error: {exc}") from exc
    return _report_defects(check_proof(tree, _logic(args)), args)


def _cmd_check_refutation(args: argparse.Namespace) -> int:
    try:
        tree = refutation_from_json(_read_json(args.path))
    except ValueError as exc:
        raise CliError(f"schema error: {exc}") from exc
    return _report_defects(check_refutation(tree, _logic(args)), args)


def _cmd_check_model(args: argparse.Namespace) -> int:
    try:
        model = model_from_json(_read_json(args.path))
    except ValueError as exc:
        raise CliError(f"schema error: {exc}") from exc
    violations = check_frame(model, _logic(args))
    if args.format == "dot" and not violations:
        print(model_to_dot(model))
        return 0
    return _report_defects(violations, args)


def _crosscheck_one(f: Formula, logic: Logic, bound: int,
                    as_json: bool) -> tuple[bool, Optional[dict]]:
    report = crosscheck(f, logic, bound)
    status = "valid" if report.prover_valid else "invalid"
    if as_json:
        obj = {
            "formula": render(f),
            "logic": logic.value,
            "status": status,
            "consistent": report.consistent,
            "problems": report.problems,
            "prover_model_depth": report.prover_model_depth,
            "oracle": oracle_report_to_json(report.oracle),
        }
        return report.consistent, obj
    verdict = "consistent" if report.consistent else "CONTRADICTION"
    print(f"{verdict}: {status} ({logic.value}) {render(f)}")
    print(f"  oracle: {report.oracle.models_enumerated} models <= {bound} worlds, "
          f"min countermodel depth {report.oracle.min_depth_found}")
    if report.prover_model_depth is not None:
        print(f"  prover countermodel depth {report.prover_model_depth}")
    for problem in report.problems:
        print(f"  problem: {problem}")
    return report.consistent, None


def _cmd_crosscheck(args: argparse.Namespace) -> int:
    logic = _logic(args)
    if args.random is not None:
        formulas = random_formulas(args.random, seed=args.seed)
    else:
        formulas = [_read_formula(args)]
    all_ok = True
    json_reports = []
    for f in formulas:
        ok, obj = _crosscheck_one(f, logic, args.bound, args.format == "json")
        all_ok = all_ok and ok
        if obj is not None:
            json_reports.append(obj)
    if args.format == "json":
        _emit_json({"consistent": all_ok, "reports": json_reports})
    return 0 if all_ok else 1


def _cmd_batch(args: argparse.Namespace) -> int:
    try:
        with open(args.corpus, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    except OSError as exc:
        raise CliError(f"cannot read {args.corpus}: {exc}") from exc
    total = 0
    failed = 0
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(None, 2)
        if len(parts) != 3 or parts[0] not in ("valid", "invalid"):
            raise CliError(f"{args.corpus}:{lineno}: expected '<valid|invalid> <iel|iel-> <formula>'")
        status, logic_name, text = parts
        try:
            logic = Logic(logic_name)
        except ValueError:
            raise CliError(f"{args.corpus}:{lineno}: unknown logic {logic_name!r}") from None
        try:
            f = parse(text)
        except FormulaSyntaxError as exc:
            raise CliError(f"{args.corpus}:{lineno}: {exc}") from exc
        total += 1
        outcome = decide(f, logic)
        if isinstance(outcome, Proof):
            got = "valid"
            certificate_ok = not check_proof(outcome.tree, logic)
        else:
            got = "invalid"
            m = outcome.model
            certificate_ok = (not check_frame(m, logic)
                              and satisfies(m, m.root, Sequent(delta=frozenset({f}))))
        ok = got == status and certificate_ok
        failed += 0 if ok else 1
        note = "" if certificate_ok else " (certificate rejected)"
        print(f"{'ok' if ok else 'FAIL'} line {lineno}: expected {status}, "
              f"got {got} ({logic.value}) {render(f)}{note}")
    print(f"{total - failed}/{total} records passed")
    return 0 if failed == 0 else 1


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _int_at_least(low: int):
    """An argparse type: an integer no smaller than low."""
    def convert(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return convert


def _add_common(sub: argparse.ArgumentParser, with_formula: bool = True) -> None:
    sub.add_argument("--logic", choices=["iel", "iel-"], default="iel",
                     help="logic to decide in (default: iel)")
    sub.add_argument("--format", choices=["text", "json", "dot"], default="text",
                     help="output format (dot is valid for model output only)")
    if with_formula:
        sub.add_argument("formula", nargs="?", help="formula in ASCII syntax")
        sub.add_argument("--file", help="read the formula from a file instead")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ielprove",
        description="Decision procedures with checkable certificates for IEL and IEL-.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("decide", help="prove the formula or print a countermodel")
    _add_common(p)
    p.set_defaults(func=_cmd_decide)

    p = subs.add_parser("prove", help="like decide, but print no model unless --model")
    _add_common(p)
    p.add_argument("--model", action="store_true", help="print the countermodel on failure")
    p.set_defaults(func=_cmd_prove)

    p = subs.add_parser("refute", help="run the refutational search; print refutation and model")
    _add_common(p)
    p.set_defaults(func=_cmd_refute)

    p = subs.add_parser("check-proof", help="validate a proof JSON file")
    _add_common(p, with_formula=False)
    p.add_argument("path", help="proof JSON file")
    p.set_defaults(func=_cmd_check_proof)

    p = subs.add_parser("check-model", help="validate a model JSON file")
    _add_common(p, with_formula=False)
    p.add_argument("path", help="model JSON file")
    p.set_defaults(func=_cmd_check_model)

    p = subs.add_parser("check-refutation", help="validate a refutation JSON file")
    _add_common(p, with_formula=False)
    p.add_argument("path", help="refutation JSON file")
    p.set_defaults(func=_cmd_check_refutation)

    p = subs.add_parser("crosscheck", help="compare the prover against the brute-force oracle")
    _add_common(p)
    p.add_argument("--bound", type=_int_at_least(1), default=3,
                   help="world bound for the oracle (default 3)")
    p.add_argument("--random", type=_int_at_least(0), metavar="N",
                   help="crosscheck N random formulas instead of a given one")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for --random (default 0; runs are deterministic)")
    p.set_defaults(func=_cmd_crosscheck)

    p = subs.add_parser("batch", help="run a corpus file and print a line per record")
    p.add_argument("--corpus", required=True, help="file of '<status> <logic> <formula>' lines")
    p.set_defaults(func=_cmd_batch)

    return parser


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The parser main uses, built once per process: building it costs more
    than deciding a small formula, and parsing leaves it unchanged."""
    return build_parser()


def main(argv: Optional[list[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # exit 1 means "invalid", never "crashed"
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
