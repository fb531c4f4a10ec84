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
from .kripke import check_frame, depth, model_from_json, model_text, model_to_dot, model_to_json
from .prover import Countermodel, Outcome, Proof, decide, outcome_defect, prove_or_refute_formula
from .refuter import (
    check_refutation,
    extract_model,
    refutation_from_json,
    refutation_json,
    refutation_model,
)
from .rules import check_proof, derivation_json, derivation_text, proof_from_json
from .sequent import Logic


class CliError(Exception):
    pass


def _logic(args: argparse.Namespace) -> Logic:
    return Logic(args.logic)


def _read_formula(args: argparse.Namespace) -> Formula:
    if args.file is not None and args.formula is not None:
        raise CliError("give a formula or --file, not both")
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


def _emit_json(obj: dict, **encoded: str) -> None:
    """Print obj as json.dumps(obj, sort_keys=True) does, with the fields of
    encoded added in key order; their values are JSON texts already."""
    fields = {key: json.dumps(value, sort_keys=True) for key, value in obj.items()}
    fields.update(encoded)
    print("{" + ", ".join(f"{json.dumps(key)}: {fields[key]}" for key in sorted(fields)) + "}")


def _verify(f: Formula, outcome: Outcome, logic: Logic) -> None:
    defect = outcome_defect(f, outcome, logic)
    if defect is not None:
        raise CliError(f"internal checker defect: {defect}")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _cmd_decide(args: argparse.Namespace) -> int:
    """decide, prove and refute: one search, then the proof, or the model of
    the refutation.  Only refute checks the refutation itself and prints
    it; prove prints no model."""
    f = _read_formula(args)
    logic = _logic(args)
    refute, prove = args.command == "refute", args.command == "prove"
    out = prove_or_refute_formula(f, logic)
    if isinstance(out, Proof):
        _verify(f, out, logic)
        if args.format == "json":
            _emit_json({"status": "valid"}, proof=derivation_json(out.tree))
        elif args.format == "dot":
            raise CliError("dot output needs a model certificate; the formula is valid")
        else:
            note = " (no refutation exists)" if refute else ""
            print(f"valid ({logic.value}): {render(f)}{note}")
            print(derivation_text(out.tree))
        return 0
    if refute:
        try:
            model = extract_model(out, logic)  # checks the refutation first
        except ValueError as exc:
            raise CliError(f"internal checker defect: {exc}") from exc
    else:
        model = refutation_model(out, logic)
    _verify(f, Countermodel(model), logic)
    if args.format == "json":
        shown = {} if prove else {"model": model_to_json(model)}
        encoded = {"refutation": refutation_json(out)} if refute else {}
        _emit_json({"status": "invalid", **shown}, **encoded)
    elif args.format == "dot":  # decide and refute only
        print(model_to_dot(model))
    else:
        print(f"invalid ({logic.value}): {render(f)}")
        if refute:
            print(derivation_text(out))
        if not prove:
            print(model_text(model))
    return 1


# Each check command's certificate kind -> (JSON decoder, checker).
_CHECKS = {
    "proof": (proof_from_json, check_proof),
    "model": (model_from_json, check_frame),
    "refutation": (refutation_from_json, check_refutation),
}


def _cmd_check(args: argparse.Namespace) -> int:
    kind = args.command.removeprefix("check-")
    decode, check = _CHECKS[kind]
    try:
        certificate = decode(_read_json(args.path))
    except ValueError as exc:
        raise CliError(f"schema error: {exc}") from exc
    defects = check(certificate, _logic(args))
    if args.format == "json":
        _emit_json({"ok": not defects, "defects": [str(d) for d in defects]})
    elif args.format == "dot" and not defects:  # check-model only
        print(model_to_dot(certificate))
    else:
        print("\n".join(map(str, defects)) if defects else "ok")
    return 0 if not defects else 1


def _crosscheck_report(f: Formula, logic: Logic, bound: int) -> dict:
    """The prover against the oracle on f, as crosscheck prints it.

    A problem is flagged when outcome_defect rejects the prover's
    certificate, when the prover claims validity but the oracle holds a
    countermodel, or when the oracle found a strictly shallower
    countermodel than the prover's."""
    from .oracle import brute_force_invalid, oracle_report_to_json  # crosscheck alone needs it
    outcome = decide(f, logic)
    problems = []
    defect = outcome_defect(f, outcome, logic)
    if defect is not None:
        problems.append(f"prover certificate rejected: {defect}")
    valid = isinstance(outcome, Proof)
    model_depth = None if valid else depth(outcome.model)
    oracle = brute_force_invalid(f, bound, logic)
    if valid and oracle.countermodel is not None:
        problems.append("prover says valid but the oracle found a countermodel")
    if (model_depth is not None and oracle.min_depth_found is not None
            and oracle.min_depth_found < model_depth):
        problems.append(
            f"oracle found depth {oracle.min_depth_found} below prover depth {model_depth}")
    return {
        "formula": render(f),
        "logic": logic.value,
        "status": "valid" if valid else "invalid",
        "consistent": not problems,
        "problems": problems,
        "prover_model_depth": model_depth,
        "oracle": oracle_report_to_json(oracle),
    }


def _cmd_crosscheck(args: argparse.Namespace) -> int:
    """Crosscheck a formula, one read from --file, or --random N formulas
    drawn with --seed; exactly one source."""
    logic = _logic(args)
    if args.random is None:
        if args.seed is not None:
            raise CliError("--seed needs --random")
        formulas = [_read_formula(args)]
    elif args.formula is not None or args.file is not None:
        raise CliError("give a formula, --file or --random, not more than one")
    else:
        from .oracle import random_formulas
        formulas = random_formulas(args.random, seed=args.seed or 0)
    reports = []
    for f in formulas:
        report = _crosscheck_report(f, logic, args.bound)
        reports.append(report)
        if args.format == "json":
            continue
        oracle = report["oracle"]
        verdict = "consistent" if report["consistent"] else "CONTRADICTION"
        print(f"{verdict}: {report['status']} ({report['logic']}) {report['formula']}")
        print(f"  oracle: {oracle['models_enumerated']} models <= {oracle['bound_worlds']} "
              f"worlds, min countermodel depth {oracle['min_depth_found']}")
        if report["prover_model_depth"] is not None:
            print(f"  prover countermodel depth {report['prover_model_depth']}")
        for problem in report["problems"]:
            print(f"  problem: {problem}")
    all_ok = all(report["consistent"] for report in reports)
    if args.format == "json":
        _emit_json({"consistent": all_ok, "reports": reports})
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
        got = "valid" if isinstance(outcome, Proof) else "invalid"
        certificate_ok = outcome_defect(f, outcome, logic) is None
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


def _add_common(sub: argparse.ArgumentParser, with_formula: bool = True,
                dot: bool = True) -> None:
    """--logic and --format, and the formula sources; dot only where the
    command can print a model."""
    sub.add_argument("--logic", choices=["iel", "iel-"], default="iel",
                     help="logic to decide in (default: iel)")
    formats = ("text", "json", "dot") if dot else ("text", "json")
    sub.add_argument("--format", choices=formats, default="text",
                     help="output format" + (" (dot draws the model)" if dot else ""))
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

    p = subs.add_parser("prove", help="like decide, but print the status and proof only")
    _add_common(p, dot=False)
    p.set_defaults(func=_cmd_decide)

    p = subs.add_parser("refute", help="run the refutational search; print refutation and model")
    _add_common(p)
    p.set_defaults(func=_cmd_decide)

    for kind in _CHECKS:
        p = subs.add_parser(f"check-{kind}", help=f"validate a {kind} JSON file")
        _add_common(p, with_formula=False, dot=kind == "model")
        p.add_argument("path", help=f"{kind} JSON file")
        p.set_defaults(func=_cmd_check)

    p = subs.add_parser("crosscheck", help="compare the prover against the brute-force oracle")
    _add_common(p, dot=False)
    p.add_argument("--bound", type=_int_at_least(1), default=3,
                   help="world bound for the oracle (default 3)")
    p.add_argument("--random", type=_int_at_least(0), metavar="N",
                   help="crosscheck N random formulas instead of a given one")
    p.add_argument("--seed", type=int,
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
    except RecursionError:  # the proof search and the JSON decoder recurse
        print("error: input is nested too deeply", file=sys.stderr)
        return 2
    except Exception as exc:  # exit 1 means "invalid", never "crashed"
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
