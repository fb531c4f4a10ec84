"""Command-line front end.

Subcommands: decide, prove, refute, check-proof, check-model,
check-refutation, crosscheck and batch.  Exit codes: 0 for valid (or a
clean check/crosscheck/batch), 1 for invalid (or a failed check), 2 for
errors.  Certificates are re-validated in-process before being printed.

The grammar is written once, in build_parser.  main reads an argv of the
plain form (a command name, whole option strings each with its value, and
positionals) from the command parsers' actions itself, and leaves argparse
the help, the usage errors and every other form (see _parse_argv).
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache
from typing import NamedTuple, Optional

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
from .rules import check_proof, derivation_json, derivation_size, derivation_text, proof_from_json
from .sequent import Logic


# The most tree nodes (rules.derivation_size) of a derivation that decide, prove
# and refute print or build a model from: "a -> ... -> a" with n arrows has 2^(n+1) - 1.
MAX_TREE_NODES = 100_000


class CliError(Exception):
    pass


def _logic(args: argparse.Namespace) -> Logic:
    return Logic(args.logic)


def _read_text(path: str) -> str:
    """The file's text, without a leading UTF-8 byte-order mark; a file
    that cannot be opened or is not UTF-8 is an error."""
    try:
        with open(path, encoding="utf-8-sig") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc


def _read_formula(args: argparse.Namespace) -> Formula:
    if args.file is not None and args.formula is not None:
        raise CliError("give a formula or --file, not both")
    if args.file is not None:
        text = _read_text(args.file)
    elif args.formula is not None:
        text = args.formula
    else:
        raise CliError("no formula given (positional argument or --file)")
    try:
        return parse(text)
    except FormulaSyntaxError as exc:
        raise CliError(f"syntax error: {exc}") from exc


def _read_json(path: str) -> object:
    text = _read_text(path)
    try:
        return json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer past int's digit limit
        raise CliError(f"{path} is not valid JSON: {exc}") from exc


# json.dumps(value, sort_keys=True), with one encoder for the process: dumps
# builds a new encoder on every call that passes any option.
_json_text = json.JSONEncoder(sort_keys=True).encode


def _emit_json(obj: dict, **encoded: str) -> None:
    """Print obj as json.dumps(obj, sort_keys=True) does, with the fields of
    encoded added in key order; their values are JSON texts already, and
    one join copies them once."""
    if not encoded:
        print(_json_text(obj))
        return
    fields = {key: _json_text(value) for key, value in obj.items()}
    fields.update(encoded)
    pieces = []
    for key in sorted(fields):
        pieces += (", " if pieces else "{", _json_text(key), ": ", fields[key])
    pieces.append("}")
    print("".join(pieces))


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
    proved = isinstance(out, Proof)
    nodes = derivation_size(out.tree if proved else out)
    if nodes > MAX_TREE_NODES:
        raise CliError(f"the {'proof' if proved else 'refutation'} has {nodes} nodes as a tree, "
                       f"more than the {MAX_TREE_NODES} this command prints")
    if proved:
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
    lines = _read_text(args.corpus).splitlines()
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

def _int_in_range(low: int, high: Optional[int] = None):
    """An argparse type: an integer no smaller than low and, if high is
    given, no larger than high."""
    def convert(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be at most {high}, got {value}")
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
    # 6 is the oracle's own limit: 7 worlds would mean 2^30 candidate orders.
    p.add_argument("--bound", type=_int_in_range(1, 6), default=3,
                   help="world bound for the oracle, at most 6 (default 3)")
    p.add_argument("--random", type=_int_in_range(0), metavar="N",
                   help="crosscheck N random formulas instead of a given one")
    p.add_argument("--seed", type=int,
                   help="seed for --random (default 0; runs are deterministic)")
    p.set_defaults(func=_cmd_crosscheck)

    p = subs.add_parser("batch", help="run a corpus file and print a line per record")
    p.add_argument("--corpus", required=True, help="file of '<status> <logic> <formula>' lines")
    p.set_defaults(func=_cmd_batch)

    return parser


class _Scan(NamedTuple):
    """What _scan reads of one command's parser, read once per process."""
    fields: dict          # the Namespace parse_args starts from: command, defaults, func
    options: dict         # option string -> its store action
    positionals: tuple    # the positional actions, in order
    required: frozenset   # the actions argv must give


def _scan_of(dest: str, name: str, command: argparse.ArgumentParser) -> _Scan:
    """The _Scan of the parser of the command called name; dest is the
    top-level parser's field for the command name."""
    fields = {}  # as parse_args fills them: each action's default, then set_defaults
    options, positionals = {}, []
    for action in command._actions:
        if action.dest is not argparse.SUPPRESS and action.default is not argparse.SUPPRESS:
            fields.setdefault(action.dest, action.default)
        if isinstance(action, argparse._StoreAction):
            if action.option_strings:
                options.update(dict.fromkeys(action.option_strings, action))
            else:
                positionals.append(action)
    for key, value in command._defaults.items():
        fields.setdefault(key, value)
    required = frozenset(action for action in command._actions if action.required)
    return _Scan({dest: name, **fields}, options, tuple(positionals), required)


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The parser main uses, built once per process: building it costs more
    than deciding a small formula, and parsing leaves it unchanged.  Its
    scans attribute maps each command name to the _Scan of its parser, so
    the tables share this one cache."""
    parser = build_parser()
    (commands,) = (action for action in parser._actions
                   if isinstance(action, argparse._SubParsersAction))
    parser.scans = {name: _scan_of(commands.dest, name, command)
                    for name, command in commands.choices.items()}
    return parser


def _scan(scan: _Scan, argv: list[str]) -> Optional[argparse.Namespace]:
    """The Namespace parse_args returns for argv, if argv has the plain form;
    None for any other argv, including one that parse_args rejects.

    In the plain form, each word after the command name is either one of
    the command's option strings, followed by its value, or the next
    positional; no value or positional starts with "-".  Each value goes
    through its action's type and choices, as parse_args does, and the last
    occurrence of an option wins."""
    fields = dict(scan.fields)
    given = set()
    positionals = iter(scan.positionals)
    words = iter(argv)
    next(words)  # the command name
    for word in words:
        if word.startswith("-"):
            action = scan.options.get(word)
            word = next(words, "-")  # a missing value reads as a dash word
        else:
            action = next(positionals, None)
        if action is None or word.startswith("-"):
            return None
        try:
            value = word if action.type is None else action.type(word)
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            return None
        if action.choices is not None and value not in action.choices:
            return None
        fields[action.dest] = value
        given.add(action)
    if not scan.required <= given:
        return None
    args = argparse.Namespace()
    vars(args).update(fields)  # Namespace(**fields) sets them one at a time, at twice the cost
    return args


def _parse_argv(argv: list[str]) -> argparse.Namespace:
    """What _parser().parse_args(argv) returns, or the help or error it prints.

    An argv in the plain form that _scan reads (a command name, then its
    whole option strings with their values, and its positionals) gives a
    Namespace built from the command parser's own actions, without
    argparse's pass over argv.  Every other argv (none, -h, --, --logic=iel,
    an abbreviation, a bad value, a missing or extra argument) goes to
    _parser().parse_args, which prints the help or the usage error."""
    parser = _parser()
    scan = parser.scans.get(argv[0]) if argv else None
    args = None if scan is None else _scan(scan, argv)
    return parser.parse_args(argv) if args is None else args


def main(argv: Optional[list[str]] = None) -> int:
    args = _parse_argv(sys.argv[1:] if argv is None else argv)
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
