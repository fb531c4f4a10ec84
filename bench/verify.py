"""Failure accounting for one CLI call of the benchmark.

``check(item, record)`` returns why the call failed (None if it did not)
and the verdict it printed.  A call
fails when ``cli.main`` raised or printed a traceback, returned a code
outside {0, 1} or one that disagrees with its certificate, emitted a
certificate that its checker rejects after a JSON round trip, reported an
inconsistent crosscheck, or gave a verdict or countermodel depth other than
the item's reference.
"""

from __future__ import annotations

import json
from typing import Optional

from ielprove.formula import parse
from ielprove.kripke import KripkeModel, check_frame, depth, model_from_json, satisfies
from ielprove.refuter import check_refutation, refutation_from_json
from ielprove.rules import check_proof, proof_from_json
from ielprove.sequent import Logic, Sequent


def _model_failure(model: KripkeModel, logic: Logic, root: Sequent) -> Optional[str]:
    violations = check_frame(model, logic)
    if violations:
        return f"countermodel breaks the frame conditions: {violations[0]}"
    if not satisfies(model, model.root, root):
        return "countermodel does not refute the formula at its root"
    return None


def _certificate_failure(item: dict, obj: dict, logic: Logic,
                         root: Sequent) -> tuple[Optional[str], str, Optional[int]]:
    """(failure, verdict, countermodel depth) of a decide/refute output."""
    verdict = obj.get("status")
    if verdict == "valid":
        tree = proof_from_json(obj["proof"])
        if tree.sequent != root:
            return "proof is not of the input formula", verdict, None
        defects = check_proof(tree, logic)
        return (f"proof rejected: {defects[0]}" if defects else None), verdict, None
    if verdict != "invalid":
        return f"unknown status {verdict!r}", str(verdict), None
    if item["command"] == "refute":
        tree = refutation_from_json(obj["refutation"])
        if tree.sequent != root:
            return "refutation is not of the input formula", verdict, None
        defects = check_refutation(tree, logic)
        if defects:
            return f"refutation rejected: {defects[0]}", verdict, None
    model = model_from_json(obj["model"])
    return _model_failure(model, logic, root), verdict, depth(model)


def _crosscheck_failure(item: dict, obj: dict, logic: Logic,
                        root: Sequent) -> tuple[Optional[str], str, Optional[int]]:
    (report,) = obj["reports"]
    verdict = report["status"]
    if obj["consistent"] is not True or report["consistent"] is not True:
        return f"crosscheck inconsistent: {report['problems']}", verdict, None
    oracle_model = report["oracle"]["countermodel"]
    if oracle_model is not None:
        if verdict == "valid":
            return "prover says valid but the oracle printed a countermodel", verdict, None
        failure = _model_failure(model_from_json(oracle_model), logic, root)
        if failure is not None:
            return f"oracle {failure}", verdict, None
    return None, verdict, report["prover_model_depth"]


def check(item: dict, record: Optional[dict]) -> tuple[Optional[str], Optional[str]]:
    """(why the call failed or None, the verdict it printed or None)."""
    if record is None:
        return "no result recorded", None
    if record["exc"] is not None:
        return f"cli.main raised: {record['exc'].strip().splitlines()[-1]}", None
    if "Traceback" in record["err"]:
        return "traceback on stderr", None
    rc = record["rc"]
    if rc not in (0, 1):
        return f"exit code {rc}: {record['err'].strip()[:200]}", None
    logic = Logic(item["logic"])
    root = Sequent(delta=frozenset({parse(item["formula"])}))
    try:
        obj = json.loads(record["out"])
        certificate = (_crosscheck_failure if item["command"] == "crosscheck"
                       else _certificate_failure)
        reason, verdict, got_depth = certificate(item, obj, logic, root)
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        return f"malformed output: {exc!r}", None
    if reason is None:
        want_rc = 0 if item["command"] == "crosscheck" or verdict == "valid" else 1
        if rc != want_rc:
            reason = f"exit code {rc} with a {verdict} certificate"
        elif item["verdict"] is not None and verdict != item["verdict"]:
            reason = f"verdict {verdict}, reference {item['verdict']}"
        elif item["verdict"] is not None and got_depth != item["depth"]:
            reason = f"countermodel depth {got_depth}, reference {item['depth']}"
    return reason, verdict
