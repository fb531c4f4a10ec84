"""One benchmark child: a fresh interpreter that runs one item list.

Protocol: the child imports ``ielprove.cli`` from the checkout's ``src``,
calls ``build_parser()`` and writes ``ready`` to stdout; the parent times
set-up up to that line.  The parent then writes one JSON job to stdin:
``{"mode": "plain" | "trace" | "setup", "items": [...], "out": path}``.

- ``plain`` passes each item's argv to ``ielprove.cli.main`` with stdout
  and stderr captured, times the call, runs ``calibrate()`` once, and
  appends one JSON line per item to ``out``.  Calibrating and recording
  happen outside the timed region.
- ``trace`` calls the public functions of each module in the order the CLI
  calls them, with one span per call, and writes the spans, counts and
  verdicts to ``out`` when the list is done.
- ``setup`` does nothing more; it only measures set-up.
"""

import contextlib
import io
import json
import os
import sys
import traceback
from time import perf_counter

from calibration import calibrate
from spans import Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def run_plain(cli, items: list[dict], out_path: str) -> None:
    recording = 0.0
    loop_start = perf_counter()
    with open(out_path, "w", encoding="utf-8") as out:
        for item in items:
            stdout, stderr = io.StringIO(), io.StringIO()
            rc, exc = None, None
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                start = perf_counter()
                try:
                    rc = cli.main(item["argv"])
                except SystemExit as e:
                    rc = e.code if isinstance(e.code, int) else 2
                    exc = f"SystemExit({e.code!r})"
                except Exception:
                    exc = traceback.format_exc()
                elapsed = perf_counter() - start
            mark = perf_counter()
            cal = calibrate()
            out.write(json.dumps({"id": item["id"], "rc": rc, "s": elapsed, "cal": cal,
                                  "out": stdout.getvalue(), "err": stderr.getvalue(),
                                  "exc": exc}) + "\n")
            recording += perf_counter() - mark
        wall = perf_counter() - loop_start - recording
        out.write(json.dumps({"wall_s": wall, "peak_rss_kb": peak_rss_kb()}) + "\n")


def peak_rss_kb() -> int:
    """This process's peak resident set since exec (VmHWM).  getrusage's
    ru_maxrss would not do: Linux carries the parent's peak across fork and
    exec into it."""
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def _tree_nodes(t) -> int:
    count, stack = 0, [t]
    while stack:
        node = stack.pop()
        count += 1
        stack.extend(node.children)
    return count


def run_trace(cli, items: list[dict], out_path: str) -> None:
    from ielprove.formula import parse, render
    from ielprove.kripke import check_frame, depth, model_to_json, satisfies
    from ielprove.oracle import (
        brute_force_invalid,
        enumerate_models,
        oracle_report_to_json,
        variables,
    )
    from ielprove.prover import Proof, decide, prove_or_refute_formula
    from ielprove.refuter import check_refutation, extract_model, refutation_to_json
    from ielprove.rules import check_proof, proof_to_json
    from ielprove.sequent import Logic, Sequent

    tracer = Tracer()
    call = tracer.call
    counts = {"rules.proof_nodes": 0, "refuter.refutation_nodes": 0,
              "kripke.model_worlds": 0, "kripke.model_depth_max": 0,
              "oracle.pool_models": 0, "oracle.models_scanned": 0,
              "cli.json_bytes": 0}
    pools_seen: set = set()
    verdicts = []

    def certify_model(k, f, model, logic) -> bool:
        if call("kripke.check_frame", k, check_frame, model, logic):
            return False
        return call("kripke.satisfies", k, satisfies, model, model.root,
                    Sequent(delta=frozenset({f})))

    for item in items:
        k = item["id"]
        with tracer.span("item", k):
            args = cli.build_parser().parse_args(item["argv"])
            logic = Logic(args.logic)
            f = call("formula.parse", k, parse, args.formula)
            search = decide if args.command in ("decide", "crosscheck") else prove_or_refute_formula
            out = call("prover.search", k, search, f, logic)
            model = refutation = report = None
            if isinstance(out, Proof):
                certified = not call("rules.check_proof", k, check_proof, out.tree, logic)
                verdict = "valid"
            else:
                verdict = "invalid"
                if args.command == "refute":
                    refutation = out
                    call("refuter.check_refutation", k, check_refutation, refutation, logic)
                    model = call("refuter.extract_model", k, extract_model, refutation, logic)
                else:
                    model = out.model
                certified = certify_model(k, f, model, logic)
            if args.command == "crosscheck":
                key = (variables(f), args.bound, logic)
                call("oracle.pool", k, next, enumerate_models(*key), None)
                report = call("oracle.scan", k, brute_force_invalid, f, args.bound, logic)
                consistent = certified and not (
                    (model is None and report.countermodel is not None)
                    or (model is not None and report.min_depth_found is not None
                        and report.min_depth_found < depth(model)))
                obj = {"consistent": consistent, "reports": [{
                    "formula": render(f), "logic": logic.value, "status": verdict,
                    "prover_model_depth": None if model is None else depth(model),
                    "oracle": call("oracle.report_to_json", k, oracle_report_to_json, report),
                }]}
            elif model is None:
                obj = {"status": "valid", "proof": call("rules.proof_to_json", k,
                                                        proof_to_json, out.tree)}
            else:
                obj = {"status": "invalid",
                       "model": call("kripke.model_to_json", k, model_to_json, model)}
                if refutation is not None:
                    obj["refutation"] = call("refuter.refutation_to_json", k,
                                             refutation_to_json, refutation)
            text = call("cli.json_dumps", k, json.dumps, obj, sort_keys=True)

        # Counts are taken outside the item span.
        counts["cli.json_bytes"] += len(text)
        if isinstance(out, Proof):
            counts["rules.proof_nodes"] += _tree_nodes(out.tree)
        if refutation is not None:
            counts["refuter.refutation_nodes"] += _tree_nodes(refutation)
        if model is not None:
            counts["kripke.model_worlds"] += len(model.worlds)
            counts["kripke.model_depth_max"] = max(counts["kripke.model_depth_max"],
                                                   depth(model))
        if report is not None:
            counts["oracle.models_scanned"] += report.models_enumerated
            if key not in pools_seen:
                pools_seen.add(key)
                counts["oracle.pool_models"] += sum(1 for _ in enumerate_models(*key))
        verdicts.append(verdict)

    with open(out_path, "w", encoding="utf-8") as out_file:
        json.dump({"spans": [list(s) for s in tracer.spans], "counts": counts,
                   "verdicts": verdicts}, out_file)


def main() -> None:
    sys.path.insert(0, SRC)
    import ielprove.cli as cli
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        sys.exit(f"ielprove was imported from {cli.__file__}, not from {SRC}")
    cli.build_parser()
    sys.stdout.write("ready\n")
    sys.stdout.flush()

    job = json.load(sys.stdin)
    if job["mode"] == "plain":
        run_plain(cli, job["items"], job["out"])
    elif job["mode"] == "trace":
        run_trace(cli, job["items"], job["out"])


if __name__ == "__main__":
    main()
