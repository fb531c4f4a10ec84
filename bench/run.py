"""Benchmark of the ielprove command line, end to end and per module.

    python3 bench/run.py --workload decide-random --seed 1 --seconds 20 --trace 0

Each pass starts one fresh interpreter (``bench/worker.py``), so no pass
inherits the formula caches or the oracle's model pools of another.  The
child imports ``ielprove.cli`` from ``src/``, then runs the pass's item
list through ``ielprove.cli.main(argv)``, one argv per item, timing each
call.  Passes run one at a time from this process, with no threads, until
``--seconds`` of passes have run; pass ``i`` gets the item list and hash
seed of ``(--seed, i % PASSES)`` (see ``workloads.py``), so a faster commit
repeats lists rather than measuring new ones.  Every item's exit code and output
are then checked here, outside the timed region (see ``verify.py``).

``--trace 0`` reports the end-to-end metrics named in ``BENCHMARK.json``:

- ``setup_s``: spawning a child until ``ielprove.cli`` is imported and
  ``build_parser()`` has returned, timed from this process; the median of
  at least 21 children.
- ``wall_s``: the time a child takes to run its item list, excluding
  set-up; the mean over passes.  Pass times are bimodal across item lists
  and hash seeds, and a median jumps between the two modes.
- ``latency_ms_p50``: the median ``cli.main`` call over all passes.
- ``latency_ms_tail``: the highest percentile (in steps of half a percent)
  that leaves at least 10 of a pass's calls beyond it, taken over the calls
  of all passes.  The percentile depends only on the pass's length, so it
  is the same for a faster commit that runs more passes.
- ``within_100ms_frac``: the share of calls that returned within 100 ms and
  did not fail.
- ``peak_rss_mb``: a child's maximum resident set; the median over passes.

The machine's speed switches between a fast and a slow state (about 0.6
and 1.0 ms for one ``calibrate()``) from one tenth of a second to the
next, so the call and pass times above are scaled to a fixed machine speed
(``calibration.py``).  The child runs ``calibrate()`` after each call, and
each call's time is multiplied by ``REFERENCE_S`` over the median
calibration of the calls around it; a pass's wall time is scaled by the
ratio of its scaled to its measured call times, and ``within_100ms_frac``
counts scaled times.  ``setup_s`` is reported as measured: scaling did not
make it steadier, since spawning and importing do not follow the
calibration the way Python code does.  The call and pass times as
measured, unscaled, are printed above the result line and kept in
``bench/out/``.

The share of failed calls is the result's ``failed`` over ``attempted``.

``--trace 1`` alternates untraced and traced passes over the list of pass
0.  The traced child calls each module's public functions in the order the
CLI calls them, one span per call, and reports each module's self time
summed over the items, plus counts.  ``other_s`` is the untraced latency
sum minus the modules' self times; ``trace.overhead_s`` is the traced item
time minus the untraced latency sum.  These times are as measured, not
scaled.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines above it print every metric with its
unit and the run's provenance.  A fuller record, with the per-pass numbers
and every failure, goes to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import select
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import verify  # noqa: E402
from calibration import REFERENCE_S  # noqa: E402
from spans import Span, self_time_by_name  # noqa: E402
from workloads import DEFAULT_SEED, PASSES, WORKLOADS, items_for  # noqa: E402

OUT = BENCH / "out"
WORKER = BENCH / "worker.py"

SETUP_SAMPLES = 21
# A call's time is scaled by the median calibration of the calls at most
# this far from it in its pass.
SPEED_WINDOW = 5
# Children still running this long after the start are killed; their
# unrecorded items count as failed.
RUN_LIMIT_S = 150.0
LATENCY_LIMIT_S = 0.1

LAYERS = ("formula.parse", "prover.search", "rules.check_proof", "rules.proof_to_json",
          "refuter.check_refutation", "refuter.extract_model",
          "refuter.refutation_to_json", "kripke.check_frame", "kripke.satisfies",
          "kripke.model_to_json", "oracle.pool", "oracle.scan",
          "oracle.report_to_json", "cli.json_dumps")
CHECK_ENCODE = ("rules.check_proof", "refuter.check_refutation", "refuter.extract_model",
                "rules.proof_to_json", "refuter.refutation_to_json",
                "kripke.model_to_json", "cli.json_dumps")


class ChildFailed(Exception):
    pass


# ---------------------------------------------------------------------------
# Children
# ---------------------------------------------------------------------------

def run_child(mode: str, items: list[dict], out_path: Optional[Path],
              hash_seed: int, deadline: float) -> float:
    """Spawn one worker, hand it a job and wait for it; return its set-up
    time."""
    job = json.dumps({"mode": mode, "out": str(out_path),
                      "items": [{"id": it["id"], "argv": it["argv"]} for it in items]})
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(WORKER)], cwd=ROOT, env=env,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE)
    try:
        readable, _, _ = select.select([proc.stdout], [], [],
                                       max(0.0, deadline - time.monotonic()))
        line = proc.stdout.readline() if readable else b""
        setup_s = time.perf_counter() - start
        if line != b"ready\n":
            raise ChildFailed("child did not get ready")
        try:
            proc.stdin.write(job.encode())
            proc.stdin.close()
        except BrokenPipeError:
            pass
        proc.wait(timeout=max(0.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise ChildFailed("child killed at the run's time limit") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        if not proc.stdin.closed:
            proc.stdin.close()
    if proc.returncode != 0:
        raise ChildFailed(f"child exited with code {proc.returncode}")
    return setup_s


def _hash_seed(seed: int, pass_index: int) -> int:
    return random.Random(f"hash:{seed}:{pass_index}").getrandbits(32)


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def tail_percentile(n: int) -> float:
    """The highest percentile, in half-percent steps, with at least 10 of n
    samples beyond its nearest-rank value (50 when n is too small)."""
    if n <= 20:
        return 50.0
    p = math.floor(200 * (n - 10) / n) / 2
    while n - math.ceil(p * n / 100) < 10:
        p -= 0.5
    return p


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p * len(ordered) / 100) - 1)]


def scale(times: list[float], cals: list[float]) -> list[float]:
    """Each time multiplied by REFERENCE_S over the median of the
    calibrations at most SPEED_WINDOW places from it."""
    return [t * REFERENCE_S / statistics.median(cals[max(0, k - SPEED_WINDOW):k + SPEED_WINDOW + 1])
            for k, t in enumerate(times)]


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------

Checked = dict[bytes, tuple[Optional[str], Optional[str]]]


def check(item: dict, record: Optional[dict],
          checked: Checked) -> tuple[Optional[str], Optional[str]]:
    """``verify.check``, done once per distinct call and output, which
    ``checked`` remembers for the run: a run that outlasts PASSES passes
    repeats item lists and hash seeds, and with them the outputs, so a
    faster commit does not spend longer checking."""
    if record is None:
        return verify.check(item, record)
    key = hashlib.sha256(json.dumps(
        [item["argv"], item["verdict"], item["depth"],
         record["rc"], record["out"], record["err"], record["exc"]]).encode()).digest()
    if key not in checked:
        checked[key] = verify.check(item, record)
    return checked[key]


def plain_pass(items: list[dict], seed: int, pass_index: int, deadline: float,
               tag: str, checked: Checked) -> dict:
    out_path = OUT / f"{tag}-p{pass_index}.jsonl"
    records: dict[int, dict] = {}
    wall = rss_kb = setup_s = None
    error = None
    start = time.monotonic()
    try:
        setup_s = run_child("plain", items, out_path, _hash_seed(seed, pass_index), deadline)
    except ChildFailed as exc:
        error = str(exc)
    elapsed = time.monotonic() - start
    if out_path.exists():
        with open(out_path, encoding="utf-8") as handle:
            for line in handle:
                try:
                    rec = json.loads(line)
                except ValueError:  # cut off when the child was killed
                    continue
                if "wall_s" in rec:
                    wall, rss_kb = rec["wall_s"], rec["peak_rss_kb"]
                else:
                    records[rec["id"]] = rec
        out_path.unlink()
    reasons, verdicts = {}, {}
    for item in items:
        reason, verdicts[item["id"]] = check(item, records.get(item["id"]), checked)
        if reason is not None:
            reasons[item["id"]] = f"{item['logic']} {item['formula'][:120]}: {reason}"
    done = [it["id"] for it in items if it["id"] in records]
    measured = [records[k]["s"] for k in done]
    latencies = scale(measured, [records[k]["cal"] for k in done])
    within = sum(1 for k, s in zip(done, latencies)
                 if k not in reasons and s <= LATENCY_LIMIT_S)
    speedup = sum(latencies) / sum(measured) if sum(measured) > 0 else 1.0
    return {
        "elapsed_s": elapsed,
        "items": len(items),
        "failed": len(reasons),
        "failures": reasons,
        "error": error,
        "latencies": latencies,
        "measured_latencies": measured,
        "within": within,
        "latency_sum_s": sum(measured),
        "measured_wall_s": wall if error is None else None,
        "wall_s": wall * speedup if error is None else None,
        "setup_s": setup_s,
        "rss_mb": None if rss_kb is None else rss_kb / 1024,
        "verdicts": verdicts,
    }


def trace_pass(items: list[dict], seed: int, deadline: float, tag: str) -> dict:
    out_path = OUT / f"{tag}-spans.json"
    start = time.monotonic()
    run_child("trace", items, out_path, _hash_seed(seed, 0), deadline)
    elapsed = time.monotonic() - start
    data = json.loads(out_path.read_text())
    spans = [Span(*s) for s in data["spans"]]
    own = self_time_by_name(spans)
    searches = [s.end - s.start for s in spans if s.name == "prover.search"]
    return {
        "elapsed_s": elapsed,
        "self_s": {name: own.get(name, 0.0) for name in LAYERS},
        "item_s": sum(s.end - s.start for s in spans if s.name == "item"),
        "search_ms_max": 1000 * max(searches, default=0.0),
        "counts": data["counts"],
        "verdicts": data["verdicts"],
    }


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def end_to_end(passes: list[dict], setups: list[float],
               scaled: bool = True) -> dict[str, float]:
    """The end-to-end metrics; with ``scaled`` false, the call and pass
    times as measured."""
    wall, lat = ("wall_s", "latencies") if scaled else ("measured_wall_s", "measured_latencies")
    done = [p for p in passes if p[wall] is not None]
    if not done:
        raise SystemExit("no pass completed; see the failures in bench/out/")
    latencies = [x for p in passes for x in p[lat]]
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.mean(p[wall] for p in done),
        "latency_ms_p50": 1000 * statistics.median(latencies),
        "latency_ms_tail": 1000 * percentile(latencies, tail_percentile(passes[0]["items"])),
        "within_100ms_frac": sum(p["within"] for p in passes) / sum(p["items"] for p in passes),
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in done),
    }


def per_layer(plain: list[dict], traced: list[dict]) -> dict[str, float]:
    def med(values):
        return statistics.median(values)

    out = {f"{name}_s": med([t["self_s"][name] for t in traced]) for name in LAYERS}
    out.update(traced[0]["counts"])
    out["prover.search_ms_max"] = med([t["search_ms_max"] for t in traced])
    scan = out["oracle.scan_s"]
    out["oracle.models_per_s"] = out["oracle.models_scanned"] / scan if scan > 0 else 0.0
    total = med([sum(t["self_s"].values()) for t in traced])
    latency_sum = med([p["latency_sum_s"] for p in plain])
    out["layer_total_s"] = total
    out["other_s"] = latency_sum - total
    out["trace.overhead_s"] = med([t["item_s"] for t in traced]) - latency_sum
    out["share.search"] = out["prover.search_s"] / total
    out["share.check_encode"] = sum(out[f"{n}_s"] for n in CHECK_ENCODE) / total
    out["share.oracle"] = (out["oracle.pool_s"] + out["oracle.scan_s"]) / total
    return out


# ---------------------------------------------------------------------------
# Provenance and output
# ---------------------------------------------------------------------------

def git_sha() -> Optional[str]:
    """HEAD of the repository at ROOT; None outside one (git does not look
    above ROOT)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Exit through the finally clauses, which stop a running child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT.mkdir(exist_ok=True)
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"

    run_child("setup", [], None, 0, deadline)  # compiles bytecode; not timed
    plain: list[dict] = []
    traced: list[dict] = []
    checked: Checked = {}
    measured = 0.0
    while (not plain or measured < args.seconds) and time.monotonic() < deadline:
        index = 0 if args.trace else len(plain) % PASSES
        items = items_for(args.workload, args.seed, index)
        plain.append(plain_pass(items, args.seed, index, deadline, tag, checked))
        measured += plain[-1]["elapsed_s"]
        if args.trace:
            traced.append(trace_pass(items, args.seed, deadline, tag))
            measured += traced[-1]["elapsed_s"]
            for item, verdict in zip(items, traced[-1]["verdicts"]):
                if item["id"] not in plain[-1]["failures"] and \
                        plain[-1]["verdicts"][item["id"]] != verdict:
                    raise SystemExit(f"the traced run and the CLI disagree on {item['formula']}")

    attempted = sum(p["items"] for p in plain)
    failed = sum(p["failed"] for p in plain)
    calls_per_pass = plain[0]["items"]
    provenance = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  "seconds": args.seconds, "git_sha": git_sha(),
                  "python": platform.python_version(), "nproc": os.cpu_count(),
                  "passes": len(plain), "calls_per_pass": calls_per_pass}
    if args.trace:
        values = per_layer(plain, traced)
        wanted = spec["per_layer"]
    else:
        setups = [p["setup_s"] for p in plain if p["setup_s"] is not None]
        while len(setups) < SETUP_SAMPLES and time.monotonic() < deadline:
            setups.append(run_child("setup", [], None, 0, deadline))
        values = end_to_end(plain, setups)
        unscaled = end_to_end(plain, setups, scaled=False)
        wanted = spec["end_to_end"]
        provenance["latency_ms_tail_percentile"] = tail_percentile(calls_per_pass)
        provenance["setup_samples"] = len(setups)
        provenance["reference_s"] = REFERENCE_S
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    record = dict(provenance, correct=failed == 0, attempted=attempted, failed=failed,
                  fail_frac=failed / attempted, metrics=metrics,
                  passes_detail=[{k: v for k, v in p.items()
                                  if k not in ("measured_latencies", "verdicts")}
                                 for p in plain])
    if not args.trace:
        record["unscaled"] = {name: unscaled[name] for name in
                              ("wall_s", "latency_ms_p50", "latency_ms_tail")}
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=1))

    print(" ".join(f"{k}={v}" for k, v in provenance.items()))
    for name, m in metrics.items():
        print(f"{name} {_fmt(m['value'])} {m['unit']}")
    if not args.trace:
        print("as measured, unscaled: " + " ".join(
            f"{name}={_fmt(value)}" for name, value in record["unscaled"].items()))
    print(f"fail_frac {_fmt(failed / attempted)} ({failed} of {attempted} calls)")
    for p in plain:
        for reason in list(p["failures"].values())[:5]:
            print(f"FAILED {reason}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
