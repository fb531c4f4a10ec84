"""Tests of the benchmark itself:  python3 -m pytest bench/test_bench.py"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import math
import random
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import run  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402
from ielprove import cli  # noqa: E402
from spans import Span, self_time_by_name, self_times  # noqa: E402


def _record(item: dict) -> dict:
    """Run one item in-process the way the worker does."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(item["argv"])
    return {"id": item.get("id", 0), "rc": rc, "s": 0.0, "out": out.getvalue(),
            "err": err.getvalue(), "exc": None}


def _tampered(record: dict, edit) -> dict:
    obj = json.loads(record["out"])
    edit(obj)
    return dict(record, out=json.dumps(obj))


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generators_are_deterministic(name):
    make = workloads.WORKLOADS[name]
    assert make(7, 0) == make(7, 0)
    assert make(7, 1) == make(7, 1)
    assert make(7, 0) != make(8, 0)
    assert make(7, 0) != make(7, 1)


def test_decide_random_has_fixed_size():
    from ielprove.formula import connective_count, parse
    items = workloads.decide_random(3, 0)
    assert len(items) == 2 * workloads.DECIDE_FORMULAS
    assert {connective_count(parse(it["formula"])) for it in items} == {
        workloads.DECIDE_CONNECTIVES}


def test_pinned_references_apply_to_their_seed_only():
    for name in ("decide-random", "crosscheck-oracle"):
        pinned = workloads.load_reference(name, workloads.DEFAULT_SEED)
        assert pinned, f"no references pinned for {name}"
        data = json.loads(workloads.reference_path(name).read_text())
        assert data["passes"] == workloads.PASSES
        for index in range(workloads.PASSES):
            items = workloads.items_for(name, workloads.DEFAULT_SEED, index)
            assert all(it["verdict"] is not None for it in items)
        assert all(it["verdict"] is None
                   for it in workloads.items_for(name, workloads.DEFAULT_SEED + 1, 0))


def test_family_answers_agree_with_the_prover():
    for item in workloads.family_items(random.Random(0)):
        reason, verdict = verify.check(item, _record(item))
        assert reason is None, f"{item['family']} {item['logic']}: {reason}"
        assert verdict == item["verdict"]


# ---------------------------------------------------------------------------
# Statistics and spans
# ---------------------------------------------------------------------------

def test_tail_percentile_leaves_ten_samples_beyond():
    for n in [*range(21, 500), 1999, 2000, 5000]:
        p = run.tail_percentile(n)
        assert n - math.ceil(p * n / 100) >= 10
        assert p == 99.5 or n - math.ceil((p + 0.5) * n / 100) < 10
    for n in (21, 74, 200, 400):
        values = list(range(n))
        assert sum(v > run.percentile(values, run.tail_percentile(n)) for v in values) >= 10


def test_percentile_is_nearest_rank():
    assert run.percentile([5.0, 1.0, 3.0, 2.0, 4.0], 50) == 3.0
    assert run.percentile([float(v) for v in range(1, 101)], 95) == 95.0


def test_scale_follows_the_local_calibration():
    ref = run.REFERENCE_S
    times = [0.01] * 30
    assert run.scale(times, [ref] * 30) == pytest.approx(times)
    # A machine running at half speed doubles both the call times and the
    # calibrations, so the scaled times do not move.
    slow = [ref] * 15 + [2 * ref] * 15
    scaled = run.scale([t * c / ref for t, c in zip(times, slow)], slow)
    assert scaled[:10] == pytest.approx(times[:10])
    assert scaled[-10:] == pytest.approx(times[-10:])
    # One disturbed calibration does not move its neighbours.
    spike = [ref] * 30
    spike[12] = 50 * ref
    assert run.scale(times, spike) == pytest.approx(times)


def test_self_time_subtracts_covered_children():
    spans = [Span(0, "item", 0.0, 10.0, None, 0),
             Span(1, "a", 1.0, 4.0, 0, 0),
             Span(2, "b", 3.0, 6.0, 0, 0),      # overlaps a: covered 1..6
             Span(3, "c", 2.0, 3.0, 1, 0),
             Span(4, "a", 11.0, 12.0, None, 1)]
    own = self_times(spans)
    assert own == {0: 5.0, 1: 2.0, 2: 3.0, 3: 1.0, 4: 1.0}
    assert self_time_by_name(spans) == {"item": 5.0, "a": 3.0, "b": 3.0, "c": 1.0}


# ---------------------------------------------------------------------------
# Failure accounting
# ---------------------------------------------------------------------------

VALID = workloads._item(["refute"], "iel", "K(a -> b) -> K a -> K b", "valid", None)
INVALID = workloads._item(["refute"], "iel", "K a -> a", "invalid", 2)
CROSS = workloads._item(["crosscheck", "--bound", "3"], "iel-", "K a -> ~~a", "invalid", 1)


def test_correct_outputs_pass():
    for item in (VALID, INVALID, CROSS):
        assert verify.check(item, _record(item))[0] is None


def test_wrong_verdict_fails():
    item = dict(INVALID, verdict="valid", depth=None)
    assert "verdict" in verify.check(item, _record(item))[0]
    item = dict(INVALID, depth=3)
    assert "depth" in verify.check(item, _record(item))[0]


def test_rejected_certificates_fail():
    def bad_rule(obj):
        obj["proof"]["children"][0]["rule"] = "AndL"

    def bad_model(obj):
        obj["model"]["val"] = {w: ["a"] for w in obj["model"]["val"]}

    def bad_refutation(obj):
        node = obj["refutation"]
        while node["children"]:
            node = node["children"][0]
        node["axiom"] = "kSat" if node["axiom"] != "kSat" else "Sat"

    def other_formula(obj):
        obj["proof"]["sequent"]["delta"] = ["a -> a"]

    cases = [(VALID, bad_rule), (INVALID, bad_model), (INVALID, bad_refutation),
             (VALID, other_formula)]
    for item, edit in cases:
        reason, _ = verify.check(item, _tampered(_record(item), edit))
        assert reason is not None, edit.__name__


def test_exit_codes_exceptions_and_inconsistency_fail():
    good = _record(INVALID)
    assert verify.check(INVALID, dict(good, rc=0))[0].startswith("exit code 0")
    assert verify.check(INVALID, dict(good, rc=2))[0].startswith("exit code 2")
    assert "raised" in verify.check(INVALID, dict(good, exc="Traceback...\nKeyError: 1"))[0]
    assert "traceback" in verify.check(INVALID, dict(good, err="Traceback (most recent"))[0]
    assert verify.check(INVALID, None)[0] == "no result recorded"
    assert "malformed" in verify.check(INVALID, dict(good, out="not json"))[0]

    def contradict(obj):
        obj["consistent"] = False
        obj["reports"][0]["consistent"] = False
    assert "inconsistent" in verify.check(CROSS, _tampered(_record(CROSS), contradict))[0]


def test_injected_failures_raise_the_failed_count():
    items = copy.deepcopy([VALID, INVALID])
    for k, item in enumerate(items):
        item["id"] = k
    deadline = time.monotonic() + 60
    run.OUT.mkdir(exist_ok=True)
    checked = {}
    assert run.plain_pass(items, 1, 0, deadline, "test", checked)["failed"] == 0
    items[0]["verdict"], items[1]["depth"] = "invalid", 5
    result = run.plain_pass(items, 1, 0, deadline, "test", checked)
    assert result["failed"] == 2
    assert result["within"] == 0
