"""Pin (verdict, countermodel depth) for the random workloads' default seed.

    python3 bench/pin_references.py

For each item of the ``workloads.PASSES`` passes of ``decide-random`` and
``crosscheck-oracle`` under the default seed, records the verdict and depth
that ``decide`` gives, after checking them against the brute-force oracle
at 3 worlds: a valid formula has no countermodel there, and an invalid one
has none shallower than the prover's (and one of exactly its depth when
that depth is at most 3).  Any disagreement stops the script before it
writes anything.  Run it only to re-pin after an intended change of the
generators; the benchmark compares every later run against these files.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ielprove.formula import parse  # noqa: E402
from ielprove.kripke import depth  # noqa: E402
from ielprove.oracle import brute_force_invalid  # noqa: E402
from ielprove.prover import Proof, decide  # noqa: E402
from ielprove.sequent import Logic  # noqa: E402

import workloads  # noqa: E402

ORACLE_BOUND = 3
PINNED = ("decide-random", "crosscheck-oracle")


def pin(item: dict) -> tuple[str, int | None]:
    f, logic = parse(item["formula"]), Logic(item["logic"])
    outcome = decide(f, logic)
    verdict = "valid" if isinstance(outcome, Proof) else "invalid"
    got = None if verdict == "valid" else depth(outcome.model)
    report = brute_force_invalid(f, ORACLE_BOUND, logic)
    oracle = report.min_depth_found
    agrees = (oracle is None if got is None
              else oracle == got if got <= ORACLE_BOUND else oracle is None)
    if not agrees:
        raise SystemExit(f"oracle disagrees on {workloads.reference_key(item)}: "
                         f"prover {verdict} depth {got}, oracle depth {oracle}")
    return verdict, got


def main() -> None:
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    for name in PINNED:
        entries = {}
        for index in range(workloads.PASSES):
            for item in workloads.WORKLOADS[name](workloads.DEFAULT_SEED, index):
                key = workloads.reference_key(item)
                if key not in entries:
                    entries[key] = pin(item)
        data = {"seed": workloads.DEFAULT_SEED, "passes": workloads.PASSES,
                "oracle_bound": ORACLE_BOUND, "entries": entries}
        workloads.reference_path(name).write_text(json.dumps(data, indent=0, sort_keys=True))
        print(f"{name}: pinned {len(entries)} items")


if __name__ == "__main__":
    main()
