"""The hand-written point-to-point wrappers, pinned.

``tests/golden_wrapper_calls.json`` pins the table-driven wrappers;
this file pins the point-to-point ones, which ``ManaRank`` writes out:
send/recv, the nonblocking family, persistent requests, probes, the
``PROC_NULL`` cases and every completion function, plus one LOOP round
in RELAUNCH mode that catches a message in flight (drained, then
received from MANA's drain buffer) and an ``irecv`` pending (re-posted
in the new lower half).  ``tests/golden_p2p_calls.json`` holds, per
case, each rank's ``wrapped_calls``, ``cs_count``, lower-half call
counts, ``repr`` of its virtual runtime and what the application saw.
The app, ``tests.miniapps.PointToPointApp``, lives in an importable
module: its class path is pickled into each checkpoint image, and the
image's size is charged to virtual time.

Every nonblocking completion is called where a barrier fixes its
outcome, so the file does not depend on thread scheduling.  Inactive
persistent requests stay out of any-of/all-of lists here (their
handling is tested in ``tests/test_persistent_requests.py``).

A change that alters a count on purpose re-records the file:

    PYTHONPATH=src python -m tests.test_golden_p2p_calls > tests/golden_p2p_calls.json
"""

import json
import pathlib
import tempfile

import pytest

from repro import CheckpointKind, CheckpointMode, JobConfig, Launcher
from tests.miniapps import PointToPointApp

GOLDEN = pathlib.Path(__file__).parent / "golden_p2p_calls.json"
CASES = tuple(
    f"{impl}/{how}"
    for impl in ("exampi", "mpich", "openmpi")
    for how in ("legacy", "native", "new")
)


def fingerprint(case: str, ckpt_dir: str) -> dict:
    """Run ``case`` (``impl/native`` or ``impl/<vid design>``) and
    return what the golden file pins for it."""
    impl, how = case.split("/")
    mana = how != "native"
    job = Launcher(JobConfig(
        nranks=2, impl=impl, mana=mana,
        vid_design=how if mana else "new",
        ckpt_dir=ckpt_dir if mana else None,
    )).launch(lambda r: PointToPointApp())
    if mana:
        job.checkpoint_at_iteration(
            "main", 1, kind=CheckpointKind.LOOP, mode=CheckpointMode.RELAUNCH,
        )
    job.start()
    res = job.wait(60)
    return json.loads(json.dumps({
        "status": res.status,
        "error": (
            None if res.status == "completed"
            else res.first_error().strip().splitlines()[-1]
        ),
        "ranks": [
            {
                "wrapped_calls": o.wrapped_calls,
                "cs_count": o.cs_count,
                "runtime": repr(o.runtime),
                "lib_call_counts": dict(o.lib_call_counts),
                "seen": getattr(o.app, "seen", None),
            }
            for o in res.ranks
        ],
    }))


def test_golden_file_covers_every_case():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_p2p_counts_unchanged(case, tmp_path):
    assert fingerprint(case, str(tmp_path)) == json.loads(GOLDEN.read_text())[case]


if __name__ == "__main__":
    # One rank per line, like tests/golden_wrapper_calls.json.
    with tempfile.TemporaryDirectory() as d:
        out = {c: fingerprint(c, f"{d}/{i}") for i, c in enumerate(CASES)}
    cases = []
    for case in CASES:
        ranks = ",\n".join(
            "   " + json.dumps(r, sort_keys=True) for r in out[case]["ranks"]
        )
        cases.append(
            f" {json.dumps(case)}: {{\n"
            f"  \"status\": {json.dumps(out[case]['status'])},\n"
            f"  \"error\": {json.dumps(out[case]['error'])},\n"
            f"  \"ranks\": [\n{ranks}\n  ]\n }}"
        )
    print("{\n" + ",\n".join(cases) + "\n}")
