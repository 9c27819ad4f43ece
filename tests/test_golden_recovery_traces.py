"""Every fault scenario's recovery trace, pinned.

``tests/golden_recovery_traces.json`` holds
``recovery_fingerprint(run_scenario(name, seed=7))`` for every
``SCENARIOS`` row.  A refactor of the coordinator, the store or the
restart path must leave each trace bit-identical; a change that alters
one on purpose re-records the file (``.claude/skills/verify/SKILL.md``
has the command) and says why.
"""

import json
import os

import pytest

from repro.faults.scenarios import (
    SCENARIOS, recovery_fingerprint, run_scenario,
)

GOLDEN = os.path.join(os.path.dirname(__file__), "golden_recovery_traces.json")


def _golden():
    with open(GOLDEN) as f:
        return json.load(f)


def test_golden_file_covers_every_scenario():
    assert sorted(_golden()) == sorted(SCENARIOS)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_recovery_trace_matches_golden(name):
    trace = json.loads(json.dumps(recovery_fingerprint(
        run_scenario(name, seed=7)
    )))
    assert trace == _golden()[name]
