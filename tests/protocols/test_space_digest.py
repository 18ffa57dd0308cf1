"""The explored Paxos spaces, pinned by state identity.

The golden counter files pin how many states, transitions and bugs a run
reaches; this suite pins *which*.  ``golden/space_digest.json`` holds, for
two runs whose work is almost all Paxos handler steps, every node's sorted
``LS_n`` state hashes, the sorted ``I+`` message hashes and each confirmed
bug's witness as event hashes:

* ``paxos2_d5``: correct two-proposal Paxos, depth bound 5;
* ``s55_buggy``: the §5.5 injected bug from the live snapshot
  ``partial_choice_state()``, under a 760-transition bound.

A handler that builds its successor another way (a constructor instead of
``dataclasses.replace``, a spliced tuple map instead of a re-sorted one)
must reproduce the file byte for byte.  ``python
tests/protocols/test_space_digest.py`` rewrites it; only ever do that on a
commit whose spaces are the intended reference.
"""

import json
import re
from pathlib import Path
from typing import Any, Dict, List

import repro.core.checker as checker_module
from repro.core.checker import LocalModelChecker
from repro.core.config import LMCConfig
from repro.explore.budget import SearchBudget
from repro.model.events import event_hash
from repro.protocols.paxos import PaxosAgreement, PaxosProtocol
from repro.protocols.paxos.scenarios import partial_choice_state, scenario_protocol

GOLDEN_PATH = Path(__file__).parent / "golden" / "space_digest.json"


def _digest(checker: LocalModelChecker, initial: Any = None) -> Dict[str, Any]:
    """Run ``checker`` and digest the space of its last pass."""
    passes: List[Any] = []
    execute = checker_module._ExplorationPass.execute

    def execute_and_keep(run_pass):
        passes.append(run_pass)
        return execute(run_pass)

    checker_module._ExplorationPass.execute = execute_and_keep
    try:
        result = checker.run(initial)
    finally:
        checker_module._ExplorationPass.execute = execute
    run_pass = passes[-1]
    return {
        "states": {
            str(node): sorted(record.hash for record in store)
            for node, store in sorted(run_pass.space.stores.items())
        },
        "messages": sorted(
            stored.hash for stored in run_pass.network.messages_since(0)
        ),
        "witnesses": [
            [event_hash(event) for event in bug.trace] for bug in result.bugs
        ],
    }


def _runs() -> Dict[str, Dict[str, Any]]:
    paxos2 = LocalModelChecker(
        PaxosProtocol(num_nodes=3, proposals=((0, 0, "v0"), (1, 1, "v1"))),
        PaxosAgreement(0),
        SearchBudget(max_depth=5),
        LMCConfig.optimized(),
    )
    s55 = LocalModelChecker(
        scenario_protocol(buggy=True),
        PaxosAgreement(0),
        SearchBudget(max_transitions=760),
        LMCConfig.optimized(stop_on_first_bug=False),
    )
    return {
        "paxos2_d5": _digest(paxos2),
        "s55_buggy": _digest(s55, partial_choice_state()),
    }


def _dump(runs: Dict[str, Dict[str, Any]]) -> str:
    """Indented JSON with each list of hashes on one line."""
    text = json.dumps(runs, indent=1, sort_keys=True)
    return re.sub(r"\[[\d,\s]*\]", lambda match: json.dumps(json.loads(match[0])), text) + "\n"


def test_spaces_match_golden():
    runs = _runs()
    # Guard against an empty reference: both runs reach a real space, and
    # the buggy one confirms bugs.
    assert all(len(states) > 1 for states in runs["paxos2_d5"]["states"].values())
    assert runs["s55_buggy"]["witnesses"]
    assert _dump(runs) == GOLDEN_PATH.read_text()


if __name__ == "__main__":
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(_dump(_runs()))
