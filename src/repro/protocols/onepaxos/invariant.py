"""Safety invariants for 1Paxos.

The invariant installed in §5.6 is the Paxos invariant itself: no two nodes
choose different values for the same index — here over the 1Paxos data-plane
decisions.  :class:`OnePaxosAgreement` and :class:`OnePaxosAgreementAll` are
the Paxos pair under the 1Paxos label, reading a state's chosen pairs from
``chosen1``.  :class:`SingleActiveRoles` adds the configuration sanity
property the paper motivates 1Paxos's design with ("it is necessary that the
acceptor and leader roles to be assigned to two separate nodes") — a direct
check that flags the buggy initialization on the very first proposing
state.
"""

from __future__ import annotations

from typing import Iterable, Tuple

from repro.invariants.base import LocalInvariant
from repro.model.types import NodeId
from repro.protocols.onepaxos.messages import Value
from repro.protocols.onepaxos.state import OnePaxosNodeState
from repro.protocols.paxos.invariant import PaxosAgreement, PaxosAgreementAll


class OnePaxosAgreement(PaxosAgreement):
    """No two nodes choose different values for decree ``index``.

    The Paxos invariant over the 1Paxos data-plane decisions, which a
    1Paxos state answers through the same ``chosen_value``.
    """

    tag, label = "onepaxos", "1Paxos"


class OnePaxosAgreementAll(PaxosAgreementAll):
    """No two nodes choose different values for *any* 1Paxos decree index.

    The multi-index form used by the online experiment, where the test
    driver creates contention at whatever index the session makes
    interesting.  Projections are the chosen ``(index, value)`` pairs, with
    a pairwise custom conflict (two nodes disagreeing on some index).
    """

    name = "onepaxos-agreement[*]"
    label = OnePaxosAgreement.label

    @staticmethod
    def chosen(state: OnePaxosNodeState) -> Iterable[Tuple[int, Value]]:
        return state.chosen1


class SingleActiveRoles(LocalInvariant):
    """A node never addresses *itself* as the active acceptor when leading.

    1Paxos requires the leader and acceptor roles on separate nodes; a node
    about to propose to itself is exactly the buggy-initialization symptom.
    The check is per-node (a :class:`LocalInvariant`), so LMC evaluates it
    without creating system states.
    """

    name = "onepaxos-distinct-roles"

    def __init__(self, true_initial_acceptor: NodeId = 1):
        self.true_initial_acceptor = true_initial_acceptor

    def check_local(self, node: NodeId, state: OnePaxosNodeState) -> bool:
        if state.believed_leader() != node or not state.pending:
            return True
        return state.acceptor_for_proposing(self.true_initial_acceptor) != node
