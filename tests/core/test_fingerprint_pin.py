"""Pinned checkpoint fingerprints.

A checkpoint resumes only under a configuration whose fingerprint equals the
one in its envelope (docs/CHECKPOINTS.md), so any change to how
:func:`repro.core.checkpoint.fingerprint` reads ``LMCConfig`` — a field
added, retired or renamed — must leave these digests alone, or every
checkpoint written before the change stops loading.
"""

import pytest

from repro.core.checkpoint import fingerprint
from repro.core.config import LMCConfig
from repro.protocols.paxos import PaxosAgreement, PaxosProtocol
from repro.protocols.twophase import Atomicity, TimeoutTwoPhaseCommit


def _paxos():
    return PaxosProtocol(num_nodes=3, proposals=((0, 0, "v0"),)), PaxosAgreement(0)


def _twophase_timeout():
    return TimeoutTwoPhaseCommit(3), Atomicity()


PINS = {
    "paxos-general": (
        _paxos,
        LMCConfig.general(),
        "c40b5c68c2dccebdfb933fa49214bf6750671eacdc87d2eeafaed5afe30ae141",
    ),
    "paxos-optimized": (
        _paxos,
        LMCConfig.optimized(),
        "fb65ad7afb0d2ad97c66da3994ad52c0f2dc5a86cda2eccc3b9c5ae0e16c2f0a",
    ),
    "2pc-timeout-faults-reduced": (
        _twophase_timeout,
        LMCConfig.optimized(
            drop_faults=True,
            duplicate_limit=1,
            partition_schedules=((1, 2, (0,), (1, 2)),),
            symmetry_reduction=True,
            por_pruning=True,
        ),
        "628efd7795db142bb551d0ddda1fe2ac1991467a44a2c24a62062a1148db3d52",
    ),
}


@pytest.mark.parametrize("case", sorted(PINS))
def test_fingerprint_is_pinned(case):
    workload, config, digest = PINS[case]
    protocol, invariant = workload()
    assert (
        fingerprint(protocol, invariant, config, protocol.initial_system_state())
        == digest
    )
