"""The paper's contribution: the local model checker (LMC)."""

from repro.core.checker import LocalModelChecker
from repro.core.config import LMCConfig
from repro.core.records import LocalStateSpace, NodeStateRecord
from repro.core.soundness import SoundnessVerifier, replay_sequences
from repro.core.system_states import (
    combination_to_system_state,
    enumerate_general,
    enumerate_optimized,
)

__all__ = [
    "LMCConfig",
    "LocalModelChecker",
    "LocalStateSpace",
    "NodeStateRecord",
    "SoundnessVerifier",
    "combination_to_system_state",
    "enumerate_general",
    "enumerate_optimized",
    "replay_sequences",
]
