"""repro — Local Model Checking of networked systems without the network.

A complete reproduction of Guerraoui & Yabandeh, "Model Checking a Networked
System Without the Network" (NSDI 2011): the LMC algorithm (general and
invariant-optimised), the global model checking baseline it is measured
against, the protocols under test (Paxos, 1Paxos, the primer tree, and
friends), and the online (CrystalBall-style) checking loop that restarts the
checker from live snapshots.

Quickstart::

    from repro import LocalModelChecker, LMCConfig
    from repro.protocols.tree import TreeProtocol, ReceivedImpliesSent

    protocol = TreeProtocol()
    checker = LocalModelChecker(protocol, ReceivedImpliesSent())
    result = checker.run()
    assert result.completed and not result.found_bug
"""

from repro.core.checker import LocalModelChecker
from repro.core.config import LMCConfig
from repro.explore.budget import SearchBudget
from repro.explore.global_checker import GlobalModelChecker
from repro.obs import (
    JsonlEmitter,
    MemoryEmitter,
    NullEmitter,
    TraceEmitter,
    TraceSummary,
)
from repro.replay import ReplayOutcome, replay_trace, validate_bug
from repro.reports import BugReport, CheckResult

__version__ = "1.1.0"

__all__ = [
    "BugReport",
    "CheckResult",
    "GlobalModelChecker",
    "JsonlEmitter",
    "LMCConfig",
    "LocalModelChecker",
    "MemoryEmitter",
    "NullEmitter",
    "ReplayOutcome",
    "SearchBudget",
    "TraceEmitter",
    "TraceSummary",
    "replay_trace",
    "validate_bug",
    "__version__",
]
