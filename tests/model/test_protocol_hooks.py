"""The optional protocol hooks are ``Protocol`` methods, and only they.

The checker trusts a protocol for its handlers and for the seven hooks
:class:`~repro.model.protocol.Protocol` declares with their defaults.  The
layers below the protocols reach a protocol only through those methods, so
none of them imports :mod:`repro.protocols`.
"""

import ast
import importlib
import pkgutil
from pathlib import Path
from types import SimpleNamespace

import pytest

import repro
import repro.protocols
from repro.core.event_kinds import _drops_on
from repro.model.events import CrashEvent, DropEvent, RestartEvent
from repro.model.protocol import Protocol
from repro.model.types import CrashedState, HandlerResult, Message
from repro.protocols.tree import Payload, TreeProtocol
from repro.protocols.twophase import TimeoutTwoPhaseCommit

SRC = Path(repro.__file__).parent

#: The packages the protocols are built on.
LOWER_LAYERS = ("core", "model", "explore", "network", "obs", "stats")


def _imported_modules(path):
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module


def test_lower_layers_do_not_import_the_protocols():
    offenders = sorted(
        str(path.relative_to(SRC))
        for layer in LOWER_LAYERS
        for path in (SRC / layer).rglob("*.py")
        if any(
            module == "repro.protocols" or module.startswith("repro.protocols.")
            for module in _imported_modules(path)
        )
    )
    assert offenders == []


def _protocol_classes():
    for info in pkgutil.walk_packages(repro.protocols.__path__, "repro.protocols."):
        importlib.import_module(info.name)
    seen, pending = set(), [Protocol]
    while pending:
        for cls in pending.pop().__subclasses__():
            if cls not in seen and cls.__module__.startswith("repro.protocols."):
                seen.add(cls)
                pending.append(cls)
    return seen


def test_only_drop_aware_protocols_pass_the_drop_gate():
    classes = _protocol_classes()
    assert TimeoutTwoPhaseCommit in classes and len(classes) > 10

    def gate(cls, drop_faults):
        # The gate reads the protocol's class only: no instance is built.
        config = SimpleNamespace(drop_faults=drop_faults)
        return _drops_on(SimpleNamespace(config=config, protocol=cls.__new__(cls)))

    drop_aware = {cls for cls in classes if issubclass(cls, TimeoutTwoPhaseCommit)}
    assert {cls for cls in classes if gate(cls, True)} == drop_aware
    assert not any(gate(cls, False) for cls in classes)


def test_hook_defaults():
    protocol = TreeProtocol()
    state = protocol.initial_state(2)
    crashed = protocol.execute(state, CrashEvent(2)).state
    assert crashed == CrashedState(node=2, durable=None)
    assert protocol.execute(crashed, RestartEvent(2)) == HandlerResult(state)
    with pytest.raises(ValueError, match="not crashed"):
        protocol.execute(state, RestartEvent(2))
    message = Message(dest=2, src=0, payload=Payload(final_target=4))
    assert protocol.execute(state, DropEvent(message)) == HandlerResult(state)
    assert Protocol.symmetry_classes(protocol) == ()
    assert protocol.rename_state(state, {2: 3}).node == 3
    assert protocol.coverage_message_types() is None
    assert protocol.coverage_action_names() is None

