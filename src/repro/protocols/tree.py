"""The §2 primer: a simple distributed tree forwarding algorithm (Fig. 2).

Node ``origin`` initiates a message destined for node ``target`` and flips
its state to *sent*; every node that receives the message forwards it to its
children; ``target`` flips its state to *received*.  The paper uses this
five-node system to contrast the 12 global states of Fig. 3 with the 4
temporary system states of Fig. 4 — and to exhibit the invalid combination
``----r`` (received before sent) that soundness verification must reject.

``track_forwarding`` selects between two fidelity modes:

* ``True`` (default) — interior nodes record that they forwarded.  Every
  message generation then appears in some node's predecessor sequence, so
  soundness verification is exact.
* ``False`` — interior nodes are stateless, exactly like the paper's figure
  (only ``s`` and ``r`` are visible).  Forwarding events then only create
  self-referencing predecessor links, which the predecessor closure ignores
  (§4.2) — a faithful, runnable demonstration of the prototype's
  self-reference incompleteness that the test suite pins down.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple

from repro.invariants.base import DecomposableInvariant
from repro.model.protocol import Protocol, ProtocolConfigError
from repro.model.system_state import SystemState
from repro.model.types import Action, HandlerResult, Message, NodeId

#: The five-node topology of Fig. 2: node 0 forwards to 1 and 2; node 2
#: forwards to 3 and 4.
DEFAULT_CHILDREN: Dict[NodeId, Tuple[NodeId, ...]] = {0: (1, 2), 2: (3, 4)}


@dataclass(frozen=True)
class Payload:
    """The forwarded message body; ``final_target`` names the addressee."""

    final_target: NodeId


@dataclass(frozen=True)
class TreeNodeState:
    """Local state of a tree node.

    ``sent`` is only ever True on the origin, ``received`` only on the
    target; ``forwarded`` is used by interior nodes when the protocol runs in
    ``track_forwarding`` mode.
    """

    node: NodeId
    sent: bool = False
    received: bool = False
    forwarded: bool = False

    def glyph(self) -> str:
        """The single-character rendering of the paper's figures."""
        if self.sent:
            return "s"
        if self.received:
            return "r"
        if self.forwarded:
            return "f"
        return "-"


class TreeProtocol(Protocol):
    """The Fig. 2 forwarding tree."""

    name = "tree"

    def __init__(
        self,
        children: Optional[Dict[NodeId, Tuple[NodeId, ...]]] = None,
        origin: NodeId = 0,
        target: NodeId = 4,
        track_forwarding: bool = True,
    ):
        self.children = dict(DEFAULT_CHILDREN if children is None else children)
        self.origin = origin
        self.target = target
        self.track_forwarding = track_forwarding
        nodes = set(self.children)
        for kids in self.children.values():
            nodes.update(kids)
        nodes.add(origin)
        nodes.add(target)
        self._node_ids = tuple(sorted(nodes))
        if origin == target:
            raise ProtocolConfigError("origin and target must differ")

    def node_ids(self) -> Tuple[NodeId, ...]:
        return self._node_ids

    def initial_state(self, node: NodeId) -> TreeNodeState:
        return TreeNodeState(node=node)

    def enabled_actions(self, state: TreeNodeState) -> Tuple[Action, ...]:
        if state.node == self.origin and not state.sent:
            return (Action(node=state.node, name="send"),)
        return ()

    def handle_action(self, state: TreeNodeState, action: Action) -> HandlerResult:
        if action.name == "send" and state.node == self.origin and not state.sent:
            return HandlerResult(
                replace(state, sent=True),
                self._forwards(state.node),
            )
        return HandlerResult(state)

    def handle_message(self, state: TreeNodeState, message: Message) -> HandlerResult:
        if not isinstance(message.payload, Payload):
            return HandlerResult(state)
        if state.node == self.target:
            if state.received:
                return HandlerResult(state)
            return HandlerResult(replace(state, received=True))
        if state.forwarded:
            return HandlerResult(state)
        new_state = (
            replace(state, forwarded=True) if self.track_forwarding else state
        )
        return HandlerResult(new_state, self._forwards(state.node))

    # -- symmetry contract (docs/REDUCTION.md) --------------------------------

    def symmetry_classes(self) -> Tuple[Tuple[NodeId, ...], ...]:
        """Sibling leaves — same parent, neither origin nor target — commute.

        Topology is part of the protocol, so a renaming is a symmetry only
        when it maps the ``children`` relation onto itself: leaves are
        interchangeable exactly when they hang off the *same* parent and
        neither is the distinguished origin or target.  The Fig. 2 default
        topology has no such pair (leaf 1's sibling is interior, leaf 3's
        sibling is the target), so this hook declares nothing there — wider
        fan-outs (several plain leaves under one parent) do yield classes.
        A ``TreeNodeState`` is all booleans beside ``node``, so the generic
        substitution walker serves as ``rename_state``.
        """
        classes = []
        special = {self.origin, self.target}
        for _parent, kids in sorted(self.children.items()):
            plain_leaves = tuple(
                kid
                for kid in kids
                if kid not in self.children and kid not in special
            )
            if len(plain_leaves) >= 2:
                classes.append(plain_leaves)
        return tuple(classes)

    def _forwards(self, node: NodeId) -> Tuple[Message, ...]:
        return tuple(
            Message(dest=child, src=node, payload=Payload(final_target=self.target))
            for child in self.children.get(node, ())
        )

    def render(self, system: SystemState) -> str:
        """Concatenated per-node glyphs, e.g. ``s---r`` (paper notation)."""
        return "".join(system.get(node).glyph() for node in self._node_ids)


class ReceivedImpliesSent(DecomposableInvariant):
    """The target may be *received* only once the origin is *sent*.

    Holds in every real run (the message cannot outrun its own send), but is
    violated by LMC's invalid Cartesian combination ``----r`` — the primer's
    demonstration that preliminary violations need soundness verification.
    """

    name = "received-implies-sent"

    def __init__(self, origin: NodeId = 0, target: NodeId = 4):
        self.origin = origin
        self.target = target

    def local_projection(self, node: NodeId, state: TreeNodeState) -> Optional[str]:
        if node == self.target and state.received:
            return "received"
        if node == self.origin and not state.sent:
            return "unsent"
        return None

    def projections_conflict(self, projections: Dict[NodeId, object]) -> bool:
        return (
            projections.get(self.target) == "received"
            and projections.get(self.origin) == "unsent"
        )

    def summary(self, node: NodeId, state: TreeNodeState) -> Tuple[bool, bool]:
        return (
            node == self.target and state.received,
            node == self.origin and state.sent,
        )
