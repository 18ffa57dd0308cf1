"""System and global state containers.

The paper distinguishes (§3.1):

* the **system state** ``L`` — the local states of all nodes (a function from
  node ids to node states); invariants are specified on system states;
* the **global state** ``(L, I)`` — the system state plus the network state
  ``I``, the multiset of in-flight messages.

Global model checking explores global states; LMC materialises system states
only temporarily, for invariant checking.  Both containers are immutable and
content-hashable.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, Tuple

from repro.model.hashing import content_hash
from repro.model.multiset import FrozenMultiset
from repro.model.types import Message, NodeId


class SystemState:
    """The local states of all nodes: the paper's ``L ⊆ N × S``.

    Stored as a tuple of ``(node_id, state)`` pairs sorted by node id, so two
    system states over the same nodes are equal exactly when every node's
    local state is equal.
    """

    __slots__ = ("_entries", "_index", "_hash")

    def __init__(self, entries: Dict[NodeId, Any] | Tuple[Tuple[NodeId, Any], ...]):
        if isinstance(entries, dict):
            pairs = tuple(sorted(entries.items()))
        else:
            pairs = tuple(sorted(entries))
        node_ids = [node for node, _ in pairs]
        if len(set(node_ids)) != len(node_ids):
            raise ValueError(f"duplicate node ids in system state: {node_ids}")
        self._entries = pairs
        self._index = {node: state for node, state in pairs}
        self._hash: int | None = None

    # -- accessors ----------------------------------------------------------

    @property
    def node_ids(self) -> Tuple[NodeId, ...]:
        """All node ids, ascending."""
        return tuple(node for node, _ in self._entries)

    def get(self, node: NodeId) -> Any:
        """Local state of ``node``; raises :class:`KeyError` if unknown."""
        return self._index[node]

    def items(self) -> Tuple[Tuple[NodeId, Any], ...]:
        """``(node_id, state)`` pairs, ascending by node id."""
        return self._entries

    def states(self) -> Tuple[Any, ...]:
        """Node states in node-id order."""
        return tuple(state for _, state in self._entries)

    def __iter__(self) -> Iterator[Tuple[NodeId, Any]]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    # -- functional update ----------------------------------------------------

    def replace(self, node: NodeId, state: Any) -> "SystemState":
        """New system state with ``node``'s local state replaced."""
        if node not in self._index:
            raise KeyError(node)
        return SystemState(
            tuple((n, state if n == node else s) for n, s in self._entries)
        )

    # -- identity ---------------------------------------------------------------

    def __eq__(self, other: Any) -> bool:
        if not isinstance(other, SystemState):
            return NotImplemented
        return self._entries == other._entries

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = content_hash(self._entries)
        return self._hash

    def content_hash(self) -> int:
        """Stable content hash (identical to ``hash`` but explicit)."""
        return hash(self)

    def __repr__(self) -> str:
        inner = ", ".join(f"{node}: {state!r}" for node, state in self._entries)
        return f"SystemState({{{inner}}})"


class GlobalState:
    """A global state ``(L, I)``: system state plus in-flight messages."""

    __slots__ = ("system", "network", "_hash")

    def __init__(self, system: SystemState, network: FrozenMultiset[Message]):
        self.system = system
        self.network = network
        self._hash: int | None = None

    def deliver(self, message: Message, new_state: Any, sends: Tuple[Message, ...]) -> "GlobalState":
        """Successor global state after delivering ``message`` (handler ``H_M``).

        The delivered message is removed from the network and the handler's
        sends are inserted — the consuming semantics of Fig. 5.
        """
        return GlobalState(
            self.system.replace(message.dest, new_state),
            self.network.remove(message).add_all(sends),
        )

    def run_internal(self, node: NodeId, new_state: Any, sends: Tuple[Message, ...]) -> "GlobalState":
        """Successor global state after an internal action on ``node`` (``H_A``)."""
        return GlobalState(
            self.system.replace(node, new_state),
            self.network.add_all(sends),
        )

    def __eq__(self, other: Any) -> bool:
        if not isinstance(other, GlobalState):
            return NotImplemented
        return self.system == other.system and self.network == other.network

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((hash(self.system), hash(self.network)))
        return self._hash

    def __repr__(self) -> str:
        return f"GlobalState(system={self.system!r}, network={self.network!r})"
