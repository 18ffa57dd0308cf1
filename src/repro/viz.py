"""Graphviz (DOT) export of exploration structures.

Debugging a model checker means looking at graphs: the per-node predecessor
DAG LMC builds (which sequences can reach a state? why did soundness reject
a combination?) and the witness trace of a confirmed bug (who sent what to
whom, in the found total order).  This module renders both as plain DOT
text — no graphviz dependency, just strings you can pipe into ``dot -Tsvg``
or paste into an online renderer.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.records import LocalStateSpace, NodeStateRecord
from repro.model.events import (
    DeliveryEvent,
    DropEvent,
    DuplicateEvent,
    InternalEvent,
)
from repro.reports import BugReport


def _escape(text: str, limit: int = 60) -> str:
    flattened = text.replace("\\", "\\\\").replace('"', '\\"')
    if len(flattened) > limit:
        flattened = flattened[: limit - 1] + "…"
    return flattened


def predecessor_dag(
    space: LocalStateSpace,
    node: Optional[int] = None,
    describe_state=repr,
) -> str:
    """DOT rendering of the predecessor structure of ``LS`` (one or all nodes).

    Nodes of the graph are visited node states (seed states doubled-boxed,
    discarded states grayed); edges are predecessor links labelled with the
    event that produced them.  Self-referencing links — ignored by soundness
    verification — are drawn dashed.
    """
    node_ids = [node] if node is not None else list(space.node_ids)
    lines: List[str] = [
        "digraph predecessors {",
        "  rankdir=LR;",
        '  node [shape=box, fontsize=10, fontname="monospace"];',
    ]
    for node_id in node_ids:
        lines.append(f"  subgraph cluster_{node_id} {{")
        lines.append(f'    label="node {node_id}";')
        for record in space.store(node_id):
            name = f"n{node_id}_{record.index}"
            label = _escape(describe_state(record.state))
            attrs = [f'label="{record.index}: {label}"']
            if record.seed:
                attrs.append("peripheries=2")
            if record.discarded:
                attrs.append('style=filled, fillcolor="gray85"')
            lines.append(f"    {name} [{', '.join(attrs)}];")
        lines.append("  }")
    for node_id in node_ids:
        store = space.store(node_id)
        for record in store:
            for prev, step in store.links_of(record):
                if prev < 0:
                    continue
                label = _escape(step.event.describe(), limit=40)
                style = ", style=dashed" if prev == record.index else ""
                lines.append(
                    f'  n{node_id}_{prev} -> n{node_id}_{record.index} '
                    f'[label="{label}", fontsize=8{style}];'
                )
    lines.append("}")
    return "\n".join(lines)


def witness_sequence_diagram(bug: BugReport) -> str:
    """DOT rendering of a bug's witness trace as a message-flow graph.

    Each executed event becomes a numbered graph node placed in its
    process's column; message sends connect the sender's event to the
    delivery event.  The result reads like a sequence diagram of the fatal
    interleaving.
    """
    lines: List[str] = [
        "digraph witness {",
        "  rankdir=TB;",
        '  node [shape=box, fontsize=10, fontname="monospace"];',
    ]
    nodes_seen = sorted(
        {event.node for event in bug.trace}
        | {node for node, _state in bug.initial_state.items()}
    )
    for node in nodes_seen:
        lines.append(f"  subgraph cluster_p{node} {{")
        lines.append(f'    label="process {node}";')
        previous = None
        for index, event in enumerate(bug.trace, 1):
            if event.node != node:
                continue
            name = f"e{index}"
            if isinstance(event, InternalEvent):
                label = f"{index}. {event.action.name}"
            elif isinstance(event, DeliveryEvent):
                label = f"{index}. recv {type(event.message.payload).__name__}"
            elif isinstance(event, DropEvent):
                label = f"{index}. drop {type(event.message.payload).__name__}"
            elif isinstance(event, DuplicateEvent):
                label = (
                    f"{index}. redeliver {type(event.message.payload).__name__}"
                )
            else:
                # Fault events (docs/FAULTS.md): crash/restart markers.
                label = f"{index}. {event.describe()}"
            lines.append(f'    {name} [label="{_escape(label)}"];')
            if previous is not None:
                lines.append(f"    {previous} -> {name} [style=dotted];")
            previous = name
        lines.append("  }")
    # message edges: a delivery is connected to the most recent earlier
    # event on the sender's column (the event that plausibly sent it)
    for index, event in enumerate(bug.trace, 1):
        if not isinstance(event, DeliveryEvent):
            continue
        sender = event.message.src
        for earlier in range(index - 1, 0, -1):
            candidate = bug.trace[earlier - 1]
            if candidate.node == sender:
                payload = type(event.message.payload).__name__
                lines.append(
                    f'  e{earlier} -> e{index} '
                    f'[label="{_escape(payload, 24)}", color=blue, fontsize=8];'
                )
                break
    lines.append("}")
    return "\n".join(lines)
