"""Serialization of bug reports: a regression corpus for found bugs.

Online model checking produces witnesses worth keeping: a bug found at
3 a.m. against a live system should become a permanent regression fixture.
This module round-trips :class:`~repro.reports.BugReport` objects through
plain JSON-compatible dictionaries.

Model values (states, payloads) are frozen dataclasses over a closed
vocabulary (primitives, tuples, frozensets, nested dataclasses), so they
serialize structurally with a class tag and deserialize through a
*registry* of allowed dataclasses — the protocol module(s) under test.
Deserialization never executes arbitrary content: unknown class tags are
an error, not an import.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any, Dict, Iterable, List, Optional, Tuple, Type

from repro.fsio import atomic_write_json
from repro.model.events import EVENT_TYPES, Event
from repro.model.system_state import SystemState
from repro.model.types import Action, Message
from repro.reports import BugReport


class UnknownClassTag(ValueError):
    """A serialized value names a dataclass missing from the registry."""


# -- versioned envelopes ---------------------------------------------------------
#
# Every durable artifact this library writes — the bug corpus here, the
# checker checkpoints in :mod:`repro.core.checkpoint` — shares one envelope
# discipline: a ``format`` tag naming the artifact kind, an integer
# ``version``, and an atomic whole-file replace.  Factoring it keeps the
# loaders' refusal behaviour (wrong kind, wrong version) identical.


def save_envelope(
    path: str, kind: str, version: int, payload: Dict[str, Any], indent: Optional[int] = 2
) -> None:
    """Atomically write ``payload`` under a ``{format, version}`` envelope."""
    envelope = dict(payload)
    envelope["format"] = kind
    envelope["version"] = version
    atomic_write_json(path, envelope, indent=indent, sort_keys=True)


def load_envelope(path: str, kind: str, version: int) -> Dict[str, Any]:
    """Read an envelope written by :func:`save_envelope`, strictly.

    A mismatched kind or version raises ``ValueError`` — version-1 readers
    must refuse future formats loudly rather than misparse them.  Files
    from before the ``format`` tag existed (legacy bug corpora) carry no
    tag and are accepted on version alone.
    """
    with open(path) as handle:
        envelope = json.load(handle)
    if not isinstance(envelope, dict):
        raise ValueError(f"{path}: not a JSON object")
    found = envelope.get("format")
    if found is not None and found != kind:
        raise ValueError(f"{path}: expected a {kind!r} payload, found {found!r}")
    if envelope.get("version") != version:
        raise ValueError(
            f"unsupported {kind} version {envelope.get('version')!r} "
            f"(this reader understands version {version})"
        )
    return envelope


class ClassRegistry:
    """The closed set of dataclasses a corpus may contain.

    Build one from the protocol modules whose states and payloads appear in
    your reports: ``ClassRegistry.from_modules(repro.protocols.paxos.state,
    repro.protocols.paxos.messages)``.
    """

    def __init__(self, classes: Iterable[Type] = ()):
        self._by_tag: Dict[str, Type] = {}
        for cls in classes:
            self.add(cls)

    def add(self, cls: Type) -> None:
        """Register one frozen dataclass."""
        if not dataclasses.is_dataclass(cls):
            raise TypeError(f"{cls!r} is not a dataclass")
        self._by_tag[cls.__qualname__] = cls

    @classmethod
    def from_modules(cls, *modules) -> "ClassRegistry":
        """Register every dataclass defined in the given modules."""
        registry = cls()
        for module in modules:
            for name in dir(module):
                obj = getattr(module, name)
                if (
                    isinstance(obj, type)
                    and dataclasses.is_dataclass(obj)
                    and obj.__module__ == module.__name__
                ):
                    registry.add(obj)
        return registry

    def resolve(self, tag: str) -> Type:
        """The dataclass registered under ``tag``."""
        try:
            return self._by_tag[tag]
        except KeyError:
            raise UnknownClassTag(f"class tag {tag!r} not in registry") from None


def registry_for_protocol(protocol: Any) -> ClassRegistry:
    """The class registry a protocol's states and payloads decode through.

    Packaged protocols (``repro.protocols.paxos.*``) keep their dataclasses
    in sibling modules (``state``, ``messages``), so the registry scans the
    defining module's whole package; flat protocols contribute just their
    own module.  :mod:`repro.model.types` is always included — crashed
    marker states and the message wrapper live there.  The set stays
    closed: only dataclasses *defined* in those modules resolve.
    """
    import importlib
    import pkgutil

    from repro.model import types as model_types

    module = importlib.import_module(type(protocol).__module__)
    modules = [module]
    if "." in module.__name__:
        package_name = module.__name__.rsplit(".", 1)[0]
        package = importlib.import_module(package_name)
        search_path = getattr(package, "__path__", None)
        if search_path is not None:
            modules.append(package)
            for info in pkgutil.iter_modules(search_path):
                modules.append(
                    importlib.import_module(f"{package_name}.{info.name}")
                )
    modules.append(model_types)
    seen = set()
    unique = []
    for candidate in modules:
        if candidate.__name__ not in seen:
            seen.add(candidate.__name__)
            unique.append(candidate)
    return ClassRegistry.from_modules(*unique)


# -- value encoding --------------------------------------------------------------


#: Per-class field-name cache for :func:`encode_value`.
#: ``dataclasses.fields`` re-derives the tuple on every call, and a
#: checkpoint snapshot encodes tens of thousands of dataclass instances
#: drawn from a handful of classes — the cache roughly halves encode time.
_FIELD_NAMES: Dict[type, Tuple[str, ...]] = {}


def _field_names(cls: type) -> Tuple[str, ...]:
    names = _FIELD_NAMES.get(cls)
    if names is None:
        names = tuple(field.name for field in dataclasses.fields(cls))
        _FIELD_NAMES[cls] = names
    return names


def encode_value(value: Any) -> Any:
    """Encode a model value into JSON-compatible structures."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return {"__float__": repr(value)}
    if isinstance(value, tuple):
        return {"__tuple__": [encode_value(item) for item in value]}
    if isinstance(value, frozenset):
        from repro.model.hashing import canonical_bytes

        items = sorted(value, key=canonical_bytes)
        return {"__frozenset__": [encode_value(item) for item in items]}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        cls = type(value)
        fields = {
            name: encode_value(getattr(value, name))
            for name in _field_names(cls)
        }
        return {"__dataclass__": cls.__qualname__, "fields": fields}
    raise TypeError(f"cannot encode model value of type {type(value).__name__}")


def decode_value(encoded: Any, registry: ClassRegistry) -> Any:
    """Decode a value produced by :func:`encode_value`."""
    if encoded is None or isinstance(encoded, (bool, int, str)):
        return encoded
    if isinstance(encoded, dict):
        if "__float__" in encoded:
            return float(encoded["__float__"])
        if "__tuple__" in encoded:
            return tuple(
                decode_value(item, registry) for item in encoded["__tuple__"]
            )
        if "__frozenset__" in encoded:
            return frozenset(
                decode_value(item, registry) for item in encoded["__frozenset__"]
            )
        if "__dataclass__" in encoded:
            cls = registry.resolve(encoded["__dataclass__"])
            fields = {
                name: decode_value(item, registry)
                for name, item in encoded["fields"].items()
            }
            return cls(**fields)
    raise ValueError(f"malformed encoded value: {encoded!r}")


# -- events and states ---------------------------------------------------------------


def encode_event(event: Event) -> Dict[str, Any]:
    """Encode any event as its ``KIND`` plus its one field, flattened by
    shape: a message's ``dest``/``src``/``payload``, an action's
    ``node``/``name``/``payload``, or a bare ``node``."""
    cls = type(event)
    kind = getattr(cls, "KIND", None)
    if EVENT_TYPES.get(kind) is not cls:
        raise TypeError(f"unknown event type {cls.__name__}")
    (shape,) = _field_names(cls)
    if shape == "message":
        message = event.message
        return {
            "kind": kind,
            "dest": message.dest,
            "src": message.src,
            "payload": encode_value(message.payload),
        }
    if shape == "action":
        action = event.action
        return {
            "kind": kind,
            "node": action.node,
            "name": action.name,
            "payload": encode_value(action.payload),
        }
    return {"kind": kind, "node": event.node}


def decode_event(encoded: Dict[str, Any], registry: ClassRegistry) -> Event:
    """Decode an event produced by :func:`encode_event`."""
    cls = EVENT_TYPES.get(encoded.get("kind"))
    if cls is None:
        raise ValueError(f"unknown event kind {encoded.get('kind')!r}")
    (shape,) = _field_names(cls)
    if shape == "node":
        return cls(encoded["node"])
    payload = decode_value(encoded["payload"], registry)
    if shape == "message":
        return cls(Message(dest=encoded["dest"], src=encoded["src"], payload=payload))
    return cls(Action(node=encoded["node"], name=encoded["name"], payload=payload))


def encode_system_state(system: SystemState) -> List[Tuple[int, Any]]:
    """Encode a system state as ``[node, state]`` pairs."""
    return [[node, encode_value(state)] for node, state in system.items()]


def decode_system_state(
    encoded: List[Tuple[int, Any]], registry: ClassRegistry
) -> SystemState:
    """Decode a system state produced by :func:`encode_system_state`."""
    return SystemState(
        {node: decode_value(state, registry) for node, state in encoded}
    )


# -- bug reports ----------------------------------------------------------------------


def bug_to_dict(bug: BugReport) -> Dict[str, Any]:
    """Encode a bug report into a JSON-compatible dictionary."""
    return {
        "kind": bug.kind,
        "description": bug.description,
        "violating_state": encode_system_state(bug.violating_state),
        "initial_state": encode_system_state(bug.initial_state),
        "trace": [encode_event(event) for event in bug.trace],
    }


def bug_from_dict(data: Dict[str, Any], registry: ClassRegistry) -> BugReport:
    """Decode a bug report produced by :func:`bug_to_dict`."""
    return BugReport(
        kind=data["kind"],
        description=data["description"],
        violating_state=decode_system_state(data["violating_state"], registry),
        initial_state=decode_system_state(data["initial_state"], registry),
        trace=tuple(decode_event(item, registry) for item in data["trace"]),
    )


def save_bugs(path: str, bugs: Iterable[BugReport]) -> None:
    """Write a bug corpus to ``path`` as JSON, atomically.

    The corpus is a regression archive — a crash mid-dump must never
    truncate it.  Durability comes from the shared
    :func:`repro.fsio.atomic_write_json` helper (same-directory temp file,
    fsync, then :func:`os.replace` — atomic on POSIX within one
    filesystem): readers see either the complete old corpus or the complete
    new one, never a prefix.
    """
    save_envelope(
        path, "bug-corpus", 1, {"bugs": [bug_to_dict(bug) for bug in bugs]}
    )


def load_bugs(path: str, registry: ClassRegistry) -> List[BugReport]:
    """Read a bug corpus written by :func:`save_bugs`."""
    payload = load_envelope(path, "bug-corpus", 1)
    return [bug_from_dict(item, registry) for item in payload["bugs"]]
