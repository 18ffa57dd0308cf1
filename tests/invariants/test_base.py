"""Tests for the invariant framework."""

import pytest

from repro.invariants.base import (
    AllOf,
    DecomposableInvariant,
    Invariant,
    LocalInvariant,
    PredicateInvariant,
)
from repro.model.system_state import SystemState


class AlwaysTrue(Invariant):
    name = "always-true"

    def check(self, system):
        return True


class EvenSum(DecomposableInvariant):
    """Toy decomposable invariant: states project to themselves."""

    name = "even-sum"

    def local_projection(self, node, state):
        return state


class PositiveLocal(LocalInvariant):
    name = "positive"

    def check_local(self, node, state):
        return state > 0


def test_predicate_invariant_wraps_function():
    inv = PredicateInvariant("nonempty", lambda s: len(s) > 0)
    assert inv.check(SystemState({0: "a"}))
    assert inv.name == "nonempty"


def test_local_invariant_system_check_is_conjunction():
    inv = PositiveLocal()
    assert inv.check(SystemState({0: 1, 1: 2}))
    assert not inv.check(SystemState({0: 1, 1: -1}))


def test_local_invariant_violation_description_names_nodes():
    inv = PositiveLocal()
    text = inv.describe_violation(SystemState({0: 1, 1: -1, 2: -5}))
    assert "1" in text and "2" in text


def test_decomposable_default_conflict_is_two_distinct():
    inv = EvenSum()
    assert not inv.projections_conflict({0: "a"})
    assert not inv.projections_conflict({0: "a", 1: "a"})
    assert inv.projections_conflict({0: "a", 1: "b"})


def test_decomposable_check_is_derived_from_projection_and_conflict():
    class Recording(EvenSum):
        def projections_conflict(self, projections):
            self.asked = projections
            return super().projections_conflict(projections)

    inv = Recording()
    assert inv.check(SystemState({0: "a", 1: None, 2: "a"}))
    assert inv.asked == {0: "a", 2: "a"}
    assert not inv.check(SystemState({0: "a", 1: None, 2: "b"}))


def test_decomposable_is_pairwise_by_default():
    assert EvenSum().pairwise


def test_all_of_requires_members():
    with pytest.raises(ValueError):
        AllOf([])


def test_all_of_conjunction_and_description():
    inv = AllOf([AlwaysTrue(), PositiveLocal()])
    good = SystemState({0: 1})
    bad = SystemState({0: -1})
    assert inv.check(good)
    assert not inv.check(bad)
    assert "positive" in inv.describe_violation(bad)
    assert "holds" in inv.describe_violation(good)


def test_default_describe_violation_mentions_name():
    class Broken(Invariant):
        name = "my-inv"

        def check(self, system):
            return False

    assert "my-inv" in Broken().describe_violation(SystemState({0: 1}))
