"""Tests for the name mapping procedure (paper Sec. 5.4)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.context import ContextPair
from repro.core.mapping import (
    ForwardName,
    Leaf,
    MappingFault,
    RemoteLink,
    ResolvedObject,
    ResolvedParent,
    SubContext,
    map_name,
)
from repro.core.names import split_components
from repro.kernel.messages import ReplyCode
from repro.kernel.pids import Pid


class DictSpace:
    """A toy hierarchical name space: nested dicts, leaves are strings,
    RemoteLink values are cross-server pointers."""

    def __init__(self, tree, contexts=None):
        self.tree = tree
        self.contexts = contexts or {0: tree}

    def root(self, context_id):
        return self.contexts.get(context_id)

    def lookup(self, context_ref, component):
        if not isinstance(context_ref, dict):
            return None
        entry = context_ref.get(component)
        if entry is None:
            return None
        if isinstance(entry, dict):
            return SubContext(entry)
        if isinstance(entry, RemoteLink):
            return entry
        return Leaf(entry)


REMOTE = ContextPair(Pid.make(9, 9), 0x42)


@pytest.fixture
def space():
    return DictSpace({
        b"users": {
            b"mann": {
                b"naming.mss": "file:naming",
                b"papers": {b"v.tex": "file:v"},
            },
            b"cheriton": RemoteLink(REMOTE),
        },
        b"readme": "file:readme",
    })


class TestResolution:
    def test_resolves_nested_leaf(self, space):
        outcome = map_name(space, 0, b"users/mann/naming.mss", 0)
        assert isinstance(outcome, ResolvedObject)
        assert outcome.ref == "file:naming"
        assert not outcome.is_context
        assert outcome.component == b"naming.mss"

    def test_resolves_context(self, space):
        outcome = map_name(space, 0, b"users/mann", 0)
        assert isinstance(outcome, ResolvedObject)
        assert outcome.is_context
        assert outcome.ref is space.tree[b"users"][b"mann"]

    def test_empty_name_denotes_the_context_itself(self, space):
        outcome = map_name(space, 0, b"", 0)
        assert isinstance(outcome, ResolvedObject)
        assert outcome.is_context and outcome.ref is space.tree

    def test_starts_at_the_given_index(self, space):
        name = b"[home]users/mann"
        outcome = map_name(space, 0, name, 6)
        assert isinstance(outcome, ResolvedObject)
        assert outcome.is_context

    def test_interpretation_starts_in_the_named_context(self):
        inner = {b"x": "leaf"}
        space = DictSpace({b"a": inner}, contexts={0: {b"a": inner}, 5: inner})
        outcome = map_name(space, 5, b"x", 0)
        assert isinstance(outcome, ResolvedObject)
        assert outcome.ref == "leaf"

    def test_trailing_separators_ignored(self, space):
        outcome = map_name(space, 0, b"users/mann/", 0)
        assert isinstance(outcome, ResolvedObject)
        assert outcome.is_context


class TestForwarding:
    def test_remote_link_forwards_with_updated_index(self, space):
        name = b"users/cheriton/naming.mss"
        outcome = map_name(space, 0, name, 0)
        assert isinstance(outcome, ForwardName)
        assert outcome.pair == REMOTE
        # "the name index field ... updated to point to the first character
        # of the name not yet parsed"
        assert name[outcome.index:] == b"/naming.mss"

    def test_final_component_link_also_forwards(self, space):
        outcome = map_name(space, 0, b"users/cheriton", 0)
        assert isinstance(outcome, ForwardName)
        assert outcome.pair == REMOTE
        assert outcome.index == len(b"users/cheriton")


class TestFaults:
    def test_unknown_component_not_found(self, space):
        outcome = map_name(space, 0, b"users/nobody/x", 0)
        assert isinstance(outcome, MappingFault)
        assert outcome.code is ReplyCode.NOT_FOUND
        assert outcome.not_found

    def test_invalid_context_id(self, space):
        outcome = map_name(space, 0x77, b"anything", 0)
        assert isinstance(outcome, MappingFault)
        assert outcome.code is ReplyCode.INVALID_CONTEXT

    def test_leaf_in_the_middle_is_not_a_context(self, space):
        outcome = map_name(space, 0, b"readme/inside", 0)
        assert isinstance(outcome, MappingFault)
        assert outcome.code is ReplyCode.NOT_A_CONTEXT


class TestParentResolution:
    def test_unbound_final_component_yields_parent(self, space):
        outcome = map_name(space, 0, b"users/mann/new.txt", 0,
                           want_parent=True)
        assert isinstance(outcome, ResolvedParent)
        assert outcome.parent_ref is space.tree[b"users"][b"mann"]
        assert outcome.component == b"new.txt"

    def test_bound_final_component_still_yields_parent(self, space):
        outcome = map_name(space, 0, b"users/mann/naming.mss", 0,
                           want_parent=True)
        assert isinstance(outcome, ResolvedParent)
        assert outcome.component == b"naming.mss"

    def test_parent_walk_still_forwards_across_links(self, space):
        outcome = map_name(space, 0, b"users/cheriton/sub/new.txt", 0,
                           want_parent=True)
        assert isinstance(outcome, ForwardName)
        assert outcome.pair == REMOTE

    def test_missing_intermediate_still_faults(self, space):
        outcome = map_name(space, 0, b"nope/deeper/new.txt", 0,
                           want_parent=True)
        assert isinstance(outcome, MappingFault)
        assert outcome.code is ReplyCode.NOT_FOUND

    def test_empty_name_cannot_be_created(self, space):
        outcome = map_name(space, 0, b"", 0, want_parent=True)
        assert isinstance(outcome, MappingFault)
        assert outcome.code is ReplyCode.BAD_NAME

    def test_single_component_parent_is_the_root(self, space):
        outcome = map_name(space, 0, b"newfile", 0, want_parent=True)
        assert isinstance(outcome, ResolvedParent)
        assert outcome.parent_ref is space.tree


# ------------------------------------------------- the single-scan walk


def reference_walk(space, context_id, name, index, want_parent, observer):
    """Sec. 5.4 spelled out over :func:`split_components`: the walk
    ``map_name`` must match outcome for outcome and step for step."""
    current = space.root(context_id)
    if current is None:
        return MappingFault(ReplyCode.INVALID_CONTEXT)
    pieces = split_components(name, index)
    parent, component, position = None, b"", index
    for number, piece in enumerate(pieces):
        # A component holds no "/", so its first occurrence at or after
        # ``position`` is the component itself.
        stop = name.index(piece, position) + len(piece)
        position = stop
        final = number == len(pieces) - 1
        if want_parent and final:
            observer(piece, "parent-slot")
            return ResolvedParent(current, piece, stop)
        entry = space.lookup(current, piece)
        if entry is None:
            observer(piece, "missing")
            return MappingFault(ReplyCode.NOT_FOUND)
        if isinstance(entry, RemoteLink):
            observer(piece, "remote-link")
            return ForwardName(entry.pair, stop)
        if isinstance(entry, Leaf):
            if not final:
                observer(piece, "not-a-context")
                return MappingFault(ReplyCode.NOT_A_CONTEXT)
            observer(piece, "leaf")
            return ResolvedObject(entry.ref, False, current, piece, stop)
        observer(piece, "context")
        parent, current, component, index = current, entry.ref, piece, stop
    if want_parent:
        if parent is None:
            return MappingFault(ReplyCode.BAD_NAME)
        return ResolvedParent(parent, component, index)
    return ResolvedObject(current, True, parent, component, index)


def _tree(depth):
    """Contexts ``a`` and ``r`` (empty), leaf ``b``, remote link ``c``."""
    return {b"a": _tree(depth - 1) if depth else "leaf-a", b"b": "leaf-b",
            b"c": RemoteLink(REMOTE), b"r": {}}


_WALK_TREE = _tree(4)
WALK_SPACE = DictSpace(_WALK_TREE, contexts={0: _WALK_TREE,
                                             1: _WALK_TREE[b"a"]})

_RUNS = st.integers(min_value=1, max_value=3).map(lambda n: b"/" * n)


@st.composite
def walk_names(draw):
    """Names over the tree's components plus an unbound ``x``: repeated,
    leading and trailing separators, leaves and links mid-name."""
    pieces = draw(st.lists(st.sampled_from([b"a", b"b", b"c", b"r", b"x",
                                            b"ab"]), max_size=6))
    name = draw(st.sampled_from([b"", b"/", b"//"]))
    for number, piece in enumerate(pieces):
        if number:
            name += draw(_RUNS)
        name += piece
    name += draw(st.sampled_from([b"", b"/", b"///"]))
    return name, draw(st.integers(min_value=0, max_value=len(name)))


def _same(left, right):
    if isinstance(left, MappingFault):
        return isinstance(right, MappingFault) and left.code is right.code
    return left == right


class TestSingleScanWalk:
    @settings(max_examples=400)
    @given(walk_names(), st.sampled_from([0, 1, 7]), st.booleans())
    def test_matches_the_component_list_walk(self, name_index, context_id,
                                             want_parent):
        name, index = name_index
        steps, expected_steps = [], []
        outcome = map_name(WALK_SPACE, context_id, name, index,
                           want_parent=want_parent,
                           observer=lambda *step: steps.append(step))
        expected = reference_walk(WALK_SPACE, context_id, name, index,
                                  want_parent,
                                  lambda *step: expected_steps.append(step))
        assert _same(outcome, expected), (outcome, expected)
        assert steps == expected_steps
        # No observer: the same outcome, and nothing else changes.
        assert _same(map_name(WALK_SPACE, context_id, name, index,
                              want_parent=want_parent), expected)
