"""Property-based tests: storage accounting machine and ACL laws."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.errors import CapacityExceeded, StorageError
from repro.grid import AccessControlList, Permission, User
from repro.grid.acl import readable
from repro.storage import GB, PhysicalStorageResource, StorageClass

# --------------------------------------------------------------------------
# Storage accounting machine
# --------------------------------------------------------------------------

object_ids = st.sampled_from([f"obj-{index}" for index in range(8)])
sizes = st.floats(min_value=0.0, max_value=0.4 * GB, allow_nan=False)


class StorageMachine(RuleBasedStateMachine):
    """Random writes/reads/deletes against a capacity-checked model."""

    CAPACITY = float(GB)

    def __init__(self):
        super().__init__()
        self.disk = PhysicalStorageResource(
            "disk", StorageClass.DISK, self.CAPACITY)
        self.model = {}

    @rule(object_id=object_ids, size=sizes)
    def write(self, object_id, size):
        fits = (sum(self.model.values()) + size) <= self.CAPACITY
        if object_id in self.model:
            with pytest.raises(StorageError):
                self.disk.write(object_id, size)
        elif not fits:
            with pytest.raises(CapacityExceeded):
                self.disk.write(object_id, size)
        else:
            duration = self.disk.write(object_id, size)
            assert duration > 0
            self.model[object_id] = size

    @rule(object_id=object_ids)
    def read(self, object_id):
        if object_id in self.model:
            assert self.disk.read(object_id) > 0
        else:
            with pytest.raises(StorageError):
                self.disk.read(object_id)

    @rule(object_id=object_ids)
    def delete(self, object_id):
        if object_id in self.model:
            self.disk.delete(object_id)
            del self.model[object_id]
        else:
            with pytest.raises(StorageError):
                self.disk.delete(object_id)

    @invariant()
    def accounting_matches_model(self):
        # Exact: the model dict has the disk's insertion order, and the
        # disk's total is the insertion-order sum.
        assert self.disk.used_bytes == sum(self.model.values())
        assert self.disk.free_bytes == (
            self.CAPACITY - sum(self.model.values()))
        for object_id, size in self.model.items():
            assert self.disk.holds(object_id)
            assert self.disk.size_of(object_id) == size

    @invariant()
    def stats_monotone(self):
        assert self.disk.stats.bytes_written >= self.disk.used_bytes - 1e-6


StorageMachine.TestCase.settings = __import__("hypothesis").settings(
    max_examples=30, stateful_step_count=30, deadline=None)
TestStorageMachine = StorageMachine.TestCase


# --------------------------------------------------------------------------
# ACL laws
# --------------------------------------------------------------------------

principals = st.sampled_from(
    ["alice@sdsc", "bob@ucsd", "carol@ral", "group:scec", "group:lib", "*"])
levels = st.sampled_from(list(Permission))
group_sets = st.sets(st.sampled_from(["scec", "lib"]), max_size=2)


@st.composite
def acls(draw):
    acl = AccessControlList()
    for _ in range(draw(st.integers(0, 6))):
        acl.grant(draw(principals), draw(levels))
    return acl


@st.composite
def users(draw):
    name, domain = draw(st.sampled_from(
        [("alice", "sdsc"), ("bob", "ucsd"), ("carol", "ral")]))
    return User(name, domain, frozenset(draw(group_sets)))


@given(acls(), users())
def test_permission_implication_is_downward_closed(acl, user):
    """Holding a level implies holding every lower level."""
    level = acl.level_for(user)
    for required in Permission:
        assert acl.allows(user, required) == (level >= required)


@given(acls(), users(), levels)
def test_granting_directly_never_reduces_access(acl, user, level):
    before = acl.level_for(user)
    if level is Permission.NONE:
        return   # NONE removes the direct entry; groups may then differ
    acl.grant(user.qualified_name, level)
    assert acl.level_for(user) >= min(before, level)
    assert acl.level_for(user) >= level or acl.level_for(user) == before


@given(acls(), users())
def test_wildcard_grant_is_a_floor_for_everyone(acl, user):
    acl.grant("*", Permission.READ)
    assert acl.allows(user, Permission.READ)


@st.composite
def revoked_acls(draw):
    acl = draw(acls())
    for principal in draw(st.lists(principals, max_size=3)):
        acl.revoke(principal)
    return acl


class _Node:
    def __init__(self, acl):
        self.acl = acl


@given(st.lists(revoked_acls(), max_size=12), users(), levels)
def test_readable_equals_filtering_with_allows(acl_list, user, required):
    """The batch filter keeps exactly the nodes ``allows`` keeps, in order."""
    nodes = [_Node(acl) for acl in acl_list]
    expected = [node for node in nodes if node.acl.allows(user, required)]
    assert readable(user, nodes, required) == expected


@given(acls(), users())
def test_revoking_direct_entry_leaves_group_and_wildcard_paths(acl, user):
    acl.revoke(user.qualified_name)
    level = acl.level_for(user)
    # Whatever remains must come from groups or the wildcard.
    indirect = max(
        [acl.entries().get("*", Permission.NONE)]
        + [acl.entries().get(f"group:{group}", Permission.NONE)
           for group in user.groups])
    assert level == indirect
