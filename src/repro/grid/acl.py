"""Access control for the logical namespace.

The SRB model: every collection and data object carries an access control
list granting per-user (or per-group) permissions. Permissions are ordered —
OWN implies WRITE implies READ — matching how datagrid ACLs behave in
practice.
"""

from __future__ import annotations

import enum
from typing import Dict, Iterable, List, Optional

from repro.errors import PermissionDenied
from repro.grid.users import User

__all__ = ["Permission", "AccessControlList", "readable"]


class Permission(enum.IntEnum):
    """Ordered permission levels; higher implies lower."""

    NONE = 0
    READ = 1
    WRITE = 2
    OWN = 3


class AccessControlList:
    """Per-principal permission levels with group support.

    Principals are qualified user names (``user@domain``), group names
    prefixed ``group:``, or the wildcard ``*`` (every user). The effective
    level for a user is the maximum over their direct entry, their groups'
    entries, and the wildcard entry.
    """

    def __init__(self, owner: Optional[User] = None) -> None:
        self._entries: Dict[str, Permission] = {}
        if owner is not None:
            self._entries[owner.qualified_name] = Permission.OWN

    def grant(self, principal: str, permission: Permission) -> None:
        """Set ``principal``'s level (use ``group:<name>`` for groups).

        Granting NONE removes the entry, so every entry kept grants at
        least READ (:func:`readable` relies on it).
        """
        if permission <= Permission.NONE:
            self._entries.pop(principal, None)
        else:
            self._entries[principal] = permission

    def revoke(self, principal: str) -> None:
        """Remove ``principal``'s entry entirely."""
        self._entries.pop(principal, None)

    def level_for(self, user: User) -> Permission:
        """Effective permission level for ``user``."""
        level = self._entries.get(user.qualified_name, Permission.NONE)
        wildcard = self._entries.get("*", Permission.NONE)
        if wildcard > level:
            level = wildcard
        for group in user.groups:
            group_level = self._entries.get(f"group:{group}", Permission.NONE)
            if group_level > level:
                level = group_level
        return level

    def allows(self, user: User, required: Permission) -> bool:
        """True if ``user`` holds at least ``required``."""
        return self.level_for(user) >= required

    def require(self, user: User, required: Permission, what: str) -> None:
        """Raise :class:`PermissionDenied` unless ``user`` holds ``required``."""
        if not self.allows(user, required):
            raise PermissionDenied(
                f"{user} needs {required.name} on {what} "
                f"(has {self.level_for(user).name})")

    def entries(self) -> Dict[str, Permission]:
        """A copy of all explicit entries."""
        return dict(self._entries)


def readable(user: User, nodes: Iterable, required: Permission) -> List:
    """The nodes on which ``user`` holds at least ``required``, in order.

    The same filter as ``node.acl.allows(user, required)`` per node. For
    READ, the level queries ask for, it is one pass over the user's
    precomputed :attr:`~repro.grid.users.User.principal_keys`: every
    explicit entry grants at least READ, so a node is readable exactly
    when one of those keys has an entry on it.
    """
    if required == Permission.READ:
        keys = user.principal_keys
        return [node for node in nodes
                if not keys.isdisjoint(node.acl._entries)]
    return [node for node in nodes if node.acl.allows(user, required)]
