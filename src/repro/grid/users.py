"""Grid users and groups.

Users belong to a home administrative domain but — the point of a datagrid —
can be granted access to collections and resources owned by *other* domains
(§1: "Users can view and use the resources of users from other organizations
given appropriate access permissions").
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, FrozenSet, Set

from repro.errors import GridError

__all__ = ["User", "UserRegistry"]


@dataclass(frozen=True)
class User:
    """A grid user identity: ``name@domain`` plus group memberships."""

    name: str
    domain: str
    groups: FrozenSet[str] = frozenset()

    @functools.cached_property
    def qualified_name(self) -> str:
        """The globally unique ``name@domain`` form, built once per user
        so every record of the user's shares one string."""
        return f"{self.name}@{self.domain}"

    @functools.cached_property
    def principal_keys(self) -> FrozenSet[str]:
        """The ACL principals that speak for this user: the qualified
        name, the wildcard ``*`` and one ``group:<name>`` per group.

        Built once per user (the identity is immutable) and kept outside
        the dataclass fields, so equality and hashing are unchanged.
        """
        return frozenset((self.qualified_name, "*",
                          *(f"group:{group}" for group in self.groups)))

    def __str__(self) -> str:
        return self.qualified_name


class UserRegistry:
    """All users known to one datagrid."""

    def __init__(self) -> None:
        self._users: Dict[str, User] = {}
        self._groups: Dict[str, Set[str]] = {}

    def register(self, name: str, domain: str,
                 groups: Set[str] = frozenset()) -> User:
        """Add a user; rejects duplicate qualified names."""
        user = User(name=name, domain=domain, groups=frozenset(groups))
        key = user.qualified_name
        if key in self._users:
            raise GridError(f"user {key!r} already registered")
        self._users[key] = user
        for group in user.groups:
            self._groups.setdefault(group, set()).add(key)
        return user

    def get(self, qualified_name: str) -> User:
        """Look up a user by ``name@domain``."""
        try:
            return self._users[qualified_name]
        except KeyError:
            raise GridError(f"unknown user {qualified_name!r}") from None

    def members(self, group: str) -> FrozenSet[str]:
        """Qualified names of a group's members."""
        return frozenset(self._groups.get(group, ()))

    def __contains__(self, qualified_name: str) -> bool:
        return qualified_name in self._users

    def __len__(self) -> int:
        return len(self._users)
