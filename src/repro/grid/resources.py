"""Logical storage resources.

"Each SRB storage server that runs on top of a physical storage system maps
that particular physical storage system into the data grid logical resource
namespace" (§1). A :class:`LogicalResource` names one or more registered
physical systems; users address only the logical name, and the grid picks a
member for each write — that indirection is what lets administrators migrate
physical systems without touching applications.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.errors import LogicalResourceError, ResourceOffline
from repro.storage.resource import PhysicalStorageResource

__all__ = ["RegisteredResource", "LogicalResource", "ResourceRegistry"]


@dataclass(frozen=True)
class RegisteredResource:
    """A physical storage system mapped into the grid at one domain."""

    domain: str
    physical: PhysicalStorageResource

    @property
    def name(self) -> str:
        return self.physical.name


class LogicalResource:
    """A named pool of registered physical resources.

    Writes pick a member by first-fit-with-most-free-space, which keeps the
    pool balanced and is deterministic.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._members: List[RegisteredResource] = []

    @property
    def members(self) -> List[RegisteredResource]:
        return list(self._members)

    def add_member(self, member: RegisteredResource) -> None:
        """Add a registered physical system to the pool."""
        if any(m.name == member.name for m in self._members):
            raise LogicalResourceError(
                f"{member.name!r} is already a member of {self.name!r}")
        self._members.append(member)

    def remove_member(self, physical_name: str) -> None:
        """Remove a member by physical name (raises if absent)."""
        before = len(self._members)
        self._members = [m for m in self._members if m.name != physical_name]
        if len(self._members) == before:
            raise LogicalResourceError(
                f"{physical_name!r} is not a member of {self.name!r}")

    def select_for_write(self, nbytes: float) -> RegisteredResource:
        """Choose the online member with the most free space that fits.

        An all-members-offline pool raises the *retryable*
        :class:`~repro.errors.ResourceOffline` (an outage ends); capacity
        exhaustion stays a durable :class:`LogicalResourceError`.
        """
        candidates = [m for m in self._members
                      if m.physical.online and m.physical.free_bytes >= nbytes]
        if not candidates:
            if self._members and not any(m.physical.online
                                         for m in self._members):
                raise ResourceOffline(
                    f"every member of {self.name!r} is offline")
            raise LogicalResourceError(
                f"no member of {self.name!r} can hold {nbytes:.0f} B")
        return max(candidates, key=lambda m: (m.physical.free_bytes, m.name))

    def __len__(self) -> int:
        return len(self._members)


class ResourceRegistry:
    """All logical resources and physical registrations in one datagrid."""

    def __init__(self) -> None:
        self._logical: Dict[str, LogicalResource] = {}
        self._physical: Dict[str, RegisteredResource] = {}

    def register(self, logical_name: str, domain: str,
                 physical: PhysicalStorageResource) -> LogicalResource:
        """Map ``physical`` (at ``domain``) into logical resource ``logical_name``."""
        if physical.name in self._physical:
            raise LogicalResourceError(
                f"physical resource {physical.name!r} already registered")
        registered = RegisteredResource(domain=domain, physical=physical)
        self._physical[physical.name] = registered
        logical = self._logical.get(logical_name)
        if logical is None:
            logical = LogicalResource(logical_name)
            self._logical[logical_name] = logical
        logical.add_member(registered)
        return logical

    def logical(self, name: str) -> LogicalResource:
        """The logical resource called ``name`` (raises if unknown)."""
        try:
            return self._logical[name]
        except KeyError:
            raise LogicalResourceError(f"unknown logical resource {name!r}") from None

    def physical(self, name: str) -> RegisteredResource:
        """The registration for physical resource ``name``."""
        try:
            return self._physical[name]
        except KeyError:
            raise LogicalResourceError(f"unknown physical resource {name!r}") from None

    def physical_names(self) -> List[str]:
        """Physical resource names, sorted."""
        return sorted(self._physical)

    def __contains__(self, logical_name: str) -> bool:
        return logical_name in self._logical
