"""Namespace events.

"A datagrid trigger is a mapping from any event in the logical data storage
namespace to a process initiated in the datagrid in response to such an
event. … An event could be any change in the datagrid namespace including
updates, inserts, and deletes. Datagrid triggers could be triggered before
or after events complete." (§2.2)

The DGMS publishes a :class:`NamespaceEvent` on this bus *before* and
*after* every mutating operation. Subscribers (the trigger manager, audit
tools) receive events synchronously, in subscription order — deliberately
so: the paper calls out that "different results might be produced based on
the order in which triggers defined by multiple users are processed for the
same event", and the ordering experiments need that behaviour to be real.
"""

from __future__ import annotations

import enum
from types import MappingProxyType
from typing import Callable, List, Mapping, NamedTuple, Optional

__all__ = ["EventKind", "EventPhase", "NamespaceEvent", "EventBus",
           "EMPTY_DETAIL"]

#: The default ``detail`` of the DGMS's event records: an empty mapping
#: that no listener can mutate (a shared ``{}`` would leak writes).
EMPTY_DETAIL: Mapping[str, object] = MappingProxyType({})


class EventKind(enum.Enum):
    """What changed in the namespace."""

    INSERT = "insert"            # new data object ingested
    UPDATE = "update"            # object overwritten / version bumped
    DELETE = "delete"            # object removed
    REPLICATE = "replicate"      # new replica added
    MIGRATE = "migrate"          # replica moved between resources
    METADATA = "metadata"        # user-defined metadata changed
    MOVE = "move"                # logical rename/move
    COLLECTION_CREATE = "collection_create"
    ACL_CHANGE = "acl_change"


class EventPhase(enum.Enum):
    """Whether the event is delivered before or after the operation runs."""

    BEFORE = "before"
    AFTER = "after"


class NamespaceEvent(NamedTuple):
    """One observed change to the logical namespace, built once and
    shared by every subscriber (so ``detail`` is read-only to all)."""

    kind: EventKind
    phase: EventPhase
    path: str
    time: float
    user: Optional[str] = None           # qualified acting-user name
    detail: Mapping[str, object] = EMPTY_DETAIL


#: Subscriber callback signature.
Subscriber = Callable[[NamespaceEvent], None]


class EventBus:
    """Synchronous publish/subscribe for namespace events."""

    def __init__(self) -> None:
        self._subscribers: List[Subscriber] = []

    def subscribe(self, subscriber: Subscriber) -> None:
        """Add a subscriber; it sees every subsequent event."""
        self._subscribers.append(subscriber)

    def unsubscribe(self, subscriber: Subscriber) -> None:
        """Remove a subscriber (no error if absent)."""
        try:
            self._subscribers.remove(subscriber)
        except ValueError:
            pass

    def publish(self, event: NamespaceEvent) -> None:
        """Deliver ``event`` to all subscribers, in subscription order.

        Delivery is synchronous and non-transactional: a subscriber that
        raises aborts delivery to later subscribers — exactly the kind of
        anomaly §2.2 flags as an open issue for non-transactional datagrids.
        """
        for subscriber in list(self._subscribers):
            subscriber(event)
