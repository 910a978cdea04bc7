"""Peer-to-peer datagridflow networks.

"Multiple DfMS servers can form a peer-to-peer datagridflow network with
one or more lookup servers" (§3.2); the paper's future-work list opens with
"peer-to-peer datagridflow network and its protocols" (§5).

The protocol implemented here is referral-based:

1. a client asks a lookup server for a peer (one network round trip to the
   lookup's domain);
2. the lookup answers with the peer chosen by its policy — least-loaded,
   or data-locality (the peer whose domain is nearest the flow's input
   collection);
3. the client submits to that peer directly (a round trip to the peer's
   domain).

Status queries skip the lookup entirely: request identifiers embed the
serving peer's name (``matrix-2.dgr-000001``), so they route directly —
"the identifier … can be shared with all other processes that require
access to the status" (§4).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.errors import P2PError
from repro.dfms.server import DfMSServer
from repro.dgl.model import DataGridRequest, Flow, FlowStatusQuery
from repro.network.topology import Topology
from repro.sim.kernel import Environment

__all__ = ["LookupServer", "DfMSNetwork"]

#: Selection policies a lookup server understands.
_POLICIES = ("least_loaded", "round_robin", "data_locality")


class LookupServer:
    """The registry peers advertise to and clients consult."""

    def __init__(self, name: str, domain: str,
                 policy: str = "least_loaded") -> None:
        if policy not in _POLICIES:
            raise P2PError(f"unknown lookup policy {policy!r} "
                           f"(choose from {_POLICIES})")
        self.name = name
        self.domain = domain
        self.policy = policy
        #: Lookup servers can fail too ("one or more lookup servers", §3.2);
        #: clients holding several fail over past offline ones.
        self.online = True
        self._peers: Dict[str, Tuple[DfMSServer, str]] = {}
        self._round_robin_index = 0
        self.referrals = 0

    def register(self, server: DfMSServer, domain: str) -> None:
        """Advertise a peer DfMS server living at ``domain``."""
        if server.name in self._peers:
            raise P2PError(f"peer {server.name!r} already registered")
        self._peers[server.name] = (server, domain)

    def peers(self) -> List[Tuple[DfMSServer, str]]:
        """All registered peers with their domains, name-sorted."""
        return [self._peers[name] for name in sorted(self._peers)]

    def select(self, topology: Optional[Topology] = None,
               data_collection_domain: Optional[str] = None
               ) -> Tuple[DfMSServer, str]:
        """Choose a live peer for a new flow according to the policy.

        Offline peers are skipped — the failover behaviour §5's
        "peer-to-peer datagridflow network" future work asks about.
        """
        peers = [(server, domain) for server, domain in self.peers()
                 if server.online]
        if not peers:
            raise P2PError(f"lookup server {self.name!r} has no live peers")
        self.referrals += 1
        if self.policy == "round_robin":
            choice = peers[self._round_robin_index % len(peers)]
            self._round_robin_index += 1
            return choice
        if self.policy == "data_locality" and data_collection_domain:
            if topology is None:
                raise P2PError("data_locality selection needs a topology")
            return min(peers, key=lambda peer: (
                topology.path_latency(peer[1], data_collection_domain),
                peer[0].name))
        # least_loaded (also the data_locality fallback with no hint)
        return min(peers, key=lambda peer: (peer[0].running_count,
                                            peer[0].name))

    def find(self, server_name: str) -> Tuple[DfMSServer, str]:
        """Locate a peer by name (for status-query routing)."""
        try:
            server, domain = self._peers[server_name]
        except KeyError:
            raise P2PError(f"no peer named {server_name!r}") from None
        if not server.online:
            raise P2PError(f"peer {server_name!r} is offline")
        return server, domain


class DfMSNetwork:
    """A client-side view of the peer-to-peer datagridflow network.

    Accepts one lookup server or several ("one or more lookup servers",
    §3.2); offline lookups cost a probe round trip and are skipped.
    """

    def __init__(self, env: Environment, topology: Topology,
                 lookup) -> None:
        self.env = env
        self.topology = topology
        self.lookups: List[LookupServer] = (
            list(lookup) if isinstance(lookup, (list, tuple)) else [lookup])
        if not self.lookups:
            raise P2PError("the network needs at least one lookup server")
        self.messages_sent = 0
        self.network_seconds = 0.0

    @property
    def lookup(self) -> LookupServer:
        """The primary lookup server."""
        return self.lookups[0]

    def _reach_lookup(self, client_domain: str):
        """Generator: contact lookups in order until a live one answers.

        Each attempt costs a round trip (a dead lookup is only discovered
        by its timeout). Returns the live lookup server.
        """
        for lookup in self.lookups:
            yield from self._hop(client_domain, lookup.domain)
            if lookup.online:
                return lookup
        raise P2PError("no lookup server is reachable")

    def _hop(self, src: str, dst: str):
        """One message each way between two domains (latency only)."""
        latency = 2 * self.topology.path_latency(src, dst)
        self.messages_sent += 2
        self.network_seconds += latency
        yield self.env.timeout(latency)

    @staticmethod
    def _collection_hint(flow: Flow) -> Optional[str]:
        """The flow's for-each collection, if any (data-locality hint)."""
        for _, _, node in flow.walk():
            if isinstance(node, Flow):
                collection = getattr(node.logic.pattern, "collection", None)
                if collection:
                    return collection
        return None

    def submit(self, request: DataGridRequest, client_domain: str):
        """Generator: lookup referral, then direct submission.

        Returns ``(response, server_name)``.
        """
        if isinstance(request.body, FlowStatusQuery):
            result = yield from self.query_status(request, client_domain)
            return result
        lookup = yield from self._reach_lookup(client_domain)
        hint_collection = self._collection_hint(request.body)
        hint_domain = None
        if hint_collection is not None and lookup.policy == "data_locality":
            # Resolve the collection's dominant domain from the first peer's
            # DGMS (all peers share the datagrid's namespace).
            dgms = lookup.peers()[0][0].dgms
            if dgms.namespace.exists(hint_collection):
                for obj in dgms.namespace.iter_objects(hint_collection):
                    replicas = obj.good_replicas()
                    if replicas:
                        hint_domain = replicas[0].domain
                        break
        server, server_domain = lookup.select(
            topology=self.topology, data_collection_domain=hint_domain)
        yield from self._hop(client_domain, server_domain)
        response = server.submit(request)
        return response, server.name

    def query_status(self, request: DataGridRequest, client_domain: str):
        """Generator: route a status query straight to the serving peer."""
        if not isinstance(request.body, FlowStatusQuery):
            raise P2PError("query_status needs a FlowStatusQuery request")
        request_id = request.body.request_id
        server_name, separator, _ = request_id.partition(".dgr-")
        if not separator:
            raise P2PError(
                f"request id {request_id!r} does not embed a peer name")
        # The name -> address map is client-cached registry data; no
        # lookup round trip is needed to route by an embedded peer name.
        server = server_domain = None
        last_error: Optional[P2PError] = None
        for lookup in self.lookups:
            try:
                server, server_domain = lookup.find(server_name)
                break
            except P2PError as exc:
                last_error = exc
        if server is None:
            raise last_error or P2PError(f"no peer named {server_name!r}")
        yield from self._hop(client_domain, server_domain)
        response = server.submit(request)
        return response, server.name
