"""The Infrastructure Description Language (IDL).

"The Infrastructure Description Language describes the infrastructure at
each domain and the different SLAs they can support" (§3.2). System
administrators own this document — changing what a domain shares, and at
what service level, is a data edit here, never a code change (the autonomy
requirement of §2.3's infrastructure logic).

An :class:`InfrastructureDescription` lists, per domain:

* compute resources (name, cores, speed factor);
* storage: which logical resource names the domain serves, with a
  ``resource_type`` tag (``disk`` / ``archive`` / ``parallel_fs`` …) the
  matchmaker compares against step requirements;
* an :class:`SLA`: which virtual organizations are admitted, how many
  concurrent tasks the domain accepts, and a relative cost rate.

Like DGL, it round-trips through XML so infrastructure logic can be
"programmatically described and executed dynamically".
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import DGLParseError, MatchmakingError
from repro.dfms.compute import ComputeResource
from repro.dgl.xml_io import _attr

__all__ = ["SLA", "StorageOffer", "DomainDescription",
           "InfrastructureDescription"]


@dataclass
class SLA:
    """Service level one domain offers to the grid."""

    #: VOs admitted; empty means "any" (fully shared).
    allowed_vos: List[str] = field(default_factory=list)
    #: Maximum concurrent tasks the domain accepts (0 = unlimited).
    max_concurrent_tasks: int = 0
    #: Relative cost rate charged per reference CPU-second.
    cost_per_cpu_second: float = 1.0

    def admits(self, virtual_organization: str) -> bool:
        """True if the VO may run tasks here."""
        return not self.allowed_vos or virtual_organization in self.allowed_vos


@dataclass
class StorageOffer:
    """One logical storage resource a domain serves."""

    logical_resource: str
    resource_type: str   # disk / archive / parallel_fs / memory


@dataclass
class DomainDescription:
    """Everything one domain contributes to the infrastructure."""

    name: str
    compute: List[ComputeResource] = field(default_factory=list)
    storage: List[StorageOffer] = field(default_factory=list)
    sla: SLA = field(default_factory=SLA)

    def storage_of_type(self, resource_type: str) -> List[StorageOffer]:
        """Storage offers of one resource type at this domain."""
        return [offer for offer in self.storage
                if offer.resource_type == resource_type]


class InfrastructureDescription:
    """The grid-wide infrastructure document the scheduler consults."""

    def __init__(self) -> None:
        self._domains: Dict[str, DomainDescription] = {}

    def add_domain(self, description: DomainDescription) -> None:
        """Add one domain's description (names are unique)."""
        if description.name in self._domains:
            raise MatchmakingError(
                f"domain {description.name!r} already described")
        self._domains[description.name] = description

    def domain(self, name: str) -> DomainDescription:
        """The description for ``name`` (raises if undescribed)."""
        try:
            return self._domains[name]
        except KeyError:
            raise MatchmakingError(f"no infrastructure for domain {name!r}") from None

    def domains(self) -> List[DomainDescription]:
        """All domain descriptions, name-sorted."""
        return [self._domains[name] for name in sorted(self._domains)]

    def all_compute(self) -> List[ComputeResource]:
        """Every compute resource, deterministic order."""
        out: List[ComputeResource] = []
        for domain in self.domains():
            out.extend(sorted(domain.compute, key=lambda c: c.name))
        return out

    # -- matchmaking ------------------------------------------------------

    def candidates(self, virtual_organization: str,
                   resource_type: Optional[str] = None,
                   min_cores: int = 0,
                   min_speed: float = 0.0) -> List[ComputeResource]:
        """Compute resources satisfying a step's abstract requirements.

        This is the §3.2 matchmaker: abstract requirements in, concrete
        candidate endpoints out. Raises :class:`MatchmakingError` when
        nothing fits, because an unplaceable task should fail loudly.
        """
        matches: List[ComputeResource] = []
        for domain in self.domains():
            if not domain.sla.admits(virtual_organization):
                continue
            if resource_type is not None and not domain.storage_of_type(resource_type):
                continue
            for compute in sorted(domain.compute, key=lambda c: c.name):
                if not compute.online:
                    continue
                if compute.cores < min_cores:
                    continue
                if compute.speed_factor < min_speed:
                    continue
                matches.append(compute)
        if not matches:
            raise MatchmakingError(
                f"no compute resource matches vo={virtual_organization!r} "
                f"type={resource_type!r} cores>={min_cores} "
                f"speed>={min_speed}")
        return matches

    # -- XML round trip -----------------------------------------------------

    def to_xml(self) -> str:
        """Serialize the infrastructure document."""
        root = ET.Element("infrastructure")
        for domain in self.domains():
            domain_el = ET.SubElement(root, "domain", name=domain.name)
            sla_el = ET.SubElement(
                domain_el, "sla",
                maxConcurrentTasks=str(domain.sla.max_concurrent_tasks),
                costPerCpuSecond=repr(domain.sla.cost_per_cpu_second))
            for vo in domain.sla.allowed_vos:
                ET.SubElement(sla_el, "allowedVO", name=vo)
            for compute in domain.compute:
                ET.SubElement(domain_el, "compute", name=compute.name,
                              cores=str(compute.cores),
                              speedFactor=repr(compute.speed_factor))
            for offer in domain.storage:
                ET.SubElement(domain_el, "storage",
                              logicalResource=offer.logical_resource,
                              resourceType=offer.resource_type)
        ET.indent(root)
        return ET.tostring(root, encoding="unicode")

    @classmethod
    def from_xml(cls, text: str) -> "InfrastructureDescription":
        """Parse an infrastructure document.

        Compute resources come back detached; call
        :meth:`ComputeResource.attach` (or register through a DfMS server)
        before executing on them.
        """
        try:
            root = ET.fromstring(text)
        except ET.ParseError as exc:
            raise DGLParseError(f"malformed infrastructure XML: {exc}") from None
        if root.tag != "infrastructure":
            raise DGLParseError(f"expected <infrastructure>, got <{root.tag}>")
        description = cls()
        for domain_el in root.findall("domain"):
            name = domain_el.get("name")
            if not name:
                raise DGLParseError("<domain> needs a name")
            sla_el = domain_el.find("sla")
            sla = SLA()
            if sla_el is not None:
                sla = SLA(
                    allowed_vos=[vo.get("name", "")
                                 for vo in sla_el.findall("allowedVO")],
                    max_concurrent_tasks=_attr(
                        sla_el, "maxConcurrentTasks", int, "0"),
                    cost_per_cpu_second=_attr(
                        sla_el, "costPerCpuSecond", float, "1.0"))
            compute = [ComputeResource(
                name=el.get("name", ""), domain=name,
                cores=_attr(el, "cores", int, "1"),
                speed_factor=_attr(el, "speedFactor", float, "1.0"))
                for el in domain_el.findall("compute")]
            storage = [StorageOffer(
                logical_resource=el.get("logicalResource", ""),
                resource_type=el.get("resourceType", "disk"))
                for el in domain_el.findall("storage")]
            description.add_domain(DomainDescription(
                name=name, compute=compute, storage=storage, sla=sla))
        return description
