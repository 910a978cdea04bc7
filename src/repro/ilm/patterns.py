"""The paper's named ILM patterns: imploding and exploding stars (§2.1).

* **Imploding star** — "information from all the domains in the datagrid is
  finally pulled towards this domain" (the BBSRC-CCLRC archiver). Built as
  an :class:`~repro.ilm.policy.ILMPolicy` from the archiver domain's point
  of view: archive everything not yet archived, trim source copies once
  the domain value has decayed, and eventually let retention expire.

* **Exploding star** — "information is pushed or replicated outside the
  domain of its creation … replicated in stages at different tiers across
  the globe" (CERN CMS). Built as an explicit DGL flow: per object, a
  sequential chain of tiers, each tier a parallel fan-out of replications.
  Because the DGMS selects the *nearest* source replica, tier-2 copies pull
  from their tier-1 parents, not from the center — the staging the paper
  describes.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.errors import PolicyError
from repro.dgl.builder import flow_builder
from repro.dgl.model import Flow
from repro.ilm.policy import ILMPolicy, PlacementRule
from repro.sim.calendar import ExecutionWindow

__all__ = ["imploding_star_policy", "exploding_star_flow"]


def imploding_star_policy(
        name: str,
        collection: str,
        archiver_domain: str,
        archive_resource: str,
        trim_below_value: float = 0.25,
        delete_after_days: Optional[float] = None,
        window: Optional[ExecutionWindow] = None,
        query: str = "") -> ILMPolicy:
    """The archiver-domain policy pulling everything inward.

    Rule order (first match wins):

    1. ``archive`` — no copy on the archive yet: replicate one in.
    2. ``trim`` — archived, and the owning domains' interest (domain
       value) has decayed below ``trim_below_value``: drop the expensive
       source copies, keeping only the archive replica.
    3. ``expire`` — optional: archived data older than
       ``delete_after_days`` leaves the grid entirely.
    """
    rules: List[PlacementRule] = [
        PlacementRule(
            name="archive",
            condition="last_action == null",
            action="replicate_to",
            target_resource=archive_resource),
        PlacementRule(
            name="trim",
            condition=(f"last_action == 'archive' and "
                       f"value < {trim_below_value} and replica_count > 1"),
            action="trim_to_target",
            target_resource=archive_resource),
    ]
    if delete_after_days is not None:
        rules.append(PlacementRule(
            name="expire",
            condition=(f"last_action == 'trim' and "
                       f"age_days > {delete_after_days}"),
            action="delete"))
    return ILMPolicy(name=name, collection=collection, domain=archiver_domain,
                     rules=rules, query=query, window=window)


def exploding_star_flow(
        name: str,
        collection: str,
        tier_resources: Sequence[Sequence[str]],
        query: str = "") -> Flow:
    """Staged tiered replication outward from the producing domain.

    ``tier_resources`` lists, per tier, the logical resources that tier's
    sites serve (e.g. ``[["t1-ral", "t1-fnal"], ["t2-a", "t2-b"]]``). Tiers
    replicate sequentially; sites within a tier replicate in parallel,
    all at once.
    """
    if not tier_resources or not all(tier_resources):
        raise PolicyError("exploding star needs at least one non-empty tier")
    per_object = flow_builder("stage-out").sequential()
    for tier_index, resources in enumerate(tier_resources, start=1):
        tier = flow_builder(f"tier-{tier_index}").parallel()
        for resource in resources:
            tier.step(f"to-{resource}", "srb.replicate",
                      path="${f}", resource=resource)
        per_object.subflow(tier)
    return (flow_builder(name)
            .for_each("f", collection=collection, query=query or None)
            .subflow(per_object)
            .build())
