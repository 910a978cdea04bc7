"""An open-loop heavy-tailed DGL traffic generator.

The paper positions the DfMS in front of "millions of users" (§1); what
reaches a front end from a population that size is an *open-loop*
arrival stream — new sessions arrive on their own clock whether or not
earlier requests finished, which is exactly the regime where an
admission-free server melts and a gateway must shed. This module
synthesizes that stream against a :class:`~repro.dfms.gateway.
DfMSGateway` (or a bare server — anything with ``submit``):

* **seeded Pareto inter-arrivals** — session arrivals are a renewal
  process with Pareto-distributed gaps (shape ``pareto_alpha``, scaled
  to ``mean_interarrival_s``), giving the bursts and lulls heavy-tailed
  user populations produce. All randomness is drawn from named
  :class:`~repro.sim.rng.RandomStreams` substreams (DGF002);
* **sessions** — each arrival runs a short session process: submit a
  flow, then poll its status a geometric number of times with think
  gaps, occasionally (``sync_fraction``) holding the connection open
  synchronously instead;
* **mixed request types** — async flow submissions, sync submissions,
  and status queries (the dominant type, as in any polling protocol),
  spread across a weighted VO mix.

The generator never blocks on the target's backlog — rejected work is
counted and dropped, like real clients timing out — so offered load is
controlled purely by ``mean_interarrival_s``. :class:`TrafficStats`
accumulates the offered/outcome tallies the saturation benchmark plots.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.dgl.builder import flow_builder, operation
from repro.dgl.model import (
    DataGridRequest,
    FlowStatusQuery,
    RequestAcknowledgement,
    Step,
)
from repro.sim.rng import RandomStreams

__all__ = ["TrafficProfile", "TrafficStats", "TrafficGenerator",
           "pareto_gaps", "run_saturation_point", "run_saturation_curve"]


def pareto_gaps(rng, alpha: float, mean_s: float):
    """Generator of Pareto(alpha) gaps scaled to a target mean.

    For shape ``alpha > 1`` the Pareto mean is ``xm * alpha/(alpha-1)``,
    so the scale ``xm = mean_s * (alpha-1)/alpha`` hits ``mean_s``
    exactly while keeping the heavy tail.
    """
    if alpha <= 1.0:
        raise ValueError("pareto_alpha must exceed 1 for a finite mean")
    scale = mean_s * (alpha - 1.0) / alpha
    while True:
        yield rng.paretovariate(alpha) * scale


@dataclass
class TrafficProfile:
    """Shape of one offered-load level."""

    #: Mean sim-seconds between session arrivals (the load knob).
    mean_interarrival_s: float = 1.0
    #: Pareto shape for the inter-arrival gaps; lower = heavier tail.
    pareto_alpha: float = 1.5
    #: Probability a session holds its submission open synchronously.
    sync_fraction: float = 0.1
    #: Mean status polls per async session (geometric).
    mean_polls: float = 3.0
    #: Mean think time between a session's consecutive requests.
    think_s: float = 0.5
    #: VO name -> arrival weight (sessions draw their VO from this mix).
    vo_mix: Dict[str, float] = field(
        default_factory=lambda: {"vo-a": 3.0, "vo-b": 1.0})
    #: Steps per generated flow and per-step sleep duration.
    flow_steps: int = 2
    step_duration_s: float = 4.0
    #: When set, every flow opens with an ``srb.query`` over this
    #: collection — the hot repeated lookup the cache tier memoizes.
    query_collection: Optional[str] = None


@dataclass
class TrafficStats:
    """Offered/outcome tallies for one generator run."""

    sessions: int = 0
    offered: Dict[str, int] = field(
        default_factory=lambda: {"flow": 0, "status": 0})
    accepted: Dict[str, int] = field(
        default_factory=lambda: {"flow": 0, "status": 0})
    rejected: Dict[str, int] = field(
        default_factory=lambda: {"flow": 0, "status": 0})
    invalid: int = 0
    #: Completed sync submissions: (finish_time, submit→finish seconds).
    sync_latencies: List[Tuple[float, float]] = field(default_factory=list)

    @property
    def offered_total(self) -> int:
        return sum(self.offered.values())


class TrafficGenerator:
    """Open-loop session traffic against one submit target.

    ``target`` needs the gateway/server protocol surface: ``submit`` and
    ``submit_sync``. Construct, then :meth:`start`; drive the clock with
    ``env.run(until=...)`` and read :attr:`stats`.
    """

    def __init__(self, env, target, user_name: str,
                 profile: Optional[TrafficProfile] = None,
                 streams: Optional[RandomStreams] = None,
                 horizon_s: float = 100.0) -> None:
        self.env = env
        self.target = target
        self.user_name = user_name
        self.profile = profile or TrafficProfile()
        streams = streams if streams is not None else RandomStreams(0)
        self._arrival_rng = streams.stream("traffic.arrivals")
        self._session_rng = streams.stream("traffic.sessions")
        self.horizon_s = float(horizon_s)
        self.stats = TrafficStats()
        self._vos = sorted(self.profile.vo_mix)
        self._vo_weights = [self.profile.vo_mix[vo] for vo in self._vos]
        self._steps = self._session_steps()

    def start(self) -> None:
        """Spawn the arrival process (sessions spawn themselves)."""
        self.env.process(self._arrivals())

    # -- internals -------------------------------------------------------------

    def _session_steps(self) -> List[Step]:
        """The steps of every session's flow. The profile fixes them, so
        they are built once and every session's tree shares them."""
        profile = self.profile
        steps = []
        if profile.query_collection is not None:
            steps.append(Step("lookup", operation(
                "srb.query", collection=profile.query_collection)))
        steps.extend(Step(f"s{index}", operation(
            "dgl.sleep", duration=profile.step_duration_s))
            for index in range(profile.flow_steps))
        return steps

    def _flow(self, session_id: int):
        builder = flow_builder(f"traffic-{session_id}")
        for step in self._steps:
            builder.add_step(step)
        return builder.build()

    def _request(self, body, vo: str,
                 asynchronous: bool = True) -> DataGridRequest:
        return DataGridRequest(user=self.user_name,
                               virtual_organization=vo, body=body,
                               asynchronous=asynchronous)

    def _arrivals(self):
        gaps = pareto_gaps(self._arrival_rng, self.profile.pareto_alpha,
                           self.profile.mean_interarrival_s)
        for gap in gaps:
            if self.env.now + gap >= self.horizon_s:
                return
            yield self.env.timeout(gap)
            self.stats.sessions += 1
            self.env.process(self._session(self.stats.sessions))

    def _classify(self, kind: str, response) -> None:
        stats = self.stats
        stats.offered[kind] += 1
        if response.is_rejection:
            stats.rejected[kind] += 1
        elif (isinstance(response.body, RequestAcknowledgement)
                and not response.body.valid):
            stats.invalid += 1
        else:
            stats.accepted[kind] += 1

    def _session(self, session_id: int):
        """One user session: a submission plus follow-up status polls."""
        rng = self._session_rng
        profile = self.profile
        vo = rng.choices(self._vos, weights=self._vo_weights)[0]
        flow = self._flow(session_id)
        if rng.random() < profile.sync_fraction:
            started = self.env.now
            response = yield from self.target.submit_sync(
                self._request(flow, vo, asynchronous=False))
            self._classify("flow", response)
            if not response.is_rejection:
                self.stats.sync_latencies.append(
                    (self.env.now, self.env.now - started))
            return
        response = self.target.submit(self._request(flow, vo))
        self._classify("flow", response)
        if response.is_rejection or not response.body.valid:
            return
        request_id = response.request_id
        # Geometric poll count with mean profile.mean_polls.
        stop = 1.0 / (1.0 + profile.mean_polls)
        while rng.random() >= stop:
            yield self.env.timeout(
                rng.expovariate(1.0 / profile.think_s))
            poll = self.target.submit(self._request(
                FlowStatusQuery(request_id=request_id, max_depth=0), vo))
            self._classify("status", poll)


#: Sim seconds a saturation point runs past its horizon, so that admitted
#: work drains before the point is measured.
SATURATION_DRAIN_S = 120.0


def run_saturation_point(arrival_rate: float, seed: int = 0,
                         horizon_s: float = 60.0, workers: int = 4,
                         queue_limit: int = 32,
                         cache: bool = True) -> Dict[str, object]:
    """One offered-load point of the gateway saturation curve.

    Builds a fresh CMS scenario, fronts its server with a
    :class:`~repro.dfms.gateway.DfMSGateway` (cache tier attached unless
    ``cache=False``), offers ``arrival_rate`` sessions/s of heavy-tailed
    traffic (a default :class:`TrafficProfile`) for ``horizon_s``, then
    lets admitted work drain for :data:`SATURATION_DRAIN_S`. Returns the
    plain-dict measurements the benchmark and CLI plot.
    """
    from repro.dfms.cache import attach_cache
    from repro.dfms.gateway import DfMSGateway, VOPolicy
    from repro.telemetry.instrument import attach_telemetry
    from repro.telemetry.slo import quantile
    from repro.workloads.scenarios import cms_scenario

    scenario = cms_scenario(n_tier1=2, n_tier2_per_t1=1, n_events=0,
                            seed=seed)
    attach_telemetry(scenario.env, server=scenario.server)
    tier = attach_cache(scenario.dgms) if cache else None
    gateway = DfMSGateway(
        scenario.env, scenario.server, workers=workers,
        queue_limit=queue_limit,
        # Generous buckets: this sweep measures queue saturation, so
        # sheds should come from the bound, not per-VO throttling.
        default_policy=VOPolicy(rate=max(4.0 * arrival_rate, 10.0),
                                burst=max(8.0 * arrival_rate, 20.0)))
    shape = TrafficProfile(
        mean_interarrival_s=1.0 / arrival_rate,
        query_collection=(scenario.collections[0] if scenario.collections
                          else None))
    user = scenario.users[sorted(scenario.users)[0]]
    generator = TrafficGenerator(scenario.env, gateway,
                                 user.qualified_name, shape,
                                 streams=RandomStreams(seed),
                                 horizon_s=horizon_s)
    generator.start()
    scenario.env.run(until=horizon_s + SATURATION_DRAIN_S)
    stats = generator.stats
    sojourns = gateway.sojourns
    return {
        "arrival_rate": arrival_rate,
        "offered": stats.offered_total,
        "offered_rate": stats.offered_total / horizon_s,
        "sessions": stats.sessions,
        "admitted": gateway.admitted,
        "completed": gateway.completed,
        "succeeded": gateway.succeeded,
        "goodput_rate": gateway.succeeded / horizon_s,
        "shed": dict(gateway.sheds),
        "shed_total": sum(gateway.sheds.values()),
        "p99_sojourn_s": quantile(sojourns, 0.99) if sojourns else 0.0,
        "p50_sojourn_s": quantile(sojourns, 0.50) if sojourns else 0.0,
        "peak_queue_depth": gateway.peak_depth,
        "final_queue_depth": gateway.queue_depth,
        "cache_hit_rate": tier.hit_rate if tier is not None else None,
    }


def run_saturation_curve(arrival_rates, seed: int = 0,
                         horizon_s: float = 60.0, workers: int = 4,
                         queue_limit: int = 32, cache: bool = True,
                         ) -> List[Dict[str, object]]:
    """:func:`run_saturation_point` per rate, through
    :func:`repro.farm.run_farm`."""
    from repro.farm import run_farm

    return run_farm(run_saturation_point, list(arrival_rates),
                    kwargs={"seed": seed, "horizon_s": horizon_s,
                            "workers": workers, "queue_limit": queue_limit,
                            "cache": cache})
