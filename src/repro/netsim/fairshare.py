"""Max-min fair rate allocation (progressive filling).

The standard throughput model for TCP-like or credit-based fabrics:
every flow's rate grows uniformly until some link saturates; flows
bottlenecked there are frozen, the rest keep growing.  The result is the
unique allocation in which no flow's rate can increase without
decreasing that of a flow with an equal-or-smaller rate — and a flow
crossing only uncontended links gets the full link bandwidth, which is
what the paper's "full interconnect bandwidth" guarantee promises every
Jigsaw job.

Implementation: classic progressive filling.  Each iteration finds the
tightest link (remaining capacity / unfrozen flows), freezes its flows
at the implied rate, removes the capacity they consume, and repeats —
O(L·F) overall, exact for this model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Mapping, Sequence, Set

from repro.obs.tracer import get_tracer

#: a flow is any hashable identity; links likewise
FlowId = Hashable
LinkKey = Hashable


@dataclass
class FlowRates:
    """Result of a max-min fair allocation."""

    #: rate per flow, in the same units as link capacity
    rates: Dict[FlowId, float]
    #: the link at which each flow is bottlenecked
    bottleneck: Dict[FlowId, LinkKey]
    #: residual (unused) capacity per link
    residual: Dict[LinkKey, float]


def max_min_fair_rates(
    flow_links: Mapping[FlowId, Sequence[LinkKey]],
    capacity: float = 1.0,
    capacities: Mapping[LinkKey, float] | None = None,
) -> FlowRates:
    """Compute max-min fair rates.

    Parameters
    ----------
    flow_links:
        For every flow, the (directed) links it traverses.  A flow with
        no links (intra-switch traffic) gets the full ``capacity``.
    capacity:
        Default capacity of every link.
    capacities:
        Optional per-link overrides.
    """
    if capacity <= 0:
        raise ValueError("link capacity must be positive")
    tracer = get_tracer()
    span = tracer.begin("netsim.converge") if tracer.enabled else None
    caps: Dict[LinkKey, float] = {}
    flows_on: Dict[LinkKey, Set[FlowId]] = {}
    for flow, links in flow_links.items():
        for link in links:
            if link not in caps:
                cap = capacities.get(link, capacity) if capacities else capacity
                if cap <= 0:
                    raise ValueError(f"link {link!r} has non-positive capacity")
                caps[link] = cap
                flows_on[link] = set()
            flows_on[link].add(flow)

    rates: Dict[FlowId, float] = {}
    bottleneck: Dict[FlowId, LinkKey] = {}
    unfrozen: Set[FlowId] = set(flow_links)
    remaining = dict(caps)
    active_flows = {link: set(flows) for link, flows in flows_on.items()}

    # Flows with no links are never constrained.
    for flow, links in flow_links.items():
        if not links:
            rates[flow] = capacity
            bottleneck[flow] = None
            unfrozen.discard(flow)

    iterations = 0
    while unfrozen:
        iterations += 1
        # The tightest link determines the next uniform increment.
        tight_link = None
        tight_share = float("inf")
        for link, flows in active_flows.items():
            if not flows:
                continue
            share = remaining[link] / len(flows)
            if share < tight_share:
                tight_share = share
                tight_link = link
        if tight_link is None:
            # Remaining flows traverse only links with no contention left
            # to model; give them full default capacity.
            for flow in unfrozen:
                rates[flow] = capacity
                bottleneck[flow] = None
            break
        frozen_now = list(active_flows[tight_link])
        for flow in frozen_now:
            rates[flow] = tight_share
            bottleneck[flow] = tight_link
            unfrozen.discard(flow)
            for link in flow_links[flow]:
                active_flows[link].discard(flow)
                remaining[link] -= tight_share
        remaining[tight_link] = 0.0

    residual = {
        link: max(0.0, remaining.get(link, caps[link])) for link in caps
    }
    if span is not None:
        span.set(flows=len(flow_links), links=len(caps), iterations=iterations)
        tracer.end(span)
    return FlowRates(rates=rates, bottleneck=bottleneck, residual=residual)
