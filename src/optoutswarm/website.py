"""The advertised website under opt-out load: congestion, traffic, money.

The response-time model is a quadratic congestion curve capped at a hard
timeout: min(timeout, base_latency * (1 + (load/capacity)^2)). It is
monotone in load and easy to invert, which keeps campaign-success
thresholds analytically checkable. Visitors are deterministic: visitor_rate
of them arrive each minute, and the whole minute's cohort is lost when the
response time exceeds their patience.

Every request that reaches the site (opt-out, probe, or visitor) moves
request_bytes of traffic and counts toward that minute's load.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from optoutswarm.evaluator import CanonicalUrl

# the largest rate, timeout, size, price or revenue a scenario may set: far
# enough below the largest float that every latency, median and total is finite
MAX_QUANTITY = 10**12


@dataclass(frozen=True)
class TargetSite:
    url: CanonicalUrl
    base_latency: float  # ms at zero load
    capacity: float  # requests/minute where latency doubles
    timeout: float  # ms, hard cap
    request_bytes: int
    cost_per_gib: float
    visitor_rate: float  # legitimate visitors/minute
    revenue_per_visit: float
    patience: float  # ms a visitor tolerates before giving up

    def __post_init__(self) -> None:
        if self.base_latency <= 0:
            raise ValueError("base_latency must be positive")
        if self.capacity < 1:
            raise ValueError("capacity must be at least 1")
        if not self.base_latency < self.timeout <= MAX_QUANTITY:
            raise ValueError(f"timeout must lie in (base_latency, {MAX_QUANTITY}]")
        for name in ("request_bytes", "cost_per_gib", "visitor_rate", "revenue_per_visit"):
            if not 0 <= getattr(self, name) <= MAX_QUANTITY:
                raise ValueError(f"{name} must lie in [0, {MAX_QUANTITY}]")
        if self.patience < 0:
            raise ValueError("patience must be non-negative")


@dataclass
class MinuteTraffic:
    opt_out_requests: int = 0
    probe_requests: int = 0
    visitors_served: float = 0.0
    visitors_lost: float = 0.0
    response_ms: float = 0.0  # filled at settlement


@dataclass
class TrafficLedger:
    minutes: dict[int, MinuteTraffic] = field(default_factory=dict)
    total_opt_out_requests: int = 0
    total_probe_requests: int = 0
    total_visitors_served: float = 0.0
    total_visitors_lost: float = 0.0
    traffic_bytes: float = 0.0
    traffic_cost: float = 0.0
    lost_revenue: float = 0.0

    def minute(self, minute: int) -> MinuteTraffic:
        record = self.minutes.get(minute)
        if record is None:
            record = self.minutes[minute] = MinuteTraffic()
        return record


def response_time(site: TargetSite, load: float) -> float:
    """Milliseconds to answer one request at the given requests/minute."""
    if load < 0:
        raise ValueError("load must be non-negative")
    return min(site.timeout, site.base_latency * (1.0 + (load / site.capacity) ** 2))


def _minute_load(site: TargetSite, record: MinuteTraffic) -> float:
    return record.opt_out_requests + record.probe_requests + site.visitor_rate


def send_opt_out_burst(ledger: TrafficLedger, requests: int, minutes: range) -> None:
    """Add `requests` opt-out requests to each of the given minutes."""
    for minute in minutes:
        ledger.minute(minute).opt_out_requests += requests


def probe(site: TargetSite, minute: int, ledger: TrafficLedger) -> float:
    """Measure responsiveness; the probe itself adds one request of load."""
    record = ledger.minute(minute)
    record.probe_requests += 1
    return response_time(site, _minute_load(site, record))


def settle_minute(site: TargetSite, minute: int, ledger: TrafficLedger) -> MinuteTraffic:
    """Close out a minute: serve or lose its visitors, meter its traffic.

    Takes the minute's record out of the ledger, or an empty one if nothing
    reached the site, adds it to the ledger's totals and returns it. Each
    minute is settled once; the ledger keeps only minutes not yet settled.
    """
    record = ledger.minutes.pop(minute, None) or MinuteTraffic()
    load = _minute_load(site, record)
    record.response_ms = response_time(site, load)
    if record.response_ms > site.patience:
        record.visitors_lost = site.visitor_rate
    else:
        record.visitors_served = site.visitor_rate
    traffic_bytes = load * site.request_bytes

    ledger.total_opt_out_requests += record.opt_out_requests
    ledger.total_probe_requests += record.probe_requests
    ledger.total_visitors_served += record.visitors_served
    ledger.total_visitors_lost += record.visitors_lost
    ledger.traffic_bytes += traffic_bytes
    ledger.traffic_cost += traffic_bytes * site.cost_per_gib / 2**30
    ledger.lost_revenue += record.visitors_lost * site.revenue_per_visit
    return record
