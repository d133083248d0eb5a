"""Congestion curve, traffic accounting, and the money model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optoutswarm.evaluator import canonicalize
from optoutswarm.website import (
    TargetSite,
    TrafficLedger,
    probe,
    response_time,
    send_opt_out_burst,
    settle_minute,
)


def site(**overrides) -> TargetSite:
    fields = dict(
        url=canonicalize("http://pills.example/buy"),
        base_latency=100.0,
        capacity=100.0,
        timeout=5000.0,
        request_bytes=2048,
        cost_per_gib=0.05,
        visitor_rate=0.0,
        revenue_per_visit=1.5,
        patience=400.0,
    )
    fields.update(overrides)
    return TargetSite(**fields)


class TestResponseTime:
    def test_zero_load_is_base_latency(self):
        assert response_time(site(), 0) == 100.0

    def test_load_at_capacity_doubles_latency(self):
        assert response_time(site(), 100) == 200.0

    def test_heavy_load_capped_at_timeout(self):
        assert response_time(site(), 1000) == 5000.0

    def test_negative_load_rejected(self):
        with pytest.raises(ValueError):
            response_time(site(), -1)

    @given(
        low=st.floats(min_value=0, max_value=10_000),
        extra=st.floats(min_value=0, max_value=10_000),
    )
    @settings(max_examples=100, deadline=None)
    def test_monotone_and_capped(self, low, extra):
        s = site()
        a = response_time(s, low)
        b = response_time(s, low + extra)
        assert a <= b <= s.timeout


class TestBursts:
    def test_zero_comrades_change_nothing(self):
        ledger = TrafficLedger()
        send_opt_out_burst(ledger, 0, range(10, 11))
        assert ledger.minute(10).opt_out_requests == 0

    def test_requests_are_count_times_rate(self):
        ledger = TrafficLedger()
        send_opt_out_burst(ledger, 10 * 6, range(10, 13))
        assert [ledger.minute(m).opt_out_requests for m in range(9, 14)] == [0, 60, 60, 60, 0]

    def test_same_minute_bursts_add(self):
        ledger = TrafficLedger()
        send_opt_out_burst(ledger, 10 * 6, range(10, 11))
        send_opt_out_burst(ledger, 3 * 2, range(10, 11))
        assert ledger.minute(10).opt_out_requests == 66


class TestProbe:
    def test_idle_site_reads_near_base_latency(self):
        # the probe itself is one request of load, a 1/capacity blip
        got = probe(site(), 0, TrafficLedger())
        assert got == pytest.approx(100.0, rel=1e-3)

    def test_probe_counts_as_request(self):
        ledger = TrafficLedger()
        probe(site(), 0, ledger)
        probe(site(), 0, ledger)
        assert ledger.minute(0).probe_requests == 2

    def test_probe_sees_current_minute_load(self):
        ledger = TrafficLedger()
        send_opt_out_burst(ledger, 100, range(3, 4))  # 100 requests: at capacity
        got = probe(site(), 3, ledger)
        assert got == pytest.approx(2 * 100.0, rel=0.05)

    def test_saturated_site_reads_timeout(self):
        ledger = TrafficLedger()
        send_opt_out_burst(ledger, 1000, range(1))
        assert probe(site(), 0, ledger) == 5000.0


class TestSettlement:
    def test_quiet_minute_loses_nothing(self):
        s = site(visitor_rate=30)
        ledger = TrafficLedger()
        record = settle_minute(s, 0, ledger)
        assert (record.visitors_served, record.visitors_lost) == (30, 0.0)
        assert ledger.lost_revenue == 0.0
        assert ledger.total_visitors_served == 30

    def test_slow_minute_loses_all_visitors(self):
        s = site(visitor_rate=30, patience=150.0)
        ledger = TrafficLedger()
        send_opt_out_burst(ledger, 100, range(1))  # pushes response past patience
        record = settle_minute(s, 0, ledger)
        assert record.visitors_lost == ledger.total_visitors_lost == 30
        assert record.response_ms > s.patience
        assert ledger.lost_revenue == 30 * 1.5

    def test_traffic_cost_hand_arithmetic(self):
        s = site(cost_per_gib=0.05, request_bytes=2048)
        ledger = TrafficLedger()
        send_opt_out_burst(ledger, 1000, range(1))
        assert settle_minute(s, 0, ledger).opt_out_requests == 1000
        assert ledger.traffic_bytes == 1000 * 2048
        assert ledger.traffic_cost == 1000 * 2048 * 0.05 / 2**30
        assert ledger.minutes == {}

    def test_visitor_conservation_over_run(self):
        s = site(visitor_rate=7, patience=150.0)
        ledger = TrafficLedger()
        send_opt_out_burst(ledger, 100, range(20, 30))
        for minute in range(50):
            settle_minute(s, minute, ledger)
        arrived = 50 * 7
        assert ledger.total_visitors_served + ledger.total_visitors_lost == arrived


def test_site_invariants_enforced():
    with pytest.raises(ValueError):
        site(base_latency=0)
    with pytest.raises(ValueError):
        site(capacity=0)
    with pytest.raises(ValueError):
        site(timeout=50.0)
