"""Scenario files: everything a simulation run needs, in one JSON document.

Field names in the JSON map 1:1 onto the dataclasses here. A scenario fixes
the seed, the client fleet, the advertised websites, when spam arrives and
to whom, redirector mappings, the whitelist, and any adversaries. Loading
validates everything up front so a bad file fails with a named field before
any simulation work starts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

from optoutswarm.coordinator import CoordinatorConfig, JoinPolicy
from optoutswarm.evaluator import CanonicalUrl, EmailDocument, RedirectMap, canonicalize
from optoutswarm.trust import TrustConfig
from optoutswarm.website import TargetSite

ADVERSARY_STRATEGIES = (
    "time_portal",
    "separation",
    "challenge_flood",
    "mitm_forwarder",
    "sybil_flood",
)

DEFAULT_OPT_OUT_RATE = 6
DEFAULT_CAMPAIGN_DURATION = 30  # minutes of bursting, matches the probe window


class InvalidScenario(Exception):
    """Scenario file fails validation; message names the offending field."""


@dataclass(frozen=True)
class ClientGroup:
    """A block of identically configured clients."""

    count: int
    config: CoordinatorConfig = field(default_factory=CoordinatorConfig)
    trust: TrustConfig = field(default_factory=TrustConfig)


@dataclass(frozen=True)
class SpamInjection:
    """One spam delivery: which minute, which clients, what text."""

    minute: int
    clients: tuple[int, ...] | str  # explicit indices or "all"
    mail: EmailDocument


@dataclass(frozen=True)
class AdversarySpec:
    strategy: str
    params: dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class Scenario:
    seed: int
    duration: int
    clients: tuple[ClientGroup, ...]
    target_sites: tuple[TargetSite, ...] = ()
    spam_injections: tuple[SpamInjection, ...] = ()
    redirect_map: RedirectMap = field(default_factory=RedirectMap)
    whitelist: tuple[str, ...] = ()
    adversaries: tuple[AdversarySpec, ...] = ()
    opt_out_rate: int = DEFAULT_OPT_OUT_RATE
    campaign_duration: int = DEFAULT_CAMPAIGN_DURATION
    confirm_policy: str = "accept_all"  # the user decision modeled as a policy

    @property
    def client_count(self) -> int:
        return sum(group.count for group in self.clients)

    def injection_targets(self, injection: SpamInjection) -> tuple[int, ...]:
        if injection.clients == "all":
            return tuple(range(self.client_count))
        return tuple(injection.clients)  # type: ignore[arg-type]


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise InvalidScenario(message)


def _coordinator_config(raw: dict[str, Any], where: str) -> CoordinatorConfig:
    kwargs: dict[str, Any] = {}
    for key in (
        "min_wait",
        "max_wait",
        "min_comrades",
        "min_accumulated_trust",
        "poll_interval",
        "max_challenges_answered",
        "launch_grace",
    ):
        if key in raw:
            kwargs[key] = raw[key]
    if "usage_windows" in raw:
        kwargs["usage_windows"] = tuple(
            (int(a), int(b)) for a, b in raw["usage_windows"]
        )
    if "join_policy" in raw:
        try:
            kwargs["join_policy"] = JoinPolicy(raw["join_policy"])
        except ValueError:
            raise InvalidScenario(
                f"{where}.join_policy: unknown policy {raw['join_policy']!r}"
            ) from None
    try:
        return CoordinatorConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        raise InvalidScenario(f"{where}: {exc}") from None


def _trust_config(raw: dict[str, Any], where: str) -> TrustConfig:
    try:
        return TrustConfig(**raw)
    except (TypeError, ValueError) as exc:
        raise InvalidScenario(f"{where}: {exc}") from None


def _target_site(raw: dict[str, Any], where: str) -> TargetSite:
    try:
        kwargs = dict(raw)
        kwargs["url"] = canonicalize(kwargs["url"])
        return TargetSite(**kwargs)
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidScenario(f"{where}: {exc}") from None


def _spam_injection(raw: dict[str, Any], where: str) -> SpamInjection:
    try:
        clients = raw.get("clients", "all")
        if clients != "all":
            clients = tuple(int(i) for i in clients)
        return SpamInjection(
            minute=int(raw["minute"]),
            clients=clients,
            mail=EmailDocument(
                body=raw["body"], footer_hint=raw.get("footer_hint")
            ),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidScenario(f"{where}: {exc}") from None


def _adversary(raw: dict[str, Any], where: str) -> AdversarySpec:
    strategy = raw.get("strategy")
    _require(
        strategy in ADVERSARY_STRATEGIES,
        f"{where}.strategy: unknown strategy {strategy!r}",
    )
    params = {k: v for k, v in raw.items() if k != "strategy"}
    return AdversarySpec(strategy=strategy, params=params)


def from_dict(raw: dict[str, Any]) -> Scenario:
    """Build and validate a Scenario from parsed JSON."""
    for required in ("seed", "duration", "clients"):
        _require(required in raw, f"missing required field {required!r}")
    _require(
        type(raw["clients"]) is list and all(type(g) is dict for g in raw["clients"]),
        "clients: must be a list of objects",
    )
    groups = tuple(
        ClientGroup(
            count=g.get("count", 1),
            config=_coordinator_config(g.get("config", {}), f"clients[{i}].config"),
            trust=_trust_config(g.get("trust", {}), f"clients[{i}].trust"),
        )
        for i, g in enumerate(raw["clients"])
    )
    scenario = Scenario(
        seed=raw["seed"],
        duration=raw["duration"],
        clients=groups,
        target_sites=tuple(
            _target_site(s, f"target_sites[{i}]")
            for i, s in enumerate(raw.get("target_sites", []))
        ),
        spam_injections=tuple(
            _spam_injection(s, f"spam_injections[{i}]")
            for i, s in enumerate(raw.get("spam_injections", []))
        ),
        redirect_map=RedirectMap(dict(raw.get("redirect_map", {}))),
        whitelist=tuple(raw.get("whitelist", [])),
        adversaries=tuple(
            _adversary(a, f"adversaries[{i}]")
            for i, a in enumerate(raw.get("adversaries", []))
        ),
        opt_out_rate=raw.get("opt_out_rate", DEFAULT_OPT_OUT_RATE),
        campaign_duration=raw.get("campaign_duration", DEFAULT_CAMPAIGN_DURATION),
        confirm_policy=raw.get("confirm_policy", "accept_all"),
    )
    validate(scenario)
    return scenario


def validate(scenario: Scenario) -> None:
    """Cross-field checks; raises InvalidScenario naming the violation."""
    _require_int(scenario.seed, 0, None, "seed")
    _require_int(scenario.duration, 1, None, "duration")
    _require(len(scenario.clients) > 0, "clients: at least one group required")
    for i, group in enumerate(scenario.clients):
        _require_int(group.count, 1, None, f"clients[{i}].count")
    max_wait = max(g.config.max_wait for g in scenario.clients)
    _require(
        scenario.duration >= max_wait,
        f"duration: must be at least the largest max_wait ({max_wait})",
    )
    total = scenario.client_count
    for i, injection in enumerate(scenario.spam_injections):
        _require(
            0 <= injection.minute < scenario.duration,
            f"spam_injections[{i}].minute: outside [0, duration)",
        )
        if injection.clients != "all":
            for idx in injection.clients:
                _require(
                    0 <= idx < total,
                    f"spam_injections[{i}].clients: no client {idx}",
                )
    _require_int(scenario.opt_out_rate, 0, None, "opt_out_rate")
    _require_int(scenario.campaign_duration, 1, None, "campaign_duration")
    _require(
        scenario.confirm_policy in ("accept_all", "reject_all"),
        f"confirm_policy: unknown policy {scenario.confirm_policy!r}",
    )
    for i, adversary in enumerate(scenario.adversaries):
        _validate_adversary(adversary, scenario, f"adversaries[{i}]")


def _require_int(value: Any, low: int, high: int | None, what: str) -> None:
    """`value` must be an int (not a bool or float) in [low, high)."""
    _require(
        type(value) is int and low <= value and (high is None or value < high),
        f"{what}: must be an integer in [{low}, {'inf' if high is None else high}),"
        f" got {value!r}",
    )


def _validate_adversary(spec: AdversarySpec, scenario: Scenario, where: str) -> None:
    p = spec.params
    if spec.strategy == "time_portal":
        _require_int(p.get("offset_minutes"), 1, None, f"{where}.offset_minutes")
        _require_int(p.get("injection_period", 30), 1, None, f"{where}.injection_period")
    elif spec.strategy == "separation":
        _require_int(p.get("injection_period"), 1, None, f"{where}.injection_period")
        _require_int(p.get("lead_minutes", 60), 1, None, f"{where}.lead_minutes")
    elif spec.strategy == "challenge_flood":
        _require("victim" in p, f"{where}.victim: required")
        _require(
            type(p["victim"]) is int and 0 <= p["victim"] < scenario.client_count,
            f"{where}.victim: no client {p['victim']!r}",
        )
        _require_int(p.get("count"), 1, None, f"{where}.count")
        _require_int(p.get("at_minute", 30), 0, scenario.duration, f"{where}.at_minute")
        _require_int(p.get("max_rand", 0), 0, None, f"{where}.max_rand")
    elif spec.strategy == "sybil_flood":
        _require_int(p.get("identity_count"), 1, None, f"{where}.identity_count")
    elif spec.strategy == "mitm_forwarder":
        rewrite = p.get("rewrite_issuer", False)
        _require(
            type(rewrite) is bool,
            f"{where}.rewrite_issuer: must be true or false, got {rewrite!r}",
        )


def to_dict(scenario: Scenario) -> dict[str, Any]:
    """Normalized JSON-ready form; from_dict(to_dict(s)) round-trips."""
    return {
        "seed": scenario.seed,
        "duration": scenario.duration,
        "clients": [
            {
                "count": g.count,
                "config": {
                    "min_wait": g.config.min_wait,
                    "max_wait": g.config.max_wait,
                    "min_comrades": g.config.min_comrades,
                    "min_accumulated_trust": g.config.min_accumulated_trust,
                    "usage_windows": [list(w) for w in g.config.usage_windows],
                    "join_policy": g.config.join_policy.value,
                    "poll_interval": g.config.poll_interval,
                    "max_challenges_answered": g.config.max_challenges_answered,
                    "launch_grace": g.config.launch_grace,
                },
                "trust": {
                    "alpha": g.trust.alpha,
                    "success_trust": g.trust.success_trust,
                    "challenge_trust": g.trust.challenge_trust,
                    "failures_before_reset": g.trust.failures_before_reset,
                    "ramp_step": g.trust.ramp_step,
                    "ramp_cap": g.trust.ramp_cap,
                    "rechallenge_timeout": g.trust.rechallenge_timeout,
                    "max_rand": g.trust.max_rand,
                    "probe_count": g.trust.probe_count,
                },
            }
            for g in scenario.clients
        ],
        "target_sites": [
            {
                "url": site.url.render(),
                "base_latency": site.base_latency,
                "capacity": site.capacity,
                "timeout": site.timeout,
                "request_bytes": site.request_bytes,
                "cost_per_gib": site.cost_per_gib,
                "visitor_rate": site.visitor_rate,
                "revenue_per_visit": site.revenue_per_visit,
                "patience": site.patience,
            }
            for site in scenario.target_sites
        ],
        "spam_injections": [
            {
                "minute": s.minute,
                "clients": "all" if s.clients == "all" else list(s.clients),
                "body": s.mail.body,
                "footer_hint": s.mail.footer_hint,
            }
            for s in scenario.spam_injections
        ],
        "redirect_map": dict(scenario.redirect_map.mapping),
        "whitelist": list(scenario.whitelist),
        "adversaries": [
            {"strategy": a.strategy, **a.params} for a in scenario.adversaries
        ],
        "opt_out_rate": scenario.opt_out_rate,
        "campaign_duration": scenario.campaign_duration,
        "confirm_policy": scenario.confirm_policy,
    }


def load_file(path: str) -> Scenario:
    """Parse and validate a scenario JSON file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise InvalidScenario(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InvalidScenario(f"{path}: invalid JSON at line {exc.lineno}") from None
    if not isinstance(raw, dict):
        raise InvalidScenario(f"{path}: top level must be an object")
    return from_dict(raw)
