"""Scenario files: everything a simulation run needs, in one JSON document.

Field names in the JSON map 1:1 onto the dataclasses here. A scenario fixes
the seed, the client fleet, the advertised websites, when spam arrives and
to whom, redirector mappings, the whitelist, and any adversaries. Every
record checks itself when built, so a bad file, or a copy of a scenario
with a bad seed, fails with a named field before any simulation work starts.

The dataclasses are the schema: `from_dict` reads each record by its fields'
annotations, and `to_dict` writes the same fields back. Adversary params,
which the JSON keeps beside `strategy`, are described by `ADVERSARIES`.
"""

from __future__ import annotations

import contextlib
import json
import math
import reprlib
import types
import typing
from dataclasses import MISSING, dataclass, field, fields
from enum import Enum
from typing import Any, Literal, NamedTuple

from optoutswarm.coordinator import CoordinatorConfig
from optoutswarm.crypto import MAX_RAND_LIMIT
from optoutswarm.evaluator import CanonicalUrl, EmailDocument, InvalidUrl, canonicalize
from optoutswarm.trust import TrustConfig
from optoutswarm.website import MAX_QUANTITY, TargetSite

DEFAULT_OPT_OUT_RATE = 6
DEFAULT_CAMPAIGN_DURATION = 30  # minutes of bursting, matches the probe window


class InvalidScenario(Exception):
    """Scenario file fails validation; message names the offending field."""


# how a message shows the offending value: a short one as `repr` writes it,
# a long or deep one cut down, so that a huge bad value makes a short message
_shown = reprlib.Repr()
_shown.maxstring = _shown.maxlong = _shown.maxother = 100
_shown.maxlevel = 2


@dataclass(frozen=True)
class ClientGroup:
    """A block of identically configured clients."""

    count: int = 1
    config: CoordinatorConfig = field(default_factory=CoordinatorConfig)
    trust: TrustConfig = field(default_factory=TrustConfig)


@dataclass(frozen=True)
class SpamInjection:
    """One spam delivery: which minute, which clients, what text."""

    minute: int
    body: str
    clients: tuple[int, ...] | Literal["all"] = "all"
    footer_hint: str | None = None

    @property
    def mail(self) -> EmailDocument:
        return EmailDocument(body=self.body, footer_hint=self.footer_hint)


@dataclass(frozen=True)
class AdversarySpec:
    strategy: str
    params: dict[str, Any] = field(default_factory=dict)  # every param of the strategy


@dataclass(frozen=True)
class Scenario:
    seed: int
    duration: int
    clients: tuple[ClientGroup, ...]
    target_sites: tuple[TargetSite, ...] = ()
    spam_injections: tuple[SpamInjection, ...] = ()
    redirect_map: dict[str, str] = field(default_factory=dict)
    whitelist: tuple[str, ...] = ()
    adversaries: tuple[AdversarySpec, ...] = ()
    opt_out_rate: int = DEFAULT_OPT_OUT_RATE
    campaign_duration: int = DEFAULT_CAMPAIGN_DURATION
    # the user's per-URL decision, modeled as a policy
    confirm_policy: Literal["accept_all", "reject_all"] = "accept_all"

    def __post_init__(self) -> None:
        """Range and cross-field checks; raises InvalidScenario naming the field."""
        _check("int", self.seed, self, "seed")
        _check("int", self.duration, self, "duration", low=1)
        _require(len(self.clients) > 0, "clients: at least one group required")
        for i, group in enumerate(self.clients):
            _check("int", group.count, self, f"clients[{i}].count", low=1)
        max_wait = max(g.config.max_wait for g in self.clients)
        _require(
            self.duration >= max_wait,
            f"duration: must be at least the largest max_wait ({max_wait})",
        )
        urls = set()
        for i, site in enumerate(self.target_sites):
            _require(site.url not in urls, f"target_sites[{i}].url: {site.url} is listed twice")
            urls.add(site.url)
        for i, entry in enumerate(self.whitelist):  # matched against lowercased hosts
            _require(
                entry != "" and entry == entry.strip().lower(),
                f"whitelist[{i}]: must be a lowercase host without spaces around it, "
                f"got {_shown.repr(entry)}",
            )
        for i, injection in enumerate(self.spam_injections):
            _check("minute", injection.minute, self, f"spam_injections[{i}].minute")
            if injection.clients != "all":
                where = f"spam_injections[{i}].clients"
                for j, idx in enumerate(injection.clients):  # a repeat gets the spam twice
                    _check("client", idx, self, where)
                    _require(idx not in injection.clients[:j], f"{where}: {idx} is listed twice")
        _check("int", self.opt_out_rate, self, "opt_out_rate", high=MAX_QUANTITY)
        _check("int", self.campaign_duration, self, "campaign_duration", low=1)
        for i, adversary in enumerate(self.adversaries):
            where = f"adversaries[{i}]"
            spec = _strategy(adversary.strategy)
            _require(
                spec is not None,
                f"{where}.strategy: unknown strategy {_shown.repr(adversary.strategy)}",
            )
            if unknown := sorted(adversary.params.keys() - spec.keys()):
                raise InvalidScenario(f"{where}.{unknown[0]}: unknown field")
            for name, param in spec.items():
                _require(name in adversary.params, f"{where}.{name}: required")
                _check(param.kind, adversary.params[name], self, f"{where}.{name}",
                       param.low, param.high)

    @property
    def client_count(self) -> int:
        return sum(group.count for group in self.clients)

    def injection_targets(self, injection: SpamInjection) -> tuple[int, ...]:
        if injection.clients == "all":
            return tuple(range(self.client_count))
        return tuple(injection.clients)  # type: ignore[arg-type]


REQUIRED = object()


class Param(NamedTuple):
    """One adversary param and its default (REQUIRED if it has none).

    `kind` is "bool", "int" (in [`low`, `high`]), "client" (an index into
    the fleet) or "minute" (a minute of the run, in [0, duration)).
    """

    kind: str
    default: Any = REQUIRED
    low: int = 0
    high: float = math.inf


ADVERSARIES: dict[str, dict[str, Param]] = {
    "time_portal": {
        "offset_minutes": Param("int", low=1),
        "injection_period": Param("int", 30, low=1),
    },
    "separation": {
        "injection_period": Param("int", low=1),
        "lead_minutes": Param("int", 60, low=1),
    },
    "challenge_flood": {
        "victim": Param("client"),
        "count": Param("int", low=1),
        "at_minute": Param("minute", 30),
        "max_rand": Param("int", 10_000, high=MAX_RAND_LIMIT),
    },
    "mitm_forwarder": {"rewrite_issuer": Param("bool", False)},
    "sybil_flood": {"identity_count": Param("int", low=1)},
}

_RECORDS = (Scenario, ClientGroup, CoordinatorConfig, TrustConfig, TargetSite, SpamInjection)

# every record's fields, in declaration order, with their annotations resolved
_FIELDS = {cls: typing.get_type_hints(cls) for cls in _RECORDS}

_SCALARS = {
    int: "an integer",
    str: "a string",
    bool: "true or false",
    type(None): "null",
}


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise InvalidScenario(message)


def _expect(condition: bool, path: str, what: str, value: Any) -> None:
    _require(condition, f"{path or 'top level'}: must be {what}, got {_shown.repr(value)}")


def _at(path: str, name: str) -> str:
    return f"{path}.{name}" if path else name


def _read(tp: Any, value: Any, path: str) -> Any:
    """Parsed JSON `value` as annotation `tp`; raises naming `path`."""
    if tp in _FIELDS:
        return _read_record(tp, value, path)
    if tp is AdversarySpec:
        return _read_adversary(value, path)
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is typing.Union or origin is types.UnionType:  # arms take distinct JSON kinds
        for arm in args[1:]:
            with contextlib.suppress(InvalidScenario):
                return _read(arm, value, path)
        return _read(args[0], value, path)  # fails, naming what the first arm takes
    if origin is tuple:  # tuple[X, ...] or a fixed tuple such as tuple[int, int]
        _expect(type(value) is list, path, "a list", value)
        items = [args[0]] * len(value) if args[-1] is Ellipsis else args
        _expect(len(items) == len(value), path, f"a list of {len(items)} items", value)
        return tuple(
            _read(item, v, f"{path}[{i}]") for i, (item, v) in enumerate(zip(items, value))
        )
    if origin is dict:  # dict[str, str]: JSON object keys are always strings
        _expect(
            type(value) is dict and all(type(v) is str for v in value.values()),
            path, "an object of strings", value,
        )
        return dict(value)
    if origin is Literal:
        _expect(value in args, path, " or ".join(map(repr, args)), value)
        return value
    if isinstance(tp, type) and issubclass(tp, Enum):  # read by its value
        choices = [member.value for member in tp]
        _expect(value in choices, path, " or ".join(map(repr, choices)), value)
        return tp(value)
    if tp is CanonicalUrl:
        try:
            return canonicalize(_read(str, value, path))
        except InvalidUrl as exc:
            raise InvalidScenario(f"{path}: {exc}") from None
    if tp is float:  # an int stays an int, so the normalized form keeps it
        finite = type(value) is int or (type(value) is float and math.isfinite(value))
        _expect(finite, path, "a finite number", value)
    else:
        _expect(type(value) is tp, path, _SCALARS[tp], value)
    return value


def _read_record(cls: type, raw: Any, path: str) -> Any:
    annotations = _FIELDS[cls]
    _expect(type(raw) is dict, path, "an object", raw)
    if unknown := sorted(raw.keys() - annotations.keys()):
        raise InvalidScenario(f"{_at(path, unknown[0])}: unknown field")
    for f in fields(cls):
        has_default = f.default is not MISSING or f.default_factory is not MISSING
        _require(f.name in raw or has_default, f"{_at(path, f.name)}: required")
    kwargs = {
        name: _read(annotations[name], value, _at(path, name)) for name, value in raw.items()
    }
    try:
        return cls(**kwargs)
    except ValueError as exc:  # a range check in the record's __post_init__
        raise InvalidScenario(f"{path}: {exc}") from None


def _strategy(name: Any) -> dict[str, Param] | None:
    return ADVERSARIES.get(name) if type(name) is str else None


def _read_adversary(raw: Any, path: str) -> AdversarySpec:
    """The spec as written, with its strategy's defaults filled in; the
    Scenario checks it when built."""
    _expect(type(raw) is dict, path, "an object", raw)
    params = dict(raw)
    strategy = params.pop("strategy", None)
    defaults = {
        name: p.default
        for name, p in (_strategy(strategy) or {}).items()
        if p.default is not REQUIRED
    }
    return AdversarySpec(strategy, {**defaults, **params})


def from_dict(raw: dict[str, Any]) -> Scenario:
    """Build and validate a Scenario from parsed JSON."""
    return _read(Scenario, raw, "")


def _check(
    kind: str, value: Any, scenario: Scenario, where: str, low: int = 0, high: float = math.inf
) -> None:
    """`value` must be of `kind`, as a `Param` names it."""
    if kind == "bool":
        _require(type(value) is bool, f"{where}: must be true or false, got {_shown.repr(value)}")
    elif kind == "client":
        _require(
            type(value) is int and 0 <= value < scenario.client_count,
            f"{where}: no client {_shown.repr(value)}",
        )
    else:
        if kind == "minute":
            high = scenario.duration - 1
        _require(
            type(value) is int and low <= value <= high,
            f"{where}: must be an integer in [{low}, {high}], got {_shown.repr(value)}",
        )


def to_dict(value: Any) -> Any:
    """Normalized JSON-ready form of a Scenario; from_dict(to_dict(s)) round-trips."""
    if type(value) in _FIELDS:
        return {name: to_dict(getattr(value, name)) for name in _FIELDS[type(value)]}
    if type(value) is AdversarySpec:
        return {"strategy": value.strategy, **value.params}
    if type(value) is tuple:
        return [to_dict(item) for item in value]
    return value.value if isinstance(value, Enum) else value


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    """One JSON object; a key given twice is rejected, not overwritten."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen = set()
        for key, _ in pairs:  # name the first key that repeats one before it
            if key in seen:
                raise InvalidScenario(f"duplicate key {_shown.repr(key)}")
            seen.add(key)
    return obj


def load_file(path: str) -> Scenario:
    """Parse and validate a scenario JSON file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle, object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise InvalidScenario(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise InvalidScenario(f"{path}: not UTF-8 text at byte {exc.start}") from None
    except RecursionError:
        raise InvalidScenario(f"{path}: JSON nested too deeply") from None
    except json.JSONDecodeError as exc:
        raise InvalidScenario(f"{path}: invalid JSON at line {exc.lineno}") from None
    except ValueError as exc:  # an integer literal longer than int() converts
        raise InvalidScenario(f"{path}: invalid JSON: {exc}") from None
    except InvalidScenario as exc:
        raise InvalidScenario(f"{path}: {exc}") from None
    if not isinstance(raw, dict):
        raise InvalidScenario(f"{path}: top level must be an object")
    return from_dict(raw)
