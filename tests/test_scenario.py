"""Scenario parsing, validation diagnostics, and round-tripping."""

import dataclasses
import json
import re
from functools import reduce
from operator import getitem
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from optoutswarm.coordinator import CoordinatorConfig, JoinPolicy
from optoutswarm.scenario import (
    AdversarySpec,
    InvalidScenario,
    Scenario,
    from_dict,
    load_file,
    to_dict,
)
from optoutswarm.simulation import run
from optoutswarm.trust import TrustConfig

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"
README = ROOT / "README.md"


def minimal(**overrides) -> dict:
    raw = {
        "seed": 1,
        "duration": 10080,
        "clients": [{"count": 3}],
    }
    raw.update(overrides)
    return raw


class TestFromDict:
    def test_minimal_document_parses(self):
        scenario = from_dict(minimal())
        assert scenario.seed == 1
        assert scenario.client_count == 3
        assert scenario.clients[0].config.min_wait == 60
        assert scenario.confirm_policy == "accept_all"

    def test_missing_required_field_named(self):
        with pytest.raises(InvalidScenario, match="duration"):
            from_dict({"seed": 1, "clients": [{"count": 1}]})

    def test_nested_configs_applied(self):
        raw = minimal(
            clients=[{
                "count": 2,
                "config": {"min_wait": 30, "max_wait": 240, "join_policy": "highest_trust"},
                "trust": {"alpha": 3.0, "max_rand": 500},
            }],
            duration=240,
        )
        scenario = from_dict(raw)
        group = scenario.clients[0]
        assert group.config.join_policy is JoinPolicy.HIGHEST_TRUST
        assert group.config.max_wait == 240
        assert group.trust.alpha == 3.0
        assert group.trust.max_rand == 500

    def test_injection_targets_expand_all(self):
        raw = minimal(
            spam_injections=[{"minute": 5, "clients": "all", "body": "http://x.example/a"}]
        )
        scenario = from_dict(raw)
        assert scenario.injection_targets(scenario.spam_injections[0]) == (0, 1, 2)

    def test_explicit_injection_targets_kept(self):
        raw = minimal(
            spam_injections=[{"minute": 5, "clients": [2, 0], "body": "u"}]
        )
        scenario = from_dict(raw)
        assert scenario.injection_targets(scenario.spam_injections[0]) == (2, 0)


class TestValidation:
    @pytest.mark.parametrize(
        ("overrides", "fragment"),
        [
            ({"seed": -1}, "seed"),
            ({"duration": 0}, "duration"),
            ({"clients": []}, "clients"),
            ({"clients": [{"count": 0}]}, "count"),
            ({"duration": 100}, "max_wait"),  # shorter than default max_wait
            ({"opt_out_rate": -1}, "opt_out_rate"),
            ({"campaign_duration": 0}, "campaign_duration"),
            ({"confirm_policy": "maybe"}, "confirm_policy"),
            # unknown keys, at any level
            ({"seeed": 1}, r"^seeed: unknown field"),
            ({"clients": [{"count": 1, "config": {"mni_comrades": 2}}]},
             r"^clients\[0\]\.config\.mni_comrades: unknown field"),
            ({"clients": [{"count": 1, "trust": {"alpah": 3.0}}]},
             r"^clients\[0\]\.trust\.alpah: unknown field"),
            ({"spam_injections": [{"minute": 5, "body": "u", "footer": "x"}]},
             r"^spam_injections\[0\]\.footer: unknown field"),
            ({"adversaries": [{"strategy": "sybil_flood", "identity_count": 5, "ids": 5}]},
             r"^adversaries\[0\]\.ids: unknown field"),
            # a range check in a record's __post_init__, named by the record's path
            ({"clients": [{"count": 1, "trust": {"probe_count": 0}}]},
             r"^clients\[0\]\.trust: probe_count"),
            ({"clients": [{"count": 1, "trust": {"alpha": float("nan")}}]},
             r"^clients\[0\]\.trust\.alpha: must be a finite number"),
            ({"clients": [{"count": 1, "trust": {"alpha": float("inf")}}]},
             r"^clients\[0\]\.trust\.alpha: must be a finite number"),
        ],
    )
    def test_field_violations_are_named(self, overrides, fragment):
        with pytest.raises(InvalidScenario, match=fragment):
            from_dict(minimal(**overrides))

    def test_a_copy_with_a_bad_seed_is_rejected_as_it_is_built(self):
        scenario = from_dict(minimal())
        with pytest.raises(InvalidScenario, match=r"^seed: must be an integer in \[0, inf\]"):
            dataclasses.replace(scenario, seed=-1)

    def test_min_wait_not_below_max_wait_rejected(self):
        raw = minimal(clients=[{"count": 1, "config": {"min_wait": 240, "max_wait": 240}}])
        with pytest.raises(InvalidScenario, match="min_wait"):
            from_dict(raw)

    def test_injection_minute_outside_run_rejected(self):
        raw = minimal(spam_injections=[{"minute": 10080, "clients": "all", "body": "u"}])
        with pytest.raises(InvalidScenario, match="minute"):
            from_dict(raw)

    def test_injection_client_index_out_of_range(self):
        raw = minimal(spam_injections=[{"minute": 5, "clients": [3], "body": "u"}])
        with pytest.raises(InvalidScenario, match="no client 3"):
            from_dict(raw)

    def test_unknown_adversary_strategy_rejected(self):
        raw = minimal(adversaries=[{"strategy": "ddos"}])
        with pytest.raises(InvalidScenario, match="unknown strategy 'ddos'"):
            from_dict(raw)

    @pytest.mark.parametrize(
        ("adversary", "fragment"),
        [
            ({"strategy": "time_portal"}, "offset_minutes"),
            ({"strategy": "separation"}, "injection_period"),
            ({"strategy": "challenge_flood", "count": 5}, "victim"),
            ({"strategy": "challenge_flood", "victim": 9, "count": 5}, "no client 9"),
            ({"strategy": "challenge_flood", "victim": 0}, "count"),
            ({"strategy": "sybil_flood"}, "identity_count"),
            ({"strategy": "challenge_flood", "victim": 0, "count": 5, "max_rand": -1},
             "max_rand"),
            ({"strategy": "challenge_flood", "victim": 0, "count": 5, "max_rand": 2.5},
             "max_rand"),
        ],
    )
    def test_adversary_params_validated(self, adversary, fragment):
        with pytest.raises(InvalidScenario, match=fragment):
            from_dict(minimal(adversaries=[adversary]))

    @pytest.mark.parametrize(
        ("adversary", "message"),
        [
            (AdversarySpec("ddos"), "adversaries[0].strategy: unknown strategy 'ddos'"),
            (AdversarySpec("sybil_flood"), "adversaries[0].identity_count: required"),
            (AdversarySpec("sybil_flood", {"identity_count": 5, "bogus": 1}),
             "adversaries[0].bogus: unknown field"),
        ],
        ids=["unknown_strategy", "missing_param", "unknown_param"],
    )
    def test_an_adversary_built_in_code_is_checked_as_a_file_is(self, adversary, message):
        base = from_dict(minimal())
        with pytest.raises(InvalidScenario) as raised:
            dataclasses.replace(base, adversaries=(adversary,))
        assert str(raised.value) == message

    def test_mitm_forwarder_needs_no_params(self):
        scenario = from_dict(minimal(adversaries=[{"strategy": "mitm_forwarder"}]))
        # defaults are filled at load, so the run reads every param from the spec
        assert scenario.adversaries[0].params == {"rewrite_issuer": False}

    def test_adversary_defaults_filled_at_load(self):
        scenario = from_dict(minimal(adversaries=[
            {"strategy": "challenge_flood", "victim": 0, "count": 5},
            {"strategy": "time_portal", "offset_minutes": 600},
            {"strategy": "separation", "injection_period": 30},
        ]))
        flood, portal, separation = (a.params for a in scenario.adversaries)
        assert flood == {"victim": 0, "count": 5, "at_minute": 30, "max_rand": 10_000}
        assert portal == {"offset_minutes": 600, "injection_period": 30}
        assert separation == {"injection_period": 30, "lead_minutes": 60}


class TestRoundTrip:
    def test_to_dict_then_from_dict_is_identity(self):
        raw = minimal(
            duration=400,
            clients=[{
                "count": 4,
                "config": {"min_wait": 30, "max_wait": 240, "min_comrades": 2},
                "trust": {"max_rand": 100},
            }],
            target_sites=[{
                "url": "http://pills.example/buy",
                "base_latency": 100.0,
                "capacity": 120.0,
                "timeout": 5000.0,
                "request_bytes": 2048,
                "cost_per_gib": 0.05,
                "visitor_rate": 10.0,
                "revenue_per_visit": 1.5,
                "patience": 200.0,
            }],
            spam_injections=[{"minute": 5, "clients": "all",
                              "body": "buy at http://pills.example/buy now"}],
            redirect_map={"http://t.example/1": "http://pills.example/buy"},
            whitelist=["mail.example"],
            adversaries=[{"strategy": "sybil_flood", "identity_count": 10}],
            opt_out_rate=12,
        )
        first = from_dict(raw)
        second = from_dict(to_dict(first))
        assert first == second
        assert to_dict(first) == to_dict(second)

    def test_normalized_form_is_json_serializable(self):
        scenario = from_dict(minimal())
        json.dumps(to_dict(scenario), sort_keys=True)


class TestLoadFile:
    def test_valid_file_loads(self, tmp_path):
        path = tmp_path / "scn.json"
        path.write_text(json.dumps(minimal()))
        assert load_file(str(path)).client_count == 3

    def test_missing_file_named_in_error(self, tmp_path):
        with pytest.raises(InvalidScenario, match="cannot read"):
            load_file(str(tmp_path / "absent.json"))

    def test_syntax_error_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "seed": 1,\n  oops\n}\n')
        with pytest.raises(InvalidScenario, match="line 3"):
            load_file(str(path))

    def test_non_object_top_level_rejected(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(InvalidScenario, match="top level"):
            load_file(str(path))


@pytest.mark.parametrize("record", [CoordinatorConfig, TrustConfig])
def test_readme_lists_every_field_of_a_client_record(record):
    # "Client `config` mirrors `CoordinatorConfig`: `min_wait`, ..., `launch_grace`."
    text = " ".join(README.read_text(encoding="utf-8").split())
    listed = re.search(rf"mirrors `{record.__name__}`: (.*?`)\.", text).group(1)
    listed = re.sub(r"\([^)]*\)", "", listed)  # values such as (`join_all` or ...)
    assert re.findall(r"`(\w+)`", listed) == [f.name for f in dataclasses.fields(record)]


def test_bundled_scenarios_all_validate():
    import glob
    import os

    root = os.path.join(os.path.dirname(__file__), "..", "scenarios")
    paths = sorted(glob.glob(os.path.join(root, "*.json")))
    assert len(paths) >= 6
    for path in paths:
        scenario = load_file(path)
        assert isinstance(scenario, Scenario)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 500) | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=6,
)


def _paths(node, prefix=()):
    """Every path into a parsed JSON document, the document's own first."""
    yield prefix
    if type(node) is dict:
        children = node.items()
    elif type(node) is list:
        children = enumerate(node)
    else:
        children = ()
    for key, child in children:
        yield from _paths(child, prefix + (key,))


@st.composite
def mutated_scenarios(draw):
    """A small bundled scenario with one value replaced, one key deleted or
    one unknown key added, anywhere in the document."""
    name = draw(st.sampled_from(["baseline.json", "challenge_flood.json"]))
    holder = [json.loads((SCENARIOS / name).read_text())]
    paths = [p for p in _paths(holder) if p]
    how = draw(st.sampled_from(["replace", "delete", "add"]))
    if how == "replace":
        path = draw(st.sampled_from(paths))
        reduce(getitem, path[:-1], holder)[path[-1]] = draw(JSON_VALUES)
    elif how == "delete":
        path = draw(st.sampled_from([p for p in paths if type(p[-1]) is str]))
        del reduce(getitem, path[:-1], holder)[path[-1]]
    else:
        objects = [p for p in paths if type(reduce(getitem, p, holder)) is dict]
        target = reduce(getitem, draw(st.sampled_from(objects)), holder)
        target["unknown_" + draw(st.text(max_size=8))] = draw(JSON_VALUES)
    return holder[0]


@settings(max_examples=60, deadline=None)
@given(mutated_scenarios())
def test_mutated_scenario_is_rejected_or_runs(raw):
    try:
        scenario = from_dict(raw)
    except InvalidScenario:
        return
    assert from_dict(to_dict(scenario)) == scenario
    # a drawn `count` of up to 500 is valid, but a run costs the fleet size squared
    assume(scenario.client_count <= 16)
    run(scenario, lambda _event: None)
