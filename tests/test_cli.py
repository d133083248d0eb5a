"""Command-line behavior: exit codes, summaries, output files, sweeps."""

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from optoutswarm.cli import EXIT_INVALID, EXIT_OK, main
from optoutswarm.website import MAX_QUANTITY

URL = "http://tiny.example/go"
BASELINE = Path(__file__).resolve().parent.parent / "scenarios" / "baseline.json"
SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture()
def scenario_path(tmp_path):
    raw = {
        "seed": 7,
        "duration": 300,
        "clients": [{
            "count": 6,
            "config": {"min_wait": 30, "max_wait": 240, "min_comrades": 3,
                       "max_challenges_answered": 60},
            "trust": {"max_rand": 100},
        }],
        "target_sites": [{
            "url": URL,
            "base_latency": 100.0,
            "capacity": 80.0,
            "timeout": 5000.0,
            "request_bytes": 1024,
            "cost_per_gib": 0.05,
            "visitor_rate": 5.0,
            "revenue_per_visit": 2.0,
            "patience": 250.0,
        }],
        "spam_injections": [
            {"minute": 3, "clients": "all", "body": f"visit {URL} now"}
        ],
        "opt_out_rate": 20,
    }
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(raw))
    return path


class TestValidate:
    def test_valid_file_prints_normalized_form(self, scenario_path, capsys):
        assert main(["validate", str(scenario_path)]) == EXIT_OK
        parsed = json.loads(capsys.readouterr().out)
        assert parsed["seed"] == 7
        assert parsed["clients"][0]["count"] == 6
        assert parsed["target_sites"][0]["url"] == URL

    def test_invalid_field_exits_2_and_names_it(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"seed": 1, "duration": 0,
                                    "clients": [{"count": 1}]}))
        assert main(["validate", str(path)]) == EXIT_INVALID
        err = capsys.readouterr().err
        assert "invalid scenario" in err
        assert "duration" in err

    def test_unknown_strategy_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "seed": 1, "duration": 10080, "clients": [{"count": 1}],
            "adversaries": [{"strategy": "nope"}],
        }))
        assert main(["validate", str(path)]) == EXIT_INVALID
        assert "unknown strategy" in capsys.readouterr().err

    def test_malformed_json_exits_2_with_line(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{\n"seed": 1,,\n}')
        assert main(["validate", str(path)]) == EXIT_INVALID
        assert "line 2" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "content, reason",
        [
            (b'{"seed": 1, "duration": "\xff"}', "not UTF-8 text at byte 25"),
            (b'{"a":' * 100_000, "JSON nested too deeply"),
            (b'{"seed": ' + b"7" * 5000 + b', "duration": 300, "clients": [{"count": 6}]}',
             "invalid JSON: Exceeds the limit (4300 digits)"),
        ],
        ids=["not-utf8", "nested-past-the-decoder", "5000-digit-seed"],
    )
    def test_undecodable_file_exits_2(self, tmp_path, content, reason, capsys):
        # was: exit 1, "internal failure" (UnicodeDecodeError, RecursionError,
        # and the plain ValueError of an integer longer than int() converts)
        path = tmp_path / "undecodable.json"
        path.write_bytes(content)
        for command in ("validate", "run"):
            assert main([command, str(path)]) == EXIT_INVALID
            assert f"{path}: {reason}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "old, new, key",
        [
            ('"seed": 7', '"seed": 7, "seed": 8', "seed"),
            ('"opt_out_rate": 20', '"opt_out_rate": 20, "adversaries": '
             '[{"strategy": "challenge_flood"}], "adversaries": []', "adversaries"),
            ('"min_comrades": 3', '"min_comrades": 3, "min_comrades": 4', "min_comrades"),
            # was: each key looked for among all before it, 3.4 s CPU at 20,000 keys
            ('"seed": 7', '"seed": 7, "redirect_map": {'
             + "".join(f'"k{i}": "x", ' for i in range(100_000)) + '"k0": "x", "k1": "x"}',
             "k0"),
        ],
        ids=["top-level", "list", "nested", "100,000-keys"],
    )
    def test_a_key_given_twice_exits_2_and_names_it(
        self, scenario_path, old, new, key, capsys
    ):
        # was: exit 0, the last value silently kept
        text = scenario_path.read_text()
        assert old in text
        scenario_path.write_text(text.replace(old, new))
        for command in ("validate", "run"):
            started = time.process_time()
            assert main([command, str(scenario_path)]) == EXIT_INVALID
            assert time.process_time() - started < 5
            assert f"duplicate key '{key}'" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["validate", str(tmp_path / "nope.json")]) == EXIT_INVALID
        assert "cannot read" in capsys.readouterr().err


class TestRun:
    def test_table_summary_line(self, scenario_path, capsys):
        assert main(["run", str(scenario_path)]) == EXIT_OK
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 1
        assert "seed=7" in out[0]
        assert "campaigns_launched=1" in out[0]
        assert f"convergence[{URL}]=1.000" in out[0]

    def test_json_lines_summary(self, scenario_path, capsys):
        assert main(["run", str(scenario_path), "--summary", "json-lines"]) == EXIT_OK
        record = json.loads(capsys.readouterr().out)
        assert record["seed"] == 7
        assert record["totals"]["campaigns_launched"] == 1

    def test_seed_override(self, scenario_path, capsys):
        assert main(["run", str(scenario_path), "--seed", "9"]) == EXIT_OK
        assert "seed=9" in capsys.readouterr().out

    def test_out_file_is_reproducible_ndjson(self, scenario_path, tmp_path, capsys):
        first = tmp_path / "a.ndjson"
        second = tmp_path / "b.ndjson"
        assert main(["run", str(scenario_path), "--out", str(first)]) == EXIT_OK
        assert main(["run", str(scenario_path), "--out", str(second)]) == EXIT_OK
        capsys.readouterr()
        assert first.read_bytes() == second.read_bytes()
        lines = first.read_text().splitlines()
        assert json.loads(lines[-1])["type"] == "summary"

    def test_sweep_writes_one_file_and_row_per_seed(self, scenario_path, tmp_path, capsys):
        out = tmp_path / "runs.ndjson"
        assert main(["run", str(scenario_path), "--sweep", "3..7",
                     "--out", str(out)]) == EXIT_OK
        rows = capsys.readouterr().out.strip().splitlines()
        assert len(rows) == 5
        assert [f"seed={s}" in row for s, row in zip(range(3, 8), rows)] == [True] * 5
        files = sorted(p.name for p in tmp_path.glob("runs-seed*.ndjson"))
        assert files == [f"runs-seed{s}.ndjson" for s in range(3, 8)]

    def test_invalid_scenario_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("[]")
        assert main(["run", str(path)]) == EXIT_INVALID

    @pytest.mark.parametrize("bad", [
        {"max_rand": -1},
        {"probe_count": 0},
        {"probe_count": 31},  # 30 // 31 == 0: probes never spread, nothing judged
        {"alpha": 1},
        # was: ran to exit 0
        {"rechallenge_timeout": 0},  # re-challenged every peer on every poll
        {"failures_before_reset": 0},  # reset on every failed campaign
        # was: validate 0, run 1 ("int too big to convert" in the C kernel)
        {"max_rand": 2**63},
        {"max_rand": 2**70},
    ], ids=["max_rand=-1", "probe_count=0", "probe_count=31", "alpha=1",
            "rechallenge_timeout=0", "failures_before_reset=0",
            "max_rand=2**63", "max_rand=2**70"])
    def test_bad_trust_field_exits_2_before_running(self, scenario_path, bad, capsys):
        raw = json.loads(scenario_path.read_text())
        raw["clients"][0]["trust"].update(bad)
        scenario_path.write_text(json.dumps(raw))
        for command in ("validate", "run"):
            assert main([command, str(scenario_path)]) == EXIT_INVALID
            captured = capsys.readouterr()
            assert "clients[0].trust" in captured.err
            assert captured.out == ""

    # the trust model's units are fixed, not settings: a file that sets one,
    # even to the value it has, is rejected by name
    @pytest.mark.parametrize("removed", [
        {"success_trust": 1},
        {"challenge_trust": 1},
        {"ramp_step": 1},
        {"ramp_cap": 10},
    ], ids=["success_trust=1", "challenge_trust=1", "ramp_step=1", "ramp_cap=10"])
    def test_removed_trust_field_exits_2(self, scenario_path, removed, capsys):
        raw = json.loads(scenario_path.read_text())
        raw["clients"][0]["trust"].update(removed)
        scenario_path.write_text(json.dumps(raw))
        [name] = removed
        for command in ("validate", "run"):
            assert main([command, str(scenario_path)]) == EXIT_INVALID
            captured = capsys.readouterr()
            assert f"clients[0].trust.{name}: unknown field" in captured.err
            assert captured.out == ""

    @pytest.mark.parametrize("bad", [
        {"poll_interval": 0},  # was: exit 1, "integer modulo by zero"
        {"poll_interval": -5},  # was: polled every 5 minutes
        {"max_challenges_answered": -1},  # was: never answered, exit 0
        {"launch_grace": -1},  # was: never launched, exit 0
        {"launch_grace": 0},
        {"min_accumulated_trust": -1},  # was: ran to exit 0
        {"max_wait": 20000},  # was: exit 0, every roster expired before its start
    ], ids=["poll_interval=0", "poll_interval=-5", "max_challenges_answered=-1",
            "launch_grace=-1", "launch_grace=0", "min_accumulated_trust=-1",
            "max_wait=20000"])
    def test_bad_coordinator_timing_exits_2_before_running(self, scenario_path, bad, capsys):
        raw = json.loads(scenario_path.read_text())
        raw["clients"][0]["config"].update(bad)
        scenario_path.write_text(json.dumps(raw))
        for command in ("validate", "run"):
            assert main([command, str(scenario_path)]) == EXIT_INVALID
            captured = capsys.readouterr()
            assert "clients[0].config" in captured.err
            assert captured.out == ""

    @pytest.mark.parametrize("max_rand", [-1, 2.5, "10", 2**63, 2**70])
    def test_bad_challenge_flood_max_rand_exits_2(self, scenario_path, max_rand, capsys):
        raw = json.loads(scenario_path.read_text())
        raw["adversaries"] = [{"strategy": "challenge_flood", "victim": 0, "count": 5,
                               "max_rand": max_rand}]
        scenario_path.write_text(json.dumps(raw))
        for command in ("validate", "run"):  # validate used to exit 0, run 1
            assert main([command, str(scenario_path)]) == EXIT_INVALID
            captured = capsys.readouterr()
            assert "adversaries[0].max_rand" in captured.err
            assert captured.out == ""

    @pytest.mark.parametrize(("adversary", "field"), [
        # was: validate 0, run 1 ("integer modulo by zero")
        ({"strategy": "time_portal", "offset_minutes": 60, "injection_period": 0},
         "injection_period"),
        # was: ran silently, injecting every 30 minutes
        ({"strategy": "time_portal", "offset_minutes": 60, "injection_period": -30},
         "injection_period"),
        ({"strategy": "separation", "injection_period": 2.5}, "injection_period"),
        ({"strategy": "separation", "injection_period": "30"}, "injection_period"),
        # was: both exit 0 with the flood (idle)
        ({"strategy": "challenge_flood", "victim": 0, "count": 5, "at_minute": -5},
         "at_minute"),
        ({"strategy": "challenge_flood", "victim": 0, "count": 5, "at_minute": 300},
         "at_minute"),
        ({"strategy": "challenge_flood", "victim": 0, "count": 5, "at_minute": 1000000},
         "at_minute"),
        # was: truncated by int()
        ({"strategy": "challenge_flood", "victim": 0, "count": 5, "at_minute": 2.5},
         "at_minute"),
        ({"strategy": "challenge_flood", "victim": 0.5, "count": 5}, "victim"),
        ({"strategy": "challenge_flood", "victim": 0, "count": 2.5}, "count"),
        ({"strategy": "challenge_flood", "victim": 0, "count": True}, "count"),
        # was: validate 1 (int("soon") raised ValueError)
        ({"strategy": "time_portal", "offset_minutes": "soon"}, "offset_minutes"),
        ({"strategy": "sybil_flood", "identity_count": 2.5}, "identity_count"),
        # was: validate 0, run 1 ("invalid literal for int()")
        ({"strategy": "separation", "injection_period": 30, "lead_minutes": "soon"},
         "lead_minutes"),
        # was: ran silently, injecting starts in the past or truncated ones
        ({"strategy": "separation", "injection_period": 30, "lead_minutes": -30},
         "lead_minutes"),
        ({"strategy": "separation", "injection_period": 30, "lead_minutes": 0},
         "lead_minutes"),
        ({"strategy": "separation", "injection_period": 30, "lead_minutes": 2.5},
         "lead_minutes"),
        # was: bool("no") is True, so the run rewrote issuers
        ({"strategy": "mitm_forwarder", "rewrite_issuer": "no"}, "rewrite_issuer"),
        ({"strategy": "mitm_forwarder", "rewrite_issuer": 0}, "rewrite_issuer"),
    ], ids=["time_portal.period=0", "time_portal.period=-30", "separation.period=2.5",
            "separation.period='30'", "at_minute=-5", "at_minute=duration",
            "at_minute=1000000", "at_minute=2.5", "victim=0.5", "count=2.5", "count=true",
            "offset_minutes='soon'", "identity_count=2.5", "lead_minutes='soon'",
            "lead_minutes=-30", "lead_minutes=0", "lead_minutes=2.5",
            "rewrite_issuer='no'", "rewrite_issuer=0"])
    def test_bad_adversary_param_exits_2(self, scenario_path, adversary, field, capsys):
        raw = json.loads(scenario_path.read_text())
        raw["adversaries"] = [adversary]
        scenario_path.write_text(json.dumps(raw))
        for command in ("validate", "run"):
            assert main([command, str(scenario_path)]) == EXIT_INVALID
            captured = capsys.readouterr()
            assert f"adversaries[0].{field}" in captured.err
            assert captured.out == ""

    def test_adversary_param_bounds_accepted(self, scenario_path, capsys):
        raw = json.loads(scenario_path.read_text())
        raw["adversaries"] = [
            {"strategy": "time_portal", "offset_minutes": 60, "injection_period": 1},
            {"strategy": "challenge_flood", "victim": 5, "count": 1, "at_minute": 0},
            {"strategy": "challenge_flood", "victim": 0, "count": 1, "at_minute": 299},
            {"strategy": "separation", "injection_period": 1, "lead_minutes": 1},
            {"strategy": "mitm_forwarder", "rewrite_issuer": True},
            {"strategy": "mitm_forwarder", "rewrite_issuer": False},
        ]
        scenario_path.write_text(json.dumps(raw))
        assert main(["validate", str(scenario_path)]) == EXIT_OK

    @pytest.mark.parametrize(("change", "field"), [
        # was: truncated or coerced by int(), and the run went ahead
        ({"seed": 7.9}, "seed"),
        ({"seed": True}, "seed"),
        ({"duration": "400"}, "duration"),
        ({"duration": 300.0}, "duration"),
        ({"opt_out_rate": 2.5}, "opt_out_rate"),
        ({"opt_out_rate": "20"}, "opt_out_rate"),
        ({"campaign_duration": 30.5}, "campaign_duration"),
        ({"clients": [{"count": 2.7}]}, "clients[0].count"),
        ({"clients": [{"count": "6"}]}, "clients[0].count"),
        ({"clients": [{"count": True}]}, "clients[0].count"),
        # was: run exited 1 on an object or a bare number in the list
        ({"clients": {"count": 6}}, "clients"),
        ({"clients": [6]}, "clients[0]"),  # the element that is not an object
    ], ids=["seed=7.9", "seed=true", "duration='400'", "duration=300.0",
            "opt_out_rate=2.5", "opt_out_rate='20'", "campaign_duration=30.5",
            "count=2.7", "count='6'", "count=true", "clients={}", "clients=[6]"])
    def test_bad_top_level_field_exits_2(self, scenario_path, change, field, capsys):
        raw = json.loads(scenario_path.read_text())
        raw.update(change)
        scenario_path.write_text(json.dumps(raw))
        for command in ("validate", "run"):
            assert main([command, str(scenario_path)]) == EXIT_INVALID
            captured = capsys.readouterr()
            assert f"invalid scenario: {field}:" in captured.err
            assert captured.out == ""

    @pytest.mark.parametrize(("path", "value", "field"), [
        # was: exit 1 from both commands
        (("clients", 0, "config"), 5, "clients[0].config"),
        (("adversaries",), {"strategy": "sybil_flood"}, "adversaries"),
        (("adversaries",), ["sybil_flood"], "adversaries[0]"),
        (("clients", 0, "config", "usage_windows"), [[1, 2, 3]], "usage_windows[0]"),
        # was: validate 0, run 1
        (("spam_injections", 0, "body"), 5, "spam_injections[0].body"),
        # was: coerced or truncated, and the run went ahead
        (("redirect_map",), [["a", "b"]], "redirect_map"),
        (("whitelist",), "abc", "whitelist"),
        # was: never matched the lowercased host, so silently ignored
        (("whitelist",), ["PILLS.example"], "whitelist[0]"),
        (("whitelist",), ["mail.example", " pills.example"], "whitelist[1]"),
        (("whitelist",), ["pills.example\n"], "whitelist[0]"),
        (("whitelist",), [""], "whitelist[0]"),
        (("spam_injections", 0, "minute"), 5.5, "spam_injections[0].minute"),
        (("spam_injections", 0, "clients"), [0.7], "spam_injections[0].clients[0]"),
        # was: client 0 got the spam twice, and the run exited 0
        (("spam_injections", 0, "clients"), [0, 0, 1], "spam_injections[0].clients"),
        (("clients", 0, "config", "min_wait"), 30.5, "clients[0].config.min_wait"),
        (("clients", 0, "config", "max_wait"), 240.5, "clients[0].config.max_wait"),
        (("clients", 0, "config", "usage_windows"), [[0.5, 10000]],
         "usage_windows[0][0]"),
        (("clients", 0, "trust", "max_rand"), 10.5, "clients[0].trust.max_rand"),
        (("target_sites", 0, "request_bytes"), 1.5, "target_sites[0].request_bytes"),
        # was: exit 1 mid-run ("load must be non-negative"), and a negative cost
        (("target_sites", 0, "visitor_rate"), -3, "target_sites[0]"),
        (("target_sites", 0, "cost_per_gib"), -1, "target_sites[0]"),
        # was: ignored
        (("clients", 0, "config", "mni_comrades"), 3, "clients[0].config.mni_comrades"),
        (("seeed",), 3, "seeed"),
        (("adversaries",), [{"strategy": "challenge_flood", "victim": 0, "cuont": 5}],
         "adversaries[0].cuont"),
        # was: the whole value in the message, 1,004,055 bytes for the first
        (("whitelist",), [["x" * 1000] * 1000], "whitelist[0]"),
        (("whitelist",), ["X" * 1_000_000], "whitelist[0]"),
        (("spam_injections", 0, "minute"), 10**1000, "spam_injections[0].minute"),
    ], ids=["config=5", "adversaries={}", "adversaries=[str]", "usage_windows=[[1,2,3]]",
            "body=5", "redirect_map=[[]]", "whitelist='abc'", "whitelist=[upper]",
            "whitelist=[spaced]", "whitelist=[newline]", "whitelist=['']", "minute=5.5",
            "clients=[0.7]", "clients=[0,0,1]", "min_wait=30.5", "max_wait=240.5", "usage_windows=[[0.5,..]]",
            "trust.max_rand=10.5", "request_bytes=1.5", "visitor_rate=-3",
            "cost_per_gib=-1", "config.mni_comrades", "seeed",
            "adversary.cuont", "whitelist=[[long]*1000]", "whitelist=[upper*1e6]",
            "minute=10**1000"])
    def test_malformed_field_exits_2(self, scenario_path, path, value, field, capsys):
        raw = json.loads(scenario_path.read_text())
        parent = raw
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        scenario_path.write_text(json.dumps(raw))
        for command in ("validate", "run"):
            assert main([command, str(scenario_path)]) == EXIT_INVALID
            captured = capsys.readouterr()
            assert f"{field}:" in captured.err
            assert len(captured.err.encode()) < 1024
            assert captured.out == ""

    @pytest.mark.parametrize(("change", "field"), [
        # was: validate 0, run 1 with "(34, 'Numerical result out of range')"
        ({"opt_out_rate": 10**300}, "opt_out_rate"),
        # was: validate 0, run 1 with "int too large to convert to float"
        ({"request_bytes": 10**400}, "request_bytes"),
        # was: exit 0, writing "lost_revenue":Infinity, which is not JSON
        ({"revenue_per_visit": 1e307, "patience": 100}, "revenue_per_visit"),
        # was: exit 0, writing "traffic_cost":Infinity
        ({"cost_per_gib": 1.7e308}, "cost_per_gib"),
        # was: exit 0, writing "baseline_ms":Infinity, the mean of two timeouts
        ({"timeout": 1.7e308, "base_latency": 1.6e308, "probe_count": 2}, "timeout"),
    ], ids=["opt_out_rate=10**300", "request_bytes=10**400", "revenue_per_visit=1e307",
            "cost_per_gib=1.7e308", "timeout=1.7e308"])
    def test_a_number_that_overflows_mid_run_exits_2(self, tmp_path, change, field, capsys):
        raw = json.loads(BASELINE.read_text())
        for name, value in change.items():
            if name == "opt_out_rate":
                raw[name] = value
            elif name == "probe_count":
                raw["clients"][0]["trust"][name] = value
            else:
                raw["target_sites"][0][name] = value
        path, out = tmp_path / "overflow.json", tmp_path / "out.ndjson"
        path.write_text(json.dumps(raw))
        for command in (["validate", str(path)], ["run", str(path), "--out", str(out)]):
            assert main(command) == EXIT_INVALID
            captured = capsys.readouterr()
            assert field in captured.err and str(MAX_QUANTITY) in captured.err
            assert len(captured.err.encode()) < 1024
            assert captured.out == ""
        assert not out.exists()

    def test_every_bounded_number_at_its_bound_runs_finite(self, tmp_path, capsys):
        raw = json.loads(BASELINE.read_text())
        raw["opt_out_rate"] = MAX_QUANTITY
        raw["clients"][0]["trust"]["probe_count"] = 2  # a median is a mean of two
        site = raw["target_sites"][0]
        for name in ("timeout", "request_bytes", "visitor_rate", "cost_per_gib",
                     "revenue_per_visit"):
            site[name] = MAX_QUANTITY
        path, out = tmp_path / "bounds.json", tmp_path / "out.ndjson"
        path.write_text(json.dumps(raw))
        assert main(["run", str(path), "--out", str(out)]) == EXIT_OK
        capsys.readouterr()

        def non_finite(token):
            raise AssertionError(f"{token} in the metrics stream")

        numbers = []

        def collect(value):
            if isinstance(value, dict):
                value = list(value.values())
            if isinstance(value, list):
                for item in value:
                    collect(item)
            elif isinstance(value, (int, float)):
                numbers.append(value)

        lines = out.read_text().splitlines()
        for line in lines:
            collect(json.loads(line, parse_constant=non_finite))
        assert all(math.isfinite(n) for n in numbers)
        # the bounds were reached: the site was flooded, slowed to its
        # timeout and lost visitors
        (totals,) = json.loads(lines[-1])["sites"].values()
        assert totals["opt_out_requests"] >= MAX_QUANTITY
        assert totals["lost_revenue"] >= MAX_QUANTITY**2
        assert any('"baseline_ms":%d.0' % MAX_QUANTITY in line for line in lines)

    def test_duplicate_site_url_exits_2(self, scenario_path, capsys):
        raw = json.loads(scenario_path.read_text())
        # the same site once canonicalized, so one would silently replace the other
        site = dict(raw["target_sites"][0], url="HTTP://Tiny.Example:80/go?id=2")
        raw["target_sites"].append(site)
        scenario_path.write_text(json.dumps(raw))
        for command in ("validate", "run"):
            assert main([command, str(scenario_path)]) == EXIT_INVALID
            captured = capsys.readouterr()
            assert "target_sites[1].url:" in captured.err
            assert captured.out == ""

    def test_negative_seed_override_exits_2(self, scenario_path, capsys):
        assert main(["run", str(scenario_path), "--seed", "-3"]) == EXIT_INVALID
        captured = capsys.readouterr()
        assert "invalid scenario: seed:" in captured.err
        assert captured.out == ""

    def test_sweep_through_a_negative_seed_exits_2_before_running(
        self, scenario_path, tmp_path, capsys
    ):
        out = tmp_path / "runs.ndjson"
        assert main(["run", str(scenario_path), "--sweep=-1..1",
                     "--out", str(out)]) == EXIT_INVALID
        captured = capsys.readouterr()
        assert "invalid scenario: seed:" in captured.err
        assert captured.out == ""
        assert list(tmp_path.glob("runs*")) == []

    @pytest.mark.parametrize("out_name, sweep", [
        ("missing/x.ndjson", []),
        ("missing/x.ndjson", ["--sweep", "0..1"]),
        ("", []),  # the directory itself
    ], ids=["missing-dir", "missing-dir-sweep", "directory"])
    def test_unwritable_out_exits_2_before_running(
        self, scenario_path, tmp_path, out_name, sweep, capsys
    ):
        # was: exit 1 after the run, naming a temporary path the user never typed
        out = tmp_path / out_name
        assert main(["run", str(scenario_path), "--out", str(out), *sweep]) == EXIT_INVALID
        captured = capsys.readouterr()
        assert captured.err.startswith(f"cannot write {out}: ")
        assert "Traceback" not in captured.err and ".tmp" not in captured.err
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == [scenario_path]

    def test_seed_and_sweep_are_exclusive(self, scenario_path, capsys):
        # was: --seed silently ignored
        with pytest.raises(SystemExit) as exit_info:
            main(["run", str(scenario_path), "--seed", "5", "--sweep", "0..1"])
        assert exit_info.value.code == EXIT_INVALID
        assert "not allowed with argument --seed" in capsys.readouterr().err

    def test_bad_sweep_spec_rejected(self, scenario_path, capsys):
        with pytest.raises(SystemExit):
            main(["run", str(scenario_path), "--sweep", "5"])
        assert "A..B" in capsys.readouterr().err

    def test_empty_sweep_rejected(self, scenario_path, capsys):
        with pytest.raises(SystemExit):
            main(["run", str(scenario_path), "--sweep", "5..3"])
        assert "empty" in capsys.readouterr().err


def _pinned_bytes(scenario_path, tmp_path, capsys, *args) -> bytes:
    """What `run --out` writes to a fresh regular file."""
    ref = tmp_path / "reference" / "run.ndjson"
    ref.parent.mkdir()
    assert main(["run", str(scenario_path), "--out", str(ref), *args]) == EXIT_OK
    capsys.readouterr()
    return ref.read_bytes()


class TestOutPath:
    """`--out` writes the file PATH names, whatever PATH is, and a failed
    write is a bad path, not an internal failure."""

    @pytest.mark.parametrize("sweep", [[], ["--sweep", "4..5"]], ids=["single", "sweep"])
    def test_symlink_stays_a_link_to_the_written_file(
        self, scenario_path, tmp_path, sweep, capsys
    ):
        # was: the link was replaced by a regular file and its target kept its bytes
        seed_args = sweep or ["--seed", "4"]
        pinned = _pinned_bytes(scenario_path, tmp_path, capsys, "--seed", "4")
        target = tmp_path / "elsewhere" / "real.ndjson"
        target.parent.mkdir()
        target.write_bytes(b"old bytes\n")
        link = tmp_path / ("runs-seed4.ndjson" if sweep else "runs.ndjson")
        link.symlink_to(target)
        out = tmp_path / "runs.ndjson"
        assert main(["run", str(scenario_path), "--out", str(out), *seed_args]) == EXIT_OK
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_bytes() == pinned
        assert not list(tmp_path.rglob("*.tmp"))

    def test_fifo_is_written_not_replaced(self, scenario_path, tmp_path, capsys):
        # was: the FIFO was replaced by a regular file, and its reader got nothing
        import stat
        import threading
        import time

        pinned = _pinned_bytes(scenario_path, tmp_path, capsys)
        fifo = tmp_path / "metrics.fifo"
        os.mkfifo(fifo)
        # opened before the run, so the writer's open does not wait for it
        fd = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        received, finished = bytearray(), threading.Event()

        def drain():
            while True:
                try:
                    chunk = os.read(fd, 1 << 16)
                except BlockingIOError:  # the writer is open and has nothing new
                    chunk = None
                if chunk:
                    received.extend(chunk)
                elif chunk == b"" and finished.is_set():  # the run is over, read to the end
                    return
                else:
                    time.sleep(0.005)

        reader = threading.Thread(target=drain, daemon=True)
        reader.start()
        try:
            assert main(["run", str(scenario_path), "--out", str(fifo)]) == EXIT_OK
        finally:
            finished.set()
            reader.join(timeout=30)
            os.close(fd)
        assert not reader.is_alive()
        assert bytes(received) == pinned
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
        assert not list(tmp_path.glob(".*.tmp"))

    @pytest.mark.parametrize("sweep", [[], ["--sweep", "4..5"]], ids=["single", "sweep"])
    def test_failed_write_exits_2_and_keeps_the_old_file(
        self, scenario_path, tmp_path, sweep
    ):
        # was: exit 1, "internal failure: [Errno 27] File too large"
        import resource
        import subprocess
        import sys
        from pathlib import Path

        limit = 4096  # bytes any one file may grow to; a run writes far more
        out = tmp_path / "runs.ndjson"
        failing = tmp_path / ("runs-seed4.ndjson" if sweep else "runs.ndjson")
        failing.write_bytes(b"old bytes\n")

        def limit_file_size():
            resource.setrlimit(resource.RLIMIT_FSIZE, (limit, limit))

        src = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.run(
            [sys.executable, "-m", "optoutswarm", "run", str(scenario_path),
             "--out", str(out), *sweep],
            capture_output=True, text=True, timeout=120, preexec_fn=limit_file_size,
            env={**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"},
        )
        assert proc.returncode == EXIT_INVALID, proc.stderr
        assert proc.stderr == f"cannot write {failing}: File too large\n"
        assert failing.read_bytes() == b"old bytes\n"
        assert not list(tmp_path.glob(".*.tmp"))
        assert not (tmp_path / "runs-seed5.ndjson").exists()

def _console_script_target():
    """What `[project.scripts]` in pyproject.toml installs as `optoutswarm`."""
    import importlib
    from pathlib import Path

    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parent.parent
    project = tomllib.loads((root / "pyproject.toml").read_text("utf-8"))["project"]
    module, _, attr = project["scripts"]["optoutswarm"].partition(":")
    assert (module, attr) == ("optoutswarm.cli", "main")
    return getattr(importlib.import_module(module), attr)


def test_console_script_names_the_cli_main():
    # covers the entry point where the package is not installed, so the
    # console script itself is not on PATH
    import subprocess
    import sys
    from pathlib import Path

    assert _console_script_target() is main
    root = Path(__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-m", "optoutswarm", "--help"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(root / "src")},
    )
    assert proc.returncode == 0
    assert "run" in proc.stdout and "validate" in proc.stdout


def test_console_script_is_installed():
    import shutil
    import subprocess

    exe = shutil.which("optoutswarm")
    if exe is None:
        # not installed here: the script an install would put on PATH is the CLI's main
        assert _console_script_target() is main
        return
    proc = subprocess.run([exe, "--help"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "run" in proc.stdout and "validate" in proc.stdout


# what a run never executes: the OpenSSL backend that the X25519 keys'
# classmethods import, the AEAD cipher of seal and open, hashlib with the
# second OpenSSL it maps, statistics for a median, and the PoW kernel
UNRUN_MODULES = (
    "cryptography.hazmat.backends.openssl", "cryptography.hazmat.primitives.ciphers",
    "hashlib", "_hashlib", "statistics", "optoutswarm.pow_backend", "optoutswarm._powcore",
)


def _rewriting_forwarder() -> dict:
    raw = json.loads(BASELINE.with_name("mitm_forwarder.json").read_text(encoding="utf-8"))
    raw["adversaries"] = [{"strategy": "mitm_forwarder", "rewrite_issuer": True}]
    return raw


def _attack_mix() -> dict:
    from test_bench_sim import workloads

    return workloads.generate("attack_mix", workloads.DEFAULT_SEED)


@pytest.mark.parametrize(
    "scenario",
    ["baseline.json", "mitm_forwarder.json", _rewriting_forwarder, _attack_mix],
    ids=["baseline.json", "mitm_forwarder.json", "mitm_forwarder_rewriting", "attack_mix"],
)
def test_a_run_loads_no_module_it_does_not_run(scenario, tmp_path):
    # no run seals or opens a message, and identities are parsed without the
    # backend that X25519PrivateKey.from_private_bytes imports; targets are
    # hashed by cryptography, and a relay's rewritten copy is refused unscanned
    if callable(scenario):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario()), encoding="utf-8")
    else:
        path = BASELINE.with_name(scenario)
    code = (
        "import sys; from optoutswarm import cli; "
        f"code = cli.main(['run', {str(path)!r}, '--out', {str(tmp_path / 'out.ndjson')!r}]); "
        f"print(code, [m for m in {UNRUN_MODULES!r} if m in sys.modules])"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, check=True,
    ).stdout
    assert out.splitlines()[-1] == f"{EXIT_OK} []"
