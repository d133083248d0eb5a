"""The metrics stream: events go to a sink as NDJSON lines when they are
emitted, and the file `run --out` streams equals the in-memory
serialization byte for byte."""

import dataclasses
import json
import math
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from optoutswarm.cli import EXIT_INTERNAL, EXIT_OK, main
from optoutswarm.scenario import load_file
from optoutswarm.simulation import (
    _ENCODER,
    Simulation,
    _handshake_fragments,
    ndjson_line,
    run,
    write_summary,
)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
BASELINE = str(SCENARIOS / "baseline.json")


@pytest.mark.parametrize("name", sorted(p.name for p in SCENARIOS.glob("*.json")))
def test_out_file_equals_in_memory_ndjson(name, tmp_path, capsys):
    path = str(SCENARIOS / name)
    out = tmp_path / "out.ndjson"
    assert main(["run", path, "--out", str(out)]) == EXIT_OK
    assert out.read_text(encoding="utf-8") == run(load_file(path)).to_ndjson()
    assert [p.name for p in tmp_path.iterdir()] == ["out.ndjson"]


@pytest.mark.parametrize("clients", [0, 1, 3])
def test_a_summary_written_in_parts_is_its_line(clients):
    summary = run(load_file(BASELINE)).summary
    summary["clients"] = summary["clients"][:clients]
    parts = []
    write_summary(summary, parts.append)
    assert "".join(parts) == ndjson_line(summary)
    assert len(parts) == clients + 2


def test_sweep_files_equal_in_memory_runs(tmp_path, capsys):
    out = tmp_path / "runs.ndjson"
    assert main(["run", BASELINE, "--sweep", "1..3", "--out", str(out)]) == EXIT_OK
    base = load_file(BASELINE)
    for seed in (1, 2, 3):
        expected = run(dataclasses.replace(base, seed=seed)).to_ndjson()
        assert (tmp_path / f"runs-seed{seed}.ndjson").read_text(encoding="utf-8") == expected
    assert len(list(tmp_path.iterdir())) == 3


def test_sink_receives_every_event_and_the_report_keeps_none():
    scenario = load_file(str(SCENARIOS / "mitm_forwarder.json"))
    got = []
    report = Simulation(scenario, sink=got.append).run()
    assert report.events == []
    reference = run(scenario)
    assert got == reference.events
    assert report.summary == reference.summary


def test_failed_run_leaves_earlier_file_and_no_partial_file(tmp_path, monkeypatch, capsys):
    partial = []
    settle = Simulation._phase_settle

    def failing_settle(self, now):
        settle(self, now)
        if now == 300:
            partial.extend(p.stat().st_size for p in tmp_path.iterdir() if p.suffix == ".tmp")
            raise RuntimeError("injected failure")

    monkeypatch.setattr(Simulation, "_phase_settle", failing_settle)
    earlier = tmp_path / "earlier.ndjson"
    earlier.write_bytes(b'{"earlier":"run"}\n')
    fresh = tmp_path / "fresh.ndjson"
    for out in (earlier, fresh):
        partial.clear()
        assert main(["run", BASELINE, "--out", str(out)]) == EXIT_INTERNAL
        assert "injected failure" in capsys.readouterr().err
        assert len(partial) == 1 and partial[0] > 0, "events were streamed before the failure"
    assert earlier.read_bytes() == b'{"earlier":"run"}\n'
    assert not fresh.exists()
    assert [p.name for p in tmp_path.iterdir()] == ["earlier.ndjson"]


def test_a_non_finite_number_is_never_written():
    # JSON has no Infinity or NaN: such a value fails the run, not the reader
    for value in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="not JSON compliant"):
            ndjson_line({"t": 0, "type": "site_minute", "response_ms": value})


KEYS = st.binary(min_size=32, max_size=32).map(bytes.hex)
VALUES = {
    "client": st.integers(),
    "t": st.integers(),
    "work": st.integers(),
    "peer": KEYS,
    "issuer": KEYS,
    "reason": st.sampled_from(["not_comrade", "budget", "no_solution"]),
    "ok": st.booleans(),
}


def handshake_line(kind: str, values: dict) -> str:
    """A handshake event's line, joined from the fragments as `_phase_polls` joins them."""
    (sent, sent_end, dropped, dropped_end, answered, answered_end,
     verified, refused, verification_end) = _handshake_fragments(values["client"], values["t"])
    if kind == "challenge_sent":
        return sent + values["peer"] + sent_end
    if kind == "challenge_dropped":
        return dropped + values["reason"] + dropped_end
    if kind == "challenge_answered":
        return answered + values["issuer"] + answered_end + str(values["work"]) + "}\n"
    return (verified if values["ok"] else refused) + values["peer"] + verification_end


# each handshake event's fields
HANDSHAKE_FIELDS = {
    "challenge_sent": ("client", "peer", "t"),
    "challenge_dropped": ("client", "reason", "t"),
    "challenge_answered": ("client", "issuer", "t", "work"),
    "verification": ("client", "ok", "peer", "t"),
}


@given(st.data())
def test_templated_event_equals_the_generic_encoder(data):
    kind = data.draw(st.sampled_from(sorted(HANDSHAKE_FIELDS)), label="type")
    values = {name: data.draw(VALUES[name], label=name) for name in HANDSHAKE_FIELDS[kind]}
    assert handshake_line(kind, values) == _ENCODER.encode({**values, "type": kind}) + "\n"

