"""Golden digests: the NDJSON of every bundled scenario at its own seed.

A change that moves any of these bytes changes what the simulator computes.
Such a change must update the digest here and say in CHANGES.md which bytes
moved and why.
"""

import hashlib
from pathlib import Path

import pytest

from optoutswarm.scenario import load_file
from optoutswarm.simulation import Simulation, run

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

GOLDEN = {
    "baseline.json": "9df61019bedeadaede8b9f5152de489119bdbe4a0b45884ff5d6d6842ef5c9d3",
    "challenge_flood.json": "0b39c92d625f15621cd3935cf84bf0bdde35e1b3b0a7d65391f87afad5e4db31",
    "mitm_forwarder.json": "9d74ac0be8ce29cc1d54e247b5efb50927979fbb97df6f6c2ff42ffb391d5741",
    "separation.json": "fea8680ca05d6acc7df6431c39bd3b6b15decb978ef8612fac2f0de7ea917843",
    "sybil_flood.json": "83952085876048c1dec1cea48efe2c538e46f74dd71796b029eb287c5a5b65cf",
    "time_portal.json": "a656276f83e6ec0b9585f047bb940204e77341b35f469cfe819074f4899c3e69",
}


def test_every_bundled_scenario_is_pinned():
    assert sorted(p.name for p in SCENARIOS.glob("*.json")) == sorted(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_bundled_scenario_ndjson_digest(name):
    assert _digest(run(load_file(str(SCENARIOS / name))).to_ndjson()) == GOLDEN[name]


def _digest(ndjson: str) -> str:
    return hashlib.sha256(ndjson.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_live_simulations_do_not_interfere(name):
    # Both fleets hold the same keys, and `seal` hands box keys to the newest
    # live identity of a key: here the second simulation's, while the first
    # one runs. Its clients then open on the exchange path, and the second
    # one's identities carry keys they did not receive through their inbox.
    scenario = load_file(str(SCENARIOS / name))
    first, second = Simulation(scenario), Simulation(scenario)
    assert _digest(first.run().to_ndjson()) == GOLDEN[name]
    assert _digest(second.run().to_ndjson()) == GOLDEN[name]
