"""Scenario generators for the benchmark workloads, and the digests that pin them.

Every workload has the shape of `scenarios/baseline.json`, copied below so
that an edit to the bundled file cannot move the benchmark: one site, spam to
every client at minute 5, 400 simulated minutes, poll interval 10, an answer
budget of 60 per hour. Only the fleet size, the challenge difficulty, the
adversaries and the duration of `attack_mix` change, and `--seed` becomes the scenario seed. The simulator is
deterministic in the scenario alone, so the NDJSON of a run is its own
correctness check.
"""

from __future__ import annotations

import copy

DEFAULT_SEED = 42

WHY = {
    "fleet_handshake": "64 clients at max_rand 200: the O(N^2) verification mesh, "
    "dominated by X25519 seal/open and roster reads",
    "fleet_pow": "24 clients at the default max_rand 10000: the PoW kernel does most "
    "of the work and the DHT almost none",
    "attack_mix": "8 clients for 250 minutes plus sybil, MITM, challenge-flood and "
    "separation adversaries: long rosters make the DHT the largest layer",
}

# sha256 of the NDJSON each workload writes at DEFAULT_SEED.
PINNED = {
    "fleet_handshake": "8fb68e2099f627200043e51209573649c8cafdf9be20eb478374cec65c75535f",
    "fleet_pow": "979c968d97649f530f36584fe87cce4c50ab45bb25a1ff7bc3820a52b75ca25e",
    "attack_mix": "1dc622a8d8e2522dc83af89a161d4336812d4eb8b8ed1c9e7fdddf26a8681fe4",
}

# sha256 of the NDJSON of each bundled scenario at its own seed.
BUNDLED = {
    "baseline.json": "9df61019bedeadaede8b9f5152de489119bdbe4a0b45884ff5d6d6842ef5c9d3",
    "challenge_flood.json": "0b39c92d625f15621cd3935cf84bf0bdde35e1b3b0a7d65391f87afad5e4db31",
    "mitm_forwarder.json": "9d74ac0be8ce29cc1d54e247b5efb50927979fbb97df6f6c2ff42ffb391d5741",
    "separation.json": "fea8680ca05d6acc7df6431c39bd3b6b15decb978ef8612fac2f0de7ea917843",
    "sybil_flood.json": "83952085876048c1dec1cea48efe2c538e46f74dd71796b029eb287c5a5b65cf",
    "time_portal.json": "a656276f83e6ec0b9585f047bb940204e77341b35f469cfe819074f4899c3e69",
}

BASE = {
    "duration": 400,
    "clients": [
        {
            "count": 10,
            "config": {
                "min_wait": 30,
                "max_wait": 240,
                "min_comrades": 5,
                "min_accumulated_trust": 0,
                "usage_windows": [[0, 10080]],
                "join_policy": "join_all",
                "poll_interval": 10,
                "max_challenges_answered": 60,
                "launch_grace": 5,
            },
            "trust": {"alpha": 2.0, "max_rand": 200, "rechallenge_timeout": 120},
        }
    ],
    "target_sites": [
        {
            "url": "http://pills.example/buy",
            "base_latency": 100,
            "capacity": 120,
            "timeout": 5000,
            "request_bytes": 2048,
            "cost_per_gib": 0.05,
            "visitor_rate": 10,
            "revenue_per_visit": 1.5,
            "patience": 200,
        }
    ],
    "spam_injections": [
        {
            "minute": 5,
            "clients": "all",
            "body": "Cheap meds now! Order at http://pills.example/buy?uid=93af while stock lasts.",
            "footer_hint": "Delivered by mail.example - unsubscribe at https://mail.example/optout",
        }
    ],
    "redirect_map": {},
    "whitelist": ["mail.example"],
    "adversaries": [],
    "opt_out_rate": 12,
    "campaign_duration": 30,
}


def generate(name: str, seed: int) -> dict:
    """The scenario of workload `name` for `seed`."""
    scenario = copy.deepcopy(BASE)
    scenario["seed"] = seed
    group = scenario["clients"][0]
    if name == "fleet_handshake":
        group["count"] = 64
    elif name == "fleet_pow":
        group["count"] = 24
        group["trust"]["max_rand"] = 10_000
    elif name == "attack_mix":
        # 250 rather than 400 minutes halves a sample and keeps the layer split
        scenario["duration"] = 250
        group["count"] = 8
        scenario["adversaries"] = [
            {"strategy": "sybil_flood", "identity_count": 200},
            {"strategy": "mitm_forwarder", "rewrite_issuer": True},
            {
                "strategy": "challenge_flood",
                "victim": 0,
                "count": 400,
                "at_minute": 60,
                "max_rand": 10_000,
            },
            {"strategy": "separation", "injection_period": 30, "lead_minutes": 30},
        ]
    else:
        raise KeyError(name)
    return scenario


def client_minutes(scenario: dict) -> int:
    """Simulated clients times simulated minutes."""
    return sum(group["count"] for group in scenario["clients"]) * scenario["duration"]
