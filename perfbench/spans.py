"""Outside-in layer trace of one `optoutswarm run`.

`install` replaces the entry points of every layer, module attributes and
class methods alike, with wrappers that time each call. Nothing under `src/`
knows about the trace. A layer's self time is the time inside its spans
minus the time inside the spans they caused, so the self times of all layers
add up to the root span, `cli.main`.

Entry points are wrapped where callers look them up at call time:

- `SimulatedDht.put/get/remove` on the class, and `dht.derive_key` rather
  than the `*_table_key` helpers, which other modules import by name.
- Module attributes of `crypto`, `coordinator`, `trust`, `website`,
  `evaluator`, `scenario` and `simulation`. Internal helpers such as
  `crypto.hash_bytes` stay unwrapped: their time belongs to the layer that
  calls them either way, and wrapping them would only add overhead.
- `pow_backend.solve_kernel`: `crypto.solve_challenge` imports it at call
  time, so the module attribute catches every solve.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict
from typing import Any, Callable

PHASES = ("adversaries", "spam", "polls", "ticks", "bursts", "probes", "settle")
LAYERS = (
    "cli",
    "scenario",
    "simulation",
    "evaluator",
    "coordinator",
    "trust",
    "website",
    "crypto",
    "pow_backend",
    "dht",
)

Observer = Callable[[Counter, Any, tuple], None]


class Tracer:
    """Per-span call counts, errors, self and total times, and result counts."""

    def __init__(self) -> None:
        # child time of each open span; the bottom slot collects root spans
        self._open = [0.0]
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.total_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.errors: Counter = Counter()
        self.counts: Counter = Counter()

    def wrap(self, key: str, fn: Callable, observe: Observer | None = None) -> Callable:
        open_spans, self_s, total_s = self._open, self.self_s, self.total_s
        calls, errors, counts = self.calls, self.errors, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            open_spans.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errors[key] += 1
                raise
            finally:
                elapsed = clock() - start
                self_s[key] += elapsed - open_spans.pop()
                total_s[key] += elapsed
                open_spans[-1] += elapsed
                calls[key] += 1
            if observe is not None:
                observe(counts, result, args)
            return result

        return wrapper

    def layer_self_s(self, layer: str) -> float:
        return sum(v for k, v in self.self_s.items() if k.split(".", 1)[0] == layer)


def _count_values(name: str) -> Observer:
    def observe(counts: Counter, result: Any, _args: tuple) -> None:
        counts[name] += len(result)

    return observe


def _observe_solve(counts: Counter, found: int, args: tuple) -> None:
    # solve_kernel(prefix, target, max_rand): found + 1 hashes, or the whole range
    counts["pow_backend.solved"] += found >= 0
    counts["pow_backend.hashes"] += found + 1 if found >= 0 else args[2] + 1


def _observe_initiate(counts: Counter, sent: bool, _args: tuple) -> None:
    counts["trust.initiate.sent"] += bool(sent)


def _observe_challenge(counts: Counter, handling: Any, _args: tuple) -> None:
    counts["trust.handle_challenge.answered"] += bool(handling.answered)


def _observe_run(counts: Counter, report: Any, _args: tuple) -> None:
    counts["simulation.events"] += len(report.events)


def _observe_ndjson(counts: Counter, text: str, _args: tuple) -> None:
    counts["simulation.ndjson_bytes"] += len(text.encode("utf-8"))


def install(tracer: Tracer) -> Callable:
    """Wrap every layer's entry points; returns the wrapped `cli.main`."""
    from optoutswarm import (
        cli,
        coordinator,
        crypto,
        dht,
        evaluator,
        pow_backend,
        scenario,
        simulation,
        trust,
        website,
    )

    module_entry_points = {
        scenario: ("load_file",),
        evaluator: ("evaluate",),
        dht: ("derive_key",),
        crypto: (
            "generate_identity",
            "generate_challenge",
            "solve_challenge",
            "verify_solution",
            "seal",
            "open_sealed",
        ),
        pow_backend: ("solve_kernel",),
        coordinator: ("read_comrades", "handle_url", "tick", "poll_inbox"),
        trust: (
            "initiate_verification",
            "handle_challenge",
            "handle_response",
            "judge_outcome",
            "apply_outcome",
            "accumulated_trust",
            "encode_challenge_payload",
            "decode_payload",
        ),
        website: ("send_opt_out_burst", "probe", "settle_minute"),
        simulation: ("run",),
    }
    observers = {
        "dht.get": _count_values("dht.get.values"),
        "coordinator.read_comrades": _count_values("coordinator.read_comrades.keys"),
        "pow_backend.solve_kernel": _observe_solve,
        "trust.initiate_verification": _observe_initiate,
        "trust.handle_challenge": _observe_challenge,
        "simulation.run": _observe_run,
        "simulation.ndjson": _observe_ndjson,
    }
    for module, names in module_entry_points.items():
        layer = module.__name__.rsplit(".", 1)[1]
        for name in names:
            key = f"{layer}.{name}"
            setattr(module, name, tracer.wrap(key, getattr(module, name), observers.get(key)))

    class_entry_points = [
        (dht.SimulatedDht, "put", "dht.put"),
        (dht.SimulatedDht, "get", "dht.get"),
        (dht.SimulatedDht, "remove", "dht.remove"),
        (simulation.Simulation, "__init__", "simulation.init"),
        (simulation.Simulation, "_summary", "simulation.summary"),
        (simulation.MetricsReport, "to_ndjson", "simulation.ndjson"),
        (simulation.SimClient, "issuer_is_comrade", "simulation.issuer_is_comrade"),
    ] + [
        (simulation.Simulation, f"_phase_{phase}", f"simulation.phase.{phase}")
        for phase in PHASES
    ]
    for cls, name, key in class_entry_points:
        setattr(cls, name, tracer.wrap(key, getattr(cls, name), observers.get(key)))

    cli.main = tracer.wrap("cli.main", cli.main)
    return cli.main


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def report(tracer: Tracer, wall_s: float) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer metrics of one traced run, split into (timings, counts).

    Counts, and ratios of counts, repeat exactly for one scenario; timings
    do not.
    """
    calls, counts, errors = tracer.calls, tracer.counts, tracer.errors
    self_s, total_s = tracer.self_s, tracer.total_s
    layer_self = {layer: tracer.layer_self_s(layer) for layer in LAYERS}

    timings = {f"{layer}.self_s": layer_self[layer] for layer in LAYERS}
    timings.update({f"simulation.phase.{p}_s": self_s[f"simulation.phase.{p}"] for p in PHASES})
    timings["simulation.summary_s"] = self_s["simulation.summary"]
    timings["simulation.ndjson_s"] = self_s["simulation.ndjson"]
    timings["scenario.load_s"] = total_s["scenario.load_file"]
    timings["pow_backend.solve_s"] = total_s["pow_backend.solve_kernel"]
    timings["pow_backend.mhash_per_s"] = (
        _ratio(counts["pow_backend.hashes"], total_s["pow_backend.solve_kernel"]) / 1e6
    )
    timings["crypto.seal_open_per_s"] = _ratio(
        calls["crypto.seal"] + calls["crypto.open_sealed"],
        total_s["crypto.seal"] + total_s["crypto.open_sealed"],
    )
    timings["trace.wall_s"] = wall_s
    timings["trace.self_sum_ratio"] = _ratio(sum(layer_self.values()), wall_s)

    work = {
        "simulation.issuer_is_comrade.calls": calls["simulation.issuer_is_comrade"],
        "simulation.events": counts["simulation.events"],
        "simulation.ndjson_bytes": counts["simulation.ndjson_bytes"],
        "dht.put.calls": calls["dht.put"],
        "dht.get.calls": calls["dht.get"],
        "dht.remove.calls": calls["dht.remove"],
        "dht.get.values": counts["dht.get.values"],
        "crypto.seal.calls": calls["crypto.seal"],
        "crypto.open.calls": calls["crypto.open_sealed"],
        "crypto.open.failed": errors["crypto.open_sealed"],
        "crypto.identities": calls["crypto.generate_identity"],
        "pow_backend.solve.calls": calls["pow_backend.solve_kernel"],
        "pow_backend.hashes": counts["pow_backend.hashes"],
        "pow_backend.solved_ratio": _ratio(
            counts["pow_backend.solved"], calls["pow_backend.solve_kernel"]
        ),
        "coordinator.read_comrades.calls": calls["coordinator.read_comrades"],
        "coordinator.read_comrades.keys": counts["coordinator.read_comrades.keys"],
        "coordinator.tick.calls": calls["coordinator.tick"],
        "trust.initiate.calls": calls["trust.initiate_verification"],
        "trust.initiate.sent_ratio": _ratio(
            counts["trust.initiate.sent"], calls["trust.initiate_verification"]
        ),
        "trust.handle_challenge.calls": calls["trust.handle_challenge"],
        "trust.answer_ratio": _ratio(
            counts["trust.handle_challenge.answered"], calls["trust.handle_challenge"]
        ),
        "website.probe.calls": calls["website.probe"],
    }
    return timings, work
