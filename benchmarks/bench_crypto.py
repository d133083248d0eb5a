#!/usr/bin/env python3
"""Benchmark sealing and opening inbox messages, in operations per second.

Each repeat seals a batch of seeded messages to one recipient, which makes
their wire bytes (X25519 plus ChaCha20-Poly1305), and opens those wire bytes
as the recipient (X25519 plus the AEAD tag check). Prints one JSON line with
the median of the repeats for each. From the repository root:

    PYTHONPATH=src python3 benchmarks/bench_crypto.py
    PYTHONPATH=src python3 benchmarks/bench_crypto.py --messages 2000 --repeats 5
"""

import argparse
import json
import statistics
import time
from random import Random

from optoutswarm import crypto

PAYLOAD_BYTES = 73  # an encoded challenge, the most common sealed payload


def one_repeat(repeat: int, messages: int) -> dict[str, float]:
    rng = Random(f"bench:crypto:{repeat}")
    recipient = crypto.generate_identity(rng)
    plaintexts = [rng.randbytes(PAYLOAD_BYTES) for _ in range(messages)]

    started = time.perf_counter()
    wires = [crypto.seal(recipient.public_key, p) for p in plaintexts]
    sealed_at = time.perf_counter()
    opened = [crypto.open_sealed(recipient, w) for w in wires]
    opened_at = time.perf_counter()

    assert opened == plaintexts, "wire bytes did not open to the sealed plaintexts"
    return {
        "seal_per_s": messages / (sealed_at - started),
        "open_per_s": messages / (opened_at - sealed_at),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--messages", type=int, default=1000)
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()
    if args.messages < 1 or args.repeats < 3:
        parser.error("need --messages >= 1 and --repeats >= 3")

    runs = [one_repeat(r, args.messages) for r in range(args.repeats)]
    result = {
        key: round(statistics.median(run[key] for run in runs), 1) for key in runs[0]
    }
    result.update(messages=args.messages, repeats=args.repeats)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
