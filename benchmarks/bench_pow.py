#!/usr/bin/env python3
"""Benchmark the compiled challenge-solving kernel against the pure fallback.

Both kernels get the identical batch of seeded challenges, so the hash count
is the same and the wall-clock ratio is the speedup. The compiled kernel comes
from `pow_backend.load`, which builds it on first use. From the repository
root:

    PYTHONPATH=src python3 benchmarks/bench_pow.py
    PYTHONPATH=src python3 benchmarks/bench_pow.py --challenges 100 --max-rand 50000
"""

import argparse
import time
from random import Random

from optoutswarm import _pow_python, crypto, pow_backend


def make_challenges(count: int, max_rand: int) -> list[tuple[bytes, bytes]]:
    rng = Random("bench:pow")
    batch = []
    for _ in range(count):
        issuer = crypto.generate_identity(rng)
        challenge, _expected = crypto.generate_challenge(issuer, max_rand, rng)
        prefix = challenge.issuer_public_key + challenge.rand1.to_bytes(8, "little")
        batch.append((prefix, challenge.target_hash))
    return batch


def bench(kernel, batch: list[tuple[bytes, bytes]], max_rand: int) -> tuple[float, int]:
    started = time.perf_counter()
    evaluations = 0
    for prefix, target in batch:
        found = kernel(prefix, target, max_rand)
        evaluations += found + 1 if found >= 0 else max_rand + 1
    return time.perf_counter() - started, evaluations


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--challenges", type=int, default=50)
    parser.add_argument("--max-rand", type=int, default=20_000)
    args = parser.parse_args()

    compiled = pow_backend.load()
    compiled_kernel = compiled.solve_kernel if compiled is not _pow_python else None
    batch = make_challenges(args.challenges, args.max_rand)
    print(f"selected backend at import: {pow_backend.BACKEND}")
    print(f"{args.challenges} challenges, max_rand={args.max_rand}\n")

    rows = []
    py_elapsed, py_evals = bench(_pow_python.solve_kernel, batch, args.max_rand)
    rows.append(("python", py_elapsed, py_evals))
    if compiled_kernel is not None:
        c_elapsed, c_evals = bench(compiled_kernel, batch, args.max_rand)
        assert c_evals == py_evals, "kernels disagree on work performed"
        rows.append(("compiled", c_elapsed, c_evals))

    print(f"{'backend':<10} {'wall (s)':>10} {'hashes':>12} {'Mhash/s':>10}")
    for name, elapsed, evals in rows:
        rate = evals / elapsed / 1e6 if elapsed else float("inf")
        print(f"{name:<10} {elapsed:>10.3f} {evals:>12} {rate:>10.2f}")
    if compiled_kernel is not None and rows[1][1] > 0:
        print(f"\nspeedup: {rows[0][1] / rows[1][1]:.1f}x")
    else:
        print("\ncompiled kernel unavailable; only the fallback was measured")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
