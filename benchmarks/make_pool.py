"""Regenerate the pool of 2048-bit primes that the prime-2048 workload samples from.

Usage (from the repository root)::

    python3 benchmarks/make_pool.py

A 2048-bit ``sympy.nextprime`` takes seconds, so a run that generated its
own primes would spend longer generating than measuring.  The pool is made
once, the same way run.py makes its smaller primes (``sympy.nextprime`` of
seeded full-width random starts), and each run draws its primes from it by
``--seed`` and checks them again with ``sympy.isprime``.
"""

import random
from pathlib import Path

import sympy

POOL = Path(__file__).resolve().parent / "primes-2048.txt"
BITS = 2048
SIZE = 48
POOL_SEED = "prime-2048/pool"


def main() -> None:
    rng = random.Random(POOL_SEED)
    primes = []
    while len(primes) < SIZE:
        p = int(sympy.nextprime(rng.getrandbits(BITS) | (1 << (BITS - 1))))
        if p.bit_length() == BITS:
            primes.append(p)
    POOL.write_text("".join(f"{p}\n" for p in primes))


if __name__ == "__main__":
    main()
