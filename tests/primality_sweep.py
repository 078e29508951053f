"""Compare the plain primality test and factorization of ``numtheory`` with
sympy: every n < 2**20, then a seeded sample of shapes up to 2**90, then a
seeded dense sweep of the Miller-Rabin tiers whose bases are not a prefix
of the primes; then pin which fields ``numtheory.check_factored`` admits.

    PYTHONPATH=src python tests/primality_sweep.py

``numtheory._is_prime(n)`` must equal ``sympy.isprime(n)``.
``numtheory._factorization(n)`` must equal ``sympy.factorint(n)`` below
2**20, where every n factors plainly, and above it must give what the
bounded rule alone gives: ``factorint(n, limit=FACTOR_LIMIT)`` with every
factor prime, or a refusal.  In each of ``DENSE_BANDS`` ``_is_prime(n)``
must equal ``sympy.isprime(n)`` on runs of consecutive odd n, on primes,
and on products r*(c*(r - 1) + 1) of a prime r, the shape of the least
strong pseudoprimes that bound those tiers.  ``check_factored(p, alpha)``
must refuse exactly the fields of ``REFUSED`` among those of
``ADMISSION_TOPS``, so that a change to the factoring that admits or
refuses another field shows here.  The name keeps pytest from collecting
it: the sweep takes about a minute, and tier-1 holds the smaller checks.
Exits 1 at the first disagreement; checks no assert, so it holds under
``python -O`` too.
"""

import math
import random
import sys

import sympy

from aglstab import numtheory
from aglstab.numtheory import BudgetExceededError, FACTOR_LIMIT

PLAIN_BITS = 20
SAMPLE_BITS = 90
SEED = "primality_sweep"

#: [low, high): the two tiers of Jaeschke's 3- and 4-base sets, and a band
#: across 2**40, where the second of them ends
DENSE_BANDS = ((25_326_001, 4_759_123_141),
               (4_759_123_141, 1_122_004_669_633),
               (2 ** 40 - 2 ** 36, 2 ** 40 + 2 ** 36))
#: per band: runs of consecutive odd n, odd n per run, and primes; and
#: products r*(c*(r - 1) + 1) per c in (2, 3, 4)
DENSE_RUNS, DENSE_RUN, DENSE_PRIMES, DENSE_PRODUCTS = 8, 5_000, 2_000, 2_000

#: p and the largest alpha of the fields p**alpha whose admission is pinned
ADMISSION_TOPS = ((2, 160), (3, 100), (5, 70), (7, 60), (11, 40), (1021, 12))

#: the fields of ADMISSION_TOPS that check_factored refuses: q - 1 does not
#: factor within FACTOR_LIMIT, or has too many divisors
REFUSED = (
    (2, 98), (2, 101), (2, 118), (2, 119), (2, 122), (2, 125), (2, 134),
    (2, 137), (2, 138), (2, 139), (2, 143), (2, 146), (2, 147), (2, 149),
    (2, 155), (2, 157), (2, 158), (2, 159),
    (3, 67), (3, 73), (3, 79), (3, 85), (3, 86), (3, 89), (3, 97),
    (5, 37), (5, 41), (5, 46), (5, 53), (5, 58), (5, 59), (5, 61), (5, 62),
    (5, 65), (5, 67), (5, 69),
    (7, 34), (7, 43), (7, 46), (7, 47), (7, 57),
)


def fail(what: str, n: int, got, want) -> None:
    sys.exit(f"{what}({n}): got {got!r}, sympy gives {want!r}")


def bounded_rule(n: int):
    """The factoring rule with sympy alone: factorint within its limit,
    refused (None) when a factor is left composite or sympy raises."""
    try:
        factors = sympy.factorint(n, limit=FACTOR_LIMIT)
    except ValueError:
        return None
    if not all(map(sympy.isprime, factors)):
        return None
    return dict(sorted(factors.items()))


def plain_or_refused(n: int):
    try:
        return numtheory._factorization(n)
    except BudgetExceededError:
        return None


def random_prime(rng: random.Random, bits: int) -> int:
    return int(sympy.nextprime(rng.randrange(2 ** (bits - 1), 2 ** bits)))


def prime_in(rng: random.Random, low: int, high: int) -> int:
    """A seeded prime in [low, high), for high below 2**41, where every
    prime gap is below 2**10."""
    return int(sympy.nextprime(rng.randrange(low, high - 2 ** 10)))


def smooth(rng: random.Random, bits: int) -> int:
    """A product of primes below 1024 of at least ``bits`` bits."""
    n = 1
    while n.bit_length() < bits:
        n *= rng.choice((2, 3, 5, 7, 11, 13, 101, 1021))
    return n


def sample(rng: random.Random, bits: int, hard: bool) -> list[int]:
    """Numbers of about ``bits`` bits in the shapes that stress each route:
    random, odd, prime, smooth times a prime, smooth times the square of a
    prime past 1024, a prime between 1024 and FACTOR_LIMIT times a prime,
    and, when ``hard``, a product of two primes of half the bits each,
    which sympy's bounded search takes longest on."""
    low, high = 2 ** (bits - 1), 2 ** bits
    half = max(bits // 2, 11)
    big = random_prime(rng, half)
    mid = int(sympy.nextprime(rng.randrange(1024, FACTOR_LIMIT)))
    numbers = [rng.randrange(low, high), rng.randrange(low, high) | 1,
               random_prime(rng, bits), smooth(rng, bits - half) * big,
               smooth(rng, bits - 2 * half) * big * big,
               mid * random_prime(rng, max(bits - mid.bit_length(), 11))]
    if hard:
        numbers.append(big * random_prime(rng, max(bits - half, 11)))
    return numbers


def dense_band(rng: random.Random, low: int, high: int) -> list[int]:
    """The n of ``DENSE_BANDS`` in [low, high): seeded runs of consecutive
    odd n, seeded primes, and products r*(c*(r - 1) + 1) of a prime r,
    composite whether or not the second factor is prime."""
    numbers = []
    for _ in range(DENSE_RUNS):
        start = rng.randrange(low, high - 2 * DENSE_RUN) | 1
        numbers += range(start, start + 2 * DENSE_RUN, 2)
    numbers += [prime_in(rng, low, high) for _ in range(DENSE_PRIMES)]
    for c in (2, 3, 4):
        # every such r puts c*r*r - (c - 1)*r in [low, high)
        least, most = math.isqrt(low // c) + 2, math.isqrt(high // c)
        primes = (prime_in(rng, least, most) for _ in range(DENSE_PRODUCTS))
        numbers += [r * (c * (r - 1) + 1) for r in primes]
    return numbers


def main() -> None:
    for n in range(1, 2 ** PLAIN_BITS):
        got, want = numtheory._is_prime(n), sympy.isprime(n)
        if got != want:
            fail("_is_prime", n, got, want)
        got, want = numtheory._factorization(n), sympy.factorint(n)
        if got != want:
            fail("_factorization", n, got, want)
    print(f"every n < 2^{PLAIN_BITS} agrees")
    rng = random.Random(SEED)
    checked = 0
    for bits in range(PLAIN_BITS + 1, SAMPLE_BITS + 1):
        for round in range(4):
            for n in sample(rng, bits, hard=round == 0):
                got, want = numtheory._is_prime(n), sympy.isprime(n)
                if got != want:
                    fail("_is_prime", n, got, want)
                got, want = plain_or_refused(n), bounded_rule(n)
                if got != want:
                    fail("_factorization", n, got, want)
                checked += 1
    print(f"{checked} sampled n of {PLAIN_BITS + 1} to {SAMPLE_BITS} bits "
          f"agree")
    for low, high in DENSE_BANDS:
        numbers = dense_band(rng, low, high)
        for n in numbers:
            got, want = numtheory._is_prime(n), sympy.isprime(n)
            if got != want:
                fail("_is_prime", n, got, want)
        print(f"{len(numbers)} dense n in [{low}, {high}) agree")
    refused = []
    for p, top in ADMISSION_TOPS:
        for alpha in range(1, top + 1):
            try:
                numtheory.check_factored(p, alpha)
            except BudgetExceededError:
                refused.append((p, alpha))
    if tuple(refused) != REFUSED:
        sys.exit(f"check_factored refuses "
                 f"{sorted(set(refused) - set(REFUSED))} and admits "
                 f"{sorted(set(REFUSED) - set(refused))} against the pin")
    fields = sum(top for _, top in ADMISSION_TOPS)
    print(f"check_factored refuses the {len(REFUSED)} pinned fields of "
          f"{fields}")


if __name__ == "__main__":
    main()
