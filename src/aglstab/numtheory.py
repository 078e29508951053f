"""The number theory that every count shares: primality, bounded
factoring, multiplicative orders, and the rules that admit a field and
a class shape.

The paper's answer is a signed sum whose terms depend only on the
arithmetic of q - 1 and the orders o_d(p), so the closed form, the
lattice route and the field construction all read it from here.  This
module imports no other module of the package.

Validity is decided here, once per rule: ``check_field`` (p prime, alpha
>= 1), ``check_divisor`` (d | q - 1) and ``check_shape`` (that rule,
i | alpha/o_d(p), j in the range i allows); the last two return o_d(p).
``prime_power`` splits q into p**alpha.  ``prime_set`` holds the one
bounded factoring rule.  The admission of a field, ``check_factored``,
runs ``check_field``, then that rule on q - 1, then refuses a q - 1 with
over MAX_TABLE_ROWS/2 divisors, before any command or lister works;
``divisor_orders`` lists (d, o_d(p)) over the divisors of an admitted
q - 1.

Every number is decided in plain ints first, and sympy is imported only
inside the two fallbacks that plain ints cannot decide, so a command
whose numbers stay below them never imports it.  ``_is_prime``
trial-divides by the primes up to 13 and then runs Miller-Rabin with the
first base set of ``_MILLER_RABIN_TIERS`` proven exact below n, which
covers every n below
3,317,044,064,679,887,385,961,981 (about 3.3e24); sympy's ``isprime``
decides only the larger n.  ``_trial_factorization`` divides by the
primes below 1024 and is kept when the cofactor left is 1 or prime;
sympy's ``factorint`` runs only on a u whose cofactor is composite, and
it alone decides what is refused.  ``prime_power`` needs no sympy: a q
with a prime factor r below 1024 is a prime power only as a power of r,
and it takes exact integer roots of any other q.
"""

from __future__ import annotations

import math

#: most table rows, and twice the most divisors ``check_factored`` admits
MAX_TABLE_ROWS = 10_000_000
#: ``prime_set`` refuses a larger number outright
MAX_FACTORED_Q = 1 << 2048
#: factorint's trial-division bound; a number it leaves composite is refused
FACTOR_LIMIT = 10 ** 5
#: (bound, bases): the least strong pseudoprime to all of ``bases`` is
#: ``bound``, so Miller-Rabin with them decides every n < bound with no
#: prime factor up to 13.  Bounds ascend and every base is below the bound
#: before it, so below n.  Prefixes of the primes (Pomerance, Selfridge and
#: Wagstaff 1980; Jiang and Deng 2014 for 23; Sorenson and Webster 2017 for
#: 37 and 41), and Jaeschke 1993 for 11 to 17 and the 3- and 4-base sets
_MILLER_RABIN_TIERS = (
    (2_047, (2,)),
    (1_373_653, (2, 3)),
    (25_326_001, (2, 3, 5)),
    (4_759_123_141, (2, 7, 61)),
    (1_122_004_669_633, (2, 13, 23, 1662803)),
    (2_152_302_898_747, (2, 3, 5, 7, 11)),
    (3_474_749_660_383, (2, 3, 5, 7, 11, 13)),
    (341_550_071_728_321, (2, 3, 5, 7, 11, 13, 17)),
    (3_825_123_056_546_413_051, (2, 3, 5, 7, 11, 13, 17, 19, 23)),
    (318_665_857_834_031_151_167_461,
     (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)),
    (3_317_044_064_679_887_385_961_981,
     (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)),
)


class BudgetExceededError(RuntimeError):
    """A computation would exceed its configured budget."""


def _is_prime(n: int) -> bool:
    """Whether n is prime: trial division by the primes up to 13, then
    Miller-Rabin with the bases of the first ``_MILLER_RABIN_TIERS`` tier
    whose bound exceeds n, or sympy's ``isprime`` past the last bound."""
    if n < 2:
        return False
    for r in (2, 3, 5, 7, 11, 13):
        if n % r == 0:
            return n == r
    if n < 17 * 17:
        return True
    for bound, bases in _MILLER_RABIN_TIERS:
        if n < bound:
            break
    else:
        from sympy import isprime
        return bool(isprime(n))
    # n - 1 = odd * 2**s, and no base is a multiple of n
    s = ((n - 1) & (1 - n)).bit_length() - 1
    odd, last = (n - 1) >> s, n - 1
    for a in bases:
        x = pow(a, odd, n)
        if x == 1 or x == last:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == last:
                break
        else:
            return False
    return True


#: the trial divisors of ``_trial_factorization``: the primes below 1024,
#: so a cofactor below 1024**2 left without a divisor among them is prime
_SMALL_PRIMES = tuple(n for n in range(1024) if _is_prime(n))


def prime_set(u: int) -> tuple[int, ...]:
    """Distinct prime divisors of u in ascending order; empty for u = 1.
    Refuses (``BudgetExceededError``) a u above MAX_FACTORED_Q, or one that
    ``factorint(u, limit=FACTOR_LIMIT)`` leaves with a composite factor.
    A u that is a product of primes below 1024 and at most one larger
    prime is factored in plain ints, with no sympy call (see
    ``_factorization``); every such u is one that factorint factors too."""
    return tuple(_factorization(u))


def _factorization(u: int) -> dict[int, int]:
    """u as {prime: exponent}, primes ascending, under the rule of
    ``prime_set``; ``check_factored`` reads its exponents off this one
    pass.  ``_trial_factorization`` decides first; factorint runs on u only
    where it leaves a composite cofactor, and a u that factorint leaves
    with a factor ``_is_prime`` rejects is refused.  Past the cap neither
    runs."""
    if u <= 0:
        raise ValueError(f"expected a positive integer, got {u}")
    factors = None      # past the cap, neither factorint nor isprime runs
    if u <= MAX_FACTORED_Q:
        factors = _trial_factorization(u)
        if factors is not None:
            return factors
        from sympy import factorint
        try:
            factors = factorint(u, limit=FACTOR_LIMIT)
        except ValueError:  # sympy 1.14 raises on some, such as 3^1292 - 1
            pass
    if factors is None or not all(map(_is_prime, factors)):
        raise BudgetExceededError(
            f"a {u.bit_length()}-bit number is refused: it must be at most "
            f"2^2048 and factor completely within factorint's limit of "
            f"{FACTOR_LIMIT}")
    return dict(sorted(factors.items()))


def _trial_factorization(u: int) -> dict[int, int] | None:
    """u as {prime: exponent}, primes ascending, by trial division by
    ``_SMALL_PRIMES`` while r**2 <= the cofactor; None where the cofactor
    left is composite.  The cofactor is prime when the division stops
    early, when it is below 1024**2, or when ``_is_prime`` accepts it."""
    factors, rest = {}, u
    for r in _SMALL_PRIMES:
        if r * r > rest:
            break
        if rest % r == 0:
            e = 0
            while rest % r == 0:
                rest //= r
                e += 1
            factors[r] = e
    else:
        if rest >= 1024 ** 2 and not _is_prime(rest):
            return None
    if rest > 1:
        factors[rest] = 1
    return factors


def mult_order(v: int, u: int) -> int:
    """Least m >= 1 with v**m == 1 (mod u).  The order modulo 1 is 1.

    A plain loop whose cost is the order itself.  The library asks only
    for orders that divide alpha: o_u(p) with u | p**alpha - 1, and, to
    extend a known order o = o_w(p) to a multiple u of w, the order of
    p**o modulo u, which is o_u(p)/o (see ``divisor_orders`` and
    ``counting.StabilizerClass._walk``).
    """
    if u <= 0:
        raise ValueError(f"modulus must be positive, got {u}")
    if u == 1:
        return 1
    if math.gcd(u, v) != 1:
        raise ValueError(f"{v} is not a unit modulo {u}")
    m, x = 1, v % u
    while x != 1:
        x = x * v % u
        m += 1
    return m


def check_field(p: int, alpha: int) -> None:
    """The field rule: F_{p**alpha} exists iff p is prime and alpha >= 1."""
    if not _is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if alpha < 1:
        raise ValueError(f"alpha must be >= 1, got {alpha}")


def prime_power(q: int) -> tuple[int, int]:
    """(p, alpha) with q = p**alpha and p prime, else ValueError; no
    factoring, which can run for minutes on a large semiprime.

    A q with a prime factor r in ``_SMALL_PRIMES`` is a prime power only
    as a power of r.  Any other q = p**alpha has p > 1024, so every prime
    e dividing alpha has 1024**e <= q: the exact e-th roots are taken
    for those prime e, the least first and each as often as it divides,
    and ``_is_prime`` decides the base left."""
    if q < 2:
        raise ValueError(f"q must be at least 2, got {q}")
    r = next((r for r in _SMALL_PRIMES if q % r == 0), None)
    if r is not None:
        alpha, rest = 0, q
        while rest % r == 0:
            rest //= r
            alpha += 1
        if rest == 1:
            return r, alpha
    else:
        p, alpha, e = q, 1, 2
        while 1 << 10 * e <= p:
            root = _exact_root(p, e) if _is_prime(e) else None
            if root is None:
                e += 1
            else:
                p, alpha = root, alpha * e
        if _is_prime(p):
            return p, alpha
    raise ValueError(f"q must be a prime power, got {q}")


def _exact_root(n: int, e: int) -> int | None:
    """The x with x**e == n, else None.  Newton's step
    x -> ((e - 1)*x + n // x**(e - 1)) // e falls from 2**ceil(bits/e),
    which exceeds the root, to floor(n**(1/e)) and stops there."""
    x = 1 << -(-n.bit_length() // e)
    while True:
        y = ((e - 1) * x + n // x ** (e - 1)) // e
        if y >= x:
            return x if x ** e == n else None
        x = y


def check_factored(p: int, alpha: int) -> dict[int, int]:
    """The admission of a field F_{p**alpha}: ``check_field``, the
    factoring rule, that ``prime_set`` accepts q - 1, and the divisor
    bound, that q - 1 has at most MAX_TABLE_ROWS/2 divisors, each with two
    classes (d, alpha/o_d(p), 0 or 1).  alpha > 2048 is past the cap
    without computing q.  Returns q - 1 as {prime: exponent}."""
    check_field(p, alpha)
    u = MAX_FACTORED_Q + 1 if alpha > 2048 else p ** alpha - 1
    try:
        factors = _factorization(u)
    except BudgetExceededError:
        raise BudgetExceededError(
            f"q = {p}^{alpha} is refused: q must be at most 2^2048, and "
            f"q - 1 must factor completely within factorint's limit of "
            f"{FACTOR_LIMIT}") from None
    least = 2 * math.prod(e + 1 for e in factors.values())
    if least > MAX_TABLE_ROWS:
        raise BudgetExceededError(
            f"q = {p ** alpha} has at least {least} stabilizer classes, two "
            f"for each divisor of q - 1, over the limit of {MAX_TABLE_ROWS}")
    return factors


def divisor_orders(p: int, alpha: int) -> list[tuple[int, int]]:
    """(d, o_d(p)) for d ascending over the divisors of q - 1, listed once
    ``check_factored`` admits the field, divisor bound included.

    o_d(p) is the lcm of o_{r**t}(p) over the prime powers r**t exactly
    dividing d, and each of those is found once, from the one before it:
    o_{r**t}(p) = o * (order of p**o mod r**t), o = o_{r**(t-1)}(p).
    """
    divs = [(1, 1)]
    for r, e in check_factored(p, alpha).items():
        orders, o = [1], 1
        for t in range(1, e + 1):
            o *= mult_order(pow(p, o, r ** t), r ** t)
            orders.append(o)
        divs = [(x * r ** t, math.lcm(m, orders[t]))
                for x, m in divs for t in range(e + 1)]
    return sorted(divs)


def check_divisor(p: int, alpha: int, d: int) -> int:
    """The divisor rule for the multiplicative part of a valid field
    F_{p**alpha}: d divides q - 1.  Returns o_d(p), the degree of the least
    subfield holding the multipliers of order d."""
    q = p ** alpha
    if d < 1 or (q - 1) % d:
        raise ValueError(f"d must divide q - 1 = {q - 1}, got {d}")
    return mult_order(p, d)


def check_shape(p: int, alpha: int, d: int, i: int, j: int) -> int:
    """The shape rule for a class (d, i, j) of a valid field F_{p**alpha};
    returns o_d(p).

    d divides q - 1 (``check_divisor``); i divides alpha/o_d(p); j is 0 or
    1 when i = alpha/o_d(p), and 0 < j < alpha/(o_d(p)*i) otherwise.
    """
    odp = check_divisor(p, alpha, d)
    top = alpha // odp
    if i < 1 or alpha % (odp * i):
        raise ValueError(f"i must divide alpha/o_d(p) = {top}, got {i}")
    if i == top:
        if j not in (0, 1):
            raise ValueError(
                f"j must be 0 or 1 when i = alpha/o_d(p), got {j}")
    elif not 0 < j < top // i:
        raise ValueError(f"j must satisfy 0 < j < {top // i} "
                         f"when i < alpha/o_d(p), got {j}")
    return odp


