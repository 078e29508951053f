"""Number-theoretic helpers and closed-form stabilizer-class counts.

The group of affine maps x -> a*x + b (a != 0) acts on F_q, q = p**alpha.
Every subgroup is generated by one map together with translations by an
F_p-subspace H, and its conjugacy data reduce to an arithmetic tuple:

    d     order of the multiplicative part (a divisor of q - 1),
    beta  with |H| = p**beta,
    i, j  encoding beta = o_d(p)*i*j and |H'| = p**(o_d(p)*i), where H'
          is the largest subfield of F_q mapping H into itself.

The number N of k-element subsets of F_q whose setwise stabilizer is
exactly a subgroup of the class (d, i, j) is computed in two steps:

1. *Terms.*  ``class_terms`` reduces the closed form for one class to a
   sorted tuple of signed terms (coeff, u, v), the shape that
   ``oracle.lattice_terms`` also returns.  It depends on the class only,
   not on k.
2. *Evaluation.*  N = sum(coeff * s_qk(q, k, u, v)), where ``s_qk``
   counts the k-subsets fixed by a subgroup with multiplicative part of
   order u and translation part of size v.  ``count_N`` evaluates, through
   ``evaluate_terms``, only the terms that can be nonzero at its k;
   ``build_table`` reads shared columns k -> s_qk(q, k, u, v), one per
   distinct (u, v) of the field, each built once by the binomial
   recurrence.

The closed form is one signed sum over the overgroups of the class (see
``_class_terms``).  A term can be nonzero at k only if v | k and u | k or
u | k - p**beta, so ``count_N`` walks only the overgroups that pass that
test at its k; at k = 0 every overgroup passes, and that walk gives
``class_terms``.  ``build_table`` builds the terms once per class, adds
coeff * column into the class's k -> N map for each term, and reads off
every k that satisfies the zero-pattern congruence, one plain tuple per
row in ``CSV_COLUMNS`` order.  ``enumerate_params`` walks the same tuples
as validated ``ClassParams``.  Everything is exact integer arithmetic; no
floating point is used anywhere in this module.

Validity is decided here, once per rule: ``check_field`` (p prime, alpha
>= 1), ``check_divisor`` (d | q - 1) and ``check_shape`` (that rule, i |
alpha/o_d(p), j in the range i allows); the last two return o_d(p).
``class_shapes`` generates exactly the triples ``check_shape`` accepts.
Only this module uses sympy.  ``prime_set`` holds the one bounded factoring
rule, and ``check_factored`` applies it to q - 1: class enumeration refuses
at once every field that the CLI refuses, ``class_shapes(2, 256)`` among
them, and ``count_N`` a class whose (|H'| - 1)/d does not factor.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property

from sympy import divisors, factorint, isprime, perfect_power

#: column order of the emitted tables
CSV_COLUMNS = ("k", "d", "odp", "i", "j", "beta", "N")

#: most rows ``build_table`` will build
MAX_TABLE_ROWS = 10_000_000
#: ``prime_set`` refuses a larger number outright
MAX_FACTORED_Q = 1 << 2048
#: factorint's trial-division bound; a number it leaves composite is refused
FACTOR_LIMIT = 10 ** 5


class BudgetExceededError(RuntimeError):
    """A computation would exceed its configured budget."""


def prime_set(u: int) -> tuple[int, ...]:
    """Distinct prime divisors of u in ascending order; empty for u = 1.
    Refuses (``BudgetExceededError``) a u above MAX_FACTORED_Q, or one that
    ``factorint(u, limit=FACTOR_LIMIT)`` leaves with a composite factor."""
    if u <= 0:
        raise ValueError(f"expected a positive integer, got {u}")
    primes = None       # past the cap, neither factorint nor isprime runs
    if u <= MAX_FACTORED_Q:
        try:
            primes = factorint(u, limit=FACTOR_LIMIT)
        except ValueError:  # sympy 1.14 raises on some, such as 3^1292 - 1
            pass
    if primes is None or not all(map(isprime, primes)):
        raise BudgetExceededError(
            f"a {u.bit_length()}-bit number is refused: it must be at most "
            f"2^2048 and factor completely within factorint's limit of "
            f"{FACTOR_LIMIT}")
    return tuple(sorted(primes))


def mult_order(v: int, u: int) -> int:
    """Least m >= 1 with v**m == 1 (mod u).  The order modulo 1 is 1.

    A plain loop whose cost is the order itself.  The library only asks
    for o_u(p) with u | p**alpha - 1, where the order divides alpha.
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


def s_qk(q: int, k: int, u: int, v: int) -> int:
    """Number of k-subsets of F_q that are unions of orbits of a subgroup
    with multiplicative part of order u and translation part of size v.

    Such a subgroup has one orbit of size v and (q - v)/(u*v) orbits of
    size u*v, so the count is C((q-v)/(u*v), k/(u*v)) plus
    C((q-v)/(u*v), (k-v)/(u*v)), a selector contributing 0 whenever it is
    not a nonnegative integer.  Total by convention: inconsistent (q, u, v)
    combinations yield 0 rather than an error.
    """
    if u < 1 or v < 1:
        raise ValueError(f"orbit parameters must be positive, got u={u}, v={v}")
    top, rem = divmod(q - v, u * v)
    if rem or top < 0:
        return 0
    total = 0
    for num in (k, k - v):
        sel, srem = divmod(num, u * v)
        if srem == 0 and sel >= 0:
            total += math.comb(top, sel)
    return total


def evaluate_terms(q: int, k: int,
                   terms: tuple[tuple[int, int, int], ...]) -> int:
    """N(k) = sum(coeff * s_qk(q, k, u, v)) over signed terms (coeff, u, v),
    as ``class_terms`` and ``oracle.lattice_terms`` return them."""
    return sum(c * s_qk(q, k, u, v) for c, u, v in terms)


def check_field(p: int, alpha: int) -> None:
    """The field rule: F_{p**alpha} exists iff p is prime and alpha >= 1."""
    if not isprime(p):
        raise ValueError(f"p must be prime, got {p}")
    if alpha < 1:
        raise ValueError(f"alpha must be >= 1, got {alpha}")


def prime_power(q: int) -> tuple[int, int]:
    """(p, alpha) with q = p**alpha and p prime, else ValueError; no
    factoring, which can run for minutes on a large semiprime."""
    if q < 2:
        raise ValueError(f"q must be at least 2, got {q}")
    p, alpha = perfect_power(q) or (q, 1)
    if not isprime(p):
        raise ValueError(f"q must be a prime power, got {q}")
    return int(p), int(alpha)


def check_factored(p: int, alpha: int) -> None:
    """The factoring rule for a valid field F_{p**alpha}: ``prime_set``
    accepts q - 1.  alpha > 2048 is past the cap without computing q."""
    try:
        prime_set(MAX_FACTORED_Q + 1 if alpha > 2048 else p ** alpha - 1)
    except BudgetExceededError:
        raise BudgetExceededError(
            f"q = {p}^{alpha} is refused: q must be at most 2^2048, and "
            f"q - 1 must factor completely within factorint's limit of "
            f"{FACTOR_LIMIT}") from None


def divisor_orders(p: int, alpha: int) -> list[tuple[int, int]]:
    """(d, o_d(p)) for d ascending over the divisors of q - 1 of a valid
    field; a field that ``check_factored`` refuses raises first."""
    check_factored(p, alpha)
    return [(d, mult_order(p, d)) for d in divisors(p ** alpha - 1)]


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


@dataclass(frozen=True)
class ClassParams:
    """Arithmetic description of one subgroup class at one subset size.

    Structural constraints are enforced at construction; the congruence
    k == 0 or p**beta (mod d*p**beta) is *not* (counts for violating k
    are well defined and equal to 0), query it via congruence_violation.
    """

    p: int
    alpha: int
    k: int
    d: int
    i: int
    j: int
    #: o_d(p), returned by the shape check
    odp: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        check_field(self.p, self.alpha)
        q = self.p ** self.alpha
        if not 0 <= self.k <= q:
            raise ValueError(f"k must lie in [0, {q}], got {self.k}")
        object.__setattr__(self, "odp", check_shape(
            self.p, self.alpha, self.d, self.i, self.j))

    @cached_property
    def q(self) -> int:
        return self.p ** self.alpha

    @cached_property
    def beta(self) -> int:
        return self.odp * self.i * self.j

    @cached_property
    def h_size(self) -> int:
        """|H| = p**beta."""
        return self.p ** self.beta

    def congruence_violation(self) -> str | None:
        """Message naming the violated zero-pattern congruence, or None."""
        pb = self.h_size
        c = self.k % (self.d * pb)
        if c == 0 or c == pb:
            return None
        return (f"k = {self.k} is {c} mod d*p^beta = {self.d * pb}; "
                f"it must be 0 or p^beta = {pb}")

    @property
    def congruence_ok(self) -> bool:
        return self.congruence_violation() is None


def _subsets(items: tuple[int, ...]):
    for r in range(len(items) + 1):
        yield from itertools.combinations(items, r)


def class_terms(p: int, alpha: int, d: int, i: int,
                j: int) -> tuple[tuple[int, int, int], ...]:
    """Signed terms (coeff, u, v) of the closed form for the class
    (d, i, j) of F_{p**alpha}, one per (u, v), none zero, sorted by
    (u, v).  N(k) = sum(coeff * s_qk(q, k, u, v)).

    Checks the field and the shape first, raising what ``ClassParams``
    raises for them.
    """
    check_field(p, alpha)
    return _class_terms(p, alpha, d, i, j, check_shape(p, alpha, d, i, j))


def _class_terms(p: int, alpha: int, d: int, i: int, j: int, odp: int,
                 k: int = 0) -> tuple[tuple[int, int, int], ...]:
    """``class_terms`` for a shape already checked, with o_d(p) given,
    restricted to the terms that can be nonzero at k.  At k = 0 every
    term is kept.

    The closed form is one inclusion-exclusion over the overgroups of a
    class representative S: subsets P of the primes dividing (|H'| - 1)/d
    select multiplicative enlargements of order u = d*prod(P), and
    subspace dimensions l (Moebius-weighted, counted by q-binomials over
    F_{p**m}, m = o_u(p)) select translation enlargements of size
    v = p**(beta + l*m).  A term carries the sign (-1)**len(P), and for
    d = 1 every term with P nonempty also carries p**(alpha - beta): S is
    then a pure translation group, so a multiplicative enlargement of S
    is fixed only once the coset of H that its multiplier fixes is
    chosen, one of q/|H| = p**(alpha - beta).  For d > 1 the multiplier
    of S already fixes that coset, and the terms with P empty add no
    multiplier, so neither carries the factor.  The two divisibilities
    the sum relies on are guarded by ValueError raises.

    ``s_qk(q, k, u, v)`` is nonzero only if v | k and u | k or
    u | k - p**beta (u is prime to p and p**m == 1 mod u, so
    v == p**beta mod u).  So P is drawn from the primes of
    gcd((|H'| - 1)/d, r/d) for r in {k, k - p**beta} with r >= 0 and
    d | r, and l stops at the first v that does not divide k.  Every
    number divides 0, so k = 0 walks every P and every l.
    """
    beta = odp * i * j
    free = alpha - beta
    hprime = p ** (odp * i)
    quot, rem = divmod(hprime - 1, d)
    if rem:
        raise ValueError(f"d = {d} does not divide |H'| - 1 = {hprime - 1}")
    pb = p ** beta
    # for d = 1 both residues can hold; their prime sets are disjoint
    # (a common prime would divide p**beta), so only P = () repeats
    walk = dict.fromkeys(
        P for r in (k, k - pb) if r >= 0 and r % d == 0
        for P in _subsets(prime_set(math.gcd(quot, r // d))))
    terms = []
    for P in walk:
        u = d * math.prod(P)
        m = mult_order(p, u) if P else odp
        hi, rem = divmod(free, m)
        if rem:
            raise ValueError(
                f"o_u(p) = {m} does not divide alpha - beta = {free} (u = {u})")
        sign = (-1) ** len(P) * (p ** free if d == 1 and P else 1)
        base = p ** m
        v = pb
        for w in _moebius_weights(hi, base):
            if k % v:
                break
            terms.append((sign * w, u, v))
            v *= base
    terms.sort(key=lambda t: (t[1], t[2]))
    return tuple(terms)


def _moebius_weights(n: int, base: int):
    """(-1)**l * base**C(l, 2) * [n choose l]_base for l = 0, 1, ..., n:
    the Moebius value of an l-dimensional quotient times the number of
    l-dimensional subspaces of an n-dimensional space over a field with
    ``base`` elements.  Each weight comes from the one before it by the
    exact recurrence w(l + 1) = -w(l)*base**l*(base**(n-l) - 1)
    // (base**(l+1) - 1)."""
    w, bl = 1, 1
    for l in range(n + 1):
        yield w
        w = -w * bl * (base ** (n - l) - 1) // (bl * base - 1)
        bl *= base


def count_N(params: ClassParams) -> int:
    """Exact number of k-subsets of F_q whose affine stabilizer is exactly
    a subgroup of the class described by ``params``: the class's terms
    that can be nonzero at k, evaluated there."""
    return evaluate_terms(params.q, params.k, _class_terms(
        params.p, params.alpha, params.d, params.i, params.j, params.odp,
        params.k))


def class_shapes(p: int, alpha: int) -> list[tuple[int, int, int]]:
    """All (d, i, j) triples that ``check_shape`` accepts for F_{p**alpha}:
    d ascending over the divisors of q - 1, then i ascending, then j
    ascending."""
    check_field(p, alpha)
    return [(d, i, j) for d, i, j, _ in _shapes(p, alpha)]


def _shapes(p: int, alpha: int):
    """``class_shapes`` of a field already checked, each with o_d(p)."""
    for d, odp in divisor_orders(p, alpha):
        top = alpha // odp
        for i in divisors(top):
            for j in (0, 1) if i == top else range(1, top // i):
                yield d, i, j, odp


def enumerate_params(p: int, alpha: int, k_max: int | None = None) -> list[ClassParams]:
    """All table tuples with 0 <= k <= k_max (default q // 2) satisfying
    the zero-pattern congruence, in emission order: k outermost, then d
    ascending, then i, then j."""
    shapes = class_shapes(p, alpha)
    q = p ** alpha
    if k_max is None:
        k_max = q // 2
    out = []
    for k in range(k_max + 1):
        for d, i, j in shapes:
            cp = ClassParams(p, alpha, k, d, i, j)
            if cp.congruence_ok:
                out.append(cp)
    return out


def _column(q: int, u: int, v: int, k_max: int) -> dict[int, int]:
    """k -> s_qk(q, k, u, v) at the k <= k_max with k == 0 or v (mod u*v),
    the only k where it can be nonzero; ``s_qk`` is 0 at every other k.

    One pass over the selectors s = 0, 1, ... builds the binomials
    C(top, s), top = (q - v)/(u*v), by the exact recurrence
    C(top, s) = C(top, s - 1)*(top - s + 1)//s and adds each at k = s*u*v
    and k = s*u*v + v.  When u = 1 the second k is the first of s + 1, so
    the two add up there.
    """
    uv = u * v
    top, rem = divmod(q - v, uv)
    col: dict[int, int] = {}
    if rem:
        return col
    binom = 1
    for s in range(min(top, k_max // uv) + 1):
        if s:
            binom = binom * (top - s + 1) // s
        k = s * uv
        col[k] = col.get(k, 0) + binom
        if k + v <= k_max:
            col[k + v] = binom
    return col


def build_table(p: int, alpha: int,
                k_max: int | None = None) -> list[tuple[int, ...]]:
    """One row (k, d, odp, i, j, beta, N), in ``CSV_COLUMNS`` order, per
    enumerate_params tuple, in the same order.

    The table reads shared columns: one ``_column`` per distinct (u, v)
    among the class terms of the field, built on first use.  Each class
    adds coeff * column into slots preset at the k of its congruence and
    reads its rows off them; a column key off it would raise ``KeyError``.
    A table of more than ``MAX_TABLE_ROWS`` rows raises
    ``BudgetExceededError`` before anything is built.
    """
    check_field(p, alpha)
    q = p ** alpha
    if k_max is None:
        k_max = q // 2
    if not 0 <= k_max <= q:
        raise ValueError(f"k must lie in [0, {q}], got {k_max}")
    shapes = list(_shapes(p, alpha))
    rows = 0
    for d, i, j, odp in shapes:
        # as many rows as the loop below writes for this class
        pb = p ** (odp * i * j)
        rows += k_max // (d * pb) + 1
        if d > 1:
            rows += (k_max - pb) // (d * pb) + 1
    if rows > MAX_TABLE_ROWS:
        raise BudgetExceededError(
            f"the table of q = {q} up to k = {k_max} has {rows} rows, "
            f"over the limit of {MAX_TABLE_ROWS}")
    columns: dict[tuple[int, int], dict[int, int]] = {}
    by_k: list[list[tuple[int, ...]]] = [[] for _ in range(k_max + 1)]
    for d, i, j, odp in shapes:
        beta = odp * i * j
        pb = p ** beta
        # one slot per k == 0 or p**beta (mod d*p**beta).  Every column key
        # has one: d | u, p**beta | v, and v == p**beta (mod d*p**beta)
        # since d | u and p**o_u(p) == 1 (mod u)
        counts = dict.fromkeys(range(0, k_max + 1, d * pb), 0)
        if d > 1:
            counts.update(dict.fromkeys(range(pb, k_max + 1, d * pb), 0))
        for c, u, v in _class_terms(p, alpha, d, i, j, odp):
            col = columns.get((u, v))
            if col is None:
                col = columns[u, v] = _column(q, u, v, k_max)
            for k, s in col.items():
                counts[k] += c * s
        for k, n in counts.items():
            by_k[k].append((k, d, odp, i, j, beta, n))
    return [row for rows in by_k for row in rows]
