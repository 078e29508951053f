"""Closed-form stabilizer-class counts and the tables built from them.

The group of affine maps x -> a*x + b (a != 0) acts on F_q, q = p**alpha.
Every subgroup is generated by one map together with translations by an
F_p-subspace H, and its conjugacy data reduce to an arithmetic tuple:

    d     order of the multiplicative part (a divisor of q - 1),
    beta  with |H| = p**beta,
    i, j  encoding beta = o_d(p)*i*j and |H'| = p**(o_d(p)*i), where H'
          is the largest subfield of F_q mapping H into itself.

The number N of k-element subsets of F_q whose setwise stabilizer is
exactly a subgroup of the class (d, i, j) is read off one record,
``StabilizerClass``.  It holds the class's facts, each set once when it
is built: o_d(p), beta, |H| = p**beta, and the zero-pattern congruence
k == 0 or p**beta (mod d*p**beta), stated as a ``period`` and its
``residues``.  ``classes`` lists the records of a field, and
``ClassParams`` is the record of one class at one subset size k.

1. *Terms.*  One walk reduces the closed form for the class to signed
   terms (coeff, u, v), yielded unsorted; ``terms(k)`` sorts them into a
   tuple, the shape that ``oracle.lattice_terms`` also returns.  The
   closed form is one signed sum over the overgroups of the class.  A
   term can be nonzero at k only if v | k and u | k or u | k - p**beta,
   so the walk at k visits only the overgroups that pass that test at k;
   at k = 0 every overgroup passes, and it gives every term.
2. *Evaluation.*  N = sum(coeff * s_qk(q, k, u, v)), where ``s_qk``
   counts the k-subsets fixed by a subgroup with multiplicative part of
   order u and translation part of size v.  ``StabilizerClass.count``,
   and ``count_N`` through it, sums the walk at k with ``evaluate_terms``
   as it goes, building no tuple.  The table is one per-class pass,
   ``class_counts``: it reads shared columns k -> s_qk(q, k, u, v), one
   per distinct (u, v) of the field, each built once by the binomial
   recurrence, and each class adds coeff * column into its own slots
   k -> N, preset at the k of its congruence.  The CLI renders every
   table format from that pass directly, one row per slot in
   ``CSV_COLUMNS`` order.

Everything is exact integer arithmetic; no floating point is used
anywhere in this module.

The number theory, from primality to the admission of a field, lives in
:mod:`aglstab.numtheory`; this module adds the one rule of its own,
``check_subset_size`` (0 <= k <= q).  ``ClassParams`` runs the field
rule, then that rule, then the shape rule, each once, and ``classes``
builds only the triples the shape rule accepts, over the divisors of an
admitted field.  ``count_N`` at k refuses a class only where
gcd((|H'| - 1)/d, r/d) does not factor, for r = k or r = k - p**beta.
"""

from __future__ import annotations

import math
from collections.abc import Iterable

# perfbench's wrap list (spans.FUNCTIONS) also reaches mult_order here
from .numtheory import (MAX_TABLE_ROWS, BudgetExceededError, check_field,
                        check_shape, divisor_orders, mult_order, prime_set)

#: column order of the emitted tables
CSV_COLUMNS = ("k", "d", "odp", "i", "j", "beta", "N")


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
                   terms: Iterable[tuple[int, int, int]]) -> int:
    """N(k) = sum(coeff * s_qk(q, k, u, v)) over signed terms (coeff, u, v)
    from any iterable: the walk that ``StabilizerClass.count`` sums, or the
    tuples of ``StabilizerClass.terms`` and ``oracle.lattice_terms``."""
    return sum(c * s_qk(q, k, u, v) for c, u, v in terms)


def check_subset_size(q: int, k: int) -> None:
    """The subset-size rule: a subset of F_q has 0 <= k <= q elements."""
    if not 0 <= k <= q:
        raise ValueError(f"k must lie in [0, {q}], got {k}")


class StabilizerClass:
    """The stabilizer class (d, i, j) of a valid field F_{p**alpha}, with
    o_d(p) = ``odp`` given and every fact derived from them set once.

    The zero-pattern congruence is ``k % period in residues``: k == 0 or
    p**beta (mod d*p**beta), the one residue 0 when d = 1.  Counts at a
    violating k are well defined and equal to 0.  The record trusts its
    shape: ``classes`` builds it from the divisors of q - 1, and
    ``ClassParams`` checks the shape first.
    """

    __slots__ = ("p", "alpha", "d", "i", "j", "odp", "q", "beta", "h_size",
                 "period", "residues")

    def __init__(self, p: int, alpha: int, d: int, i: int, j: int,
                 odp: int):
        self.p = p
        self.alpha = alpha
        self.d = d
        self.i = i
        self.j = j
        self.odp = odp
        self.q = p ** alpha
        self.beta = odp * i * j
        #: |H| = p**beta
        self.h_size = p ** self.beta
        self.period = d * self.h_size
        self.residues = (0,) if d == 1 else (0, self.h_size)

    def congruence_violation(self, k: int) -> str | None:
        """Message naming the violated zero-pattern congruence, or None."""
        c = k % self.period
        if c in self.residues:
            return None
        return (f"k = {k} is {c} mod d*p^beta = {self.period}; "
                f"it must be 0 or p^beta = {self.h_size}")

    def terms(self, k: int = 0) -> tuple[tuple[int, int, int], ...]:
        """The terms of ``_walk(k)`` sorted by (u, v): signed terms
        (coeff, u, v) of the closed form, one per (u, v), none zero,
        restricted to the terms that can be nonzero at k.  At k = 0 every
        term is kept, and N(k) = sum(coeff * s_qk(q, k, u, v)) at every k."""
        return tuple(sorted(self._walk(k), key=lambda t: (t[1], t[2])))

    def _walk(self, k: int):
        """Yield the terms of ``terms(k)`` as they are found, unsorted.

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

        u is the lcm of the d*r over r in P, so o_u(p) is the lcm of the
        o_{d*r}(p), since o_{lcm(a, b)}(p) = lcm(o_a(p), o_b(p)).  Each
        o_{d*r}(p) is found once per call, as o_d(p) times the order of
        p**o_d(p) modulo d*r; that order divides i, because d*r divides
        |H'| - 1 = p**(o_d(p)*i) - 1.  P = () takes o_d(p) as it is.

        ``s_qk(q, k, u, v)`` is nonzero only if v | k and u | k or
        u | k - p**beta (u is prime to p and p**m == 1 mod u, so
        v == p**beta mod u).  So P is drawn from the primes of
        gcd((|H'| - 1)/d, r/d) for r in {k, k - p**beta} with r >= 0 and
        d | r, and l stops at the first v that does not divide k.  Every
        number divides 0, so k = 0 walks every P and every l.  The weight
        (-1)**l * b**C(l, 2) * [hi choose l]_b of dimension l, b = p**m and
        hi = (alpha - beta)/m, is found only once its v divides k, from the
        one before by the exact recurrence
        w(l + 1) = -w(l)*b**l*(b**(hi - l) - 1) // (b**(l + 1) - 1).
        """
        p, d, odp, pb = self.p, self.d, self.odp, self.h_size
        free = self.alpha - self.beta
        top = p ** free     # b**hi, the last b**l
        hprime = p ** (odp * self.i)
        quot, rem = divmod(hprime - 1, d)
        if rem:
            raise ValueError(
                f"d = {d} does not divide |H'| - 1 = {hprime - 1}")
        # u = d*prod(P) -> (len(P), o_u(p)).  For d = 1 both residues can
        # hold; their prime sets are disjoint (a common prime would divide
        # p**beta), so only P = () repeats and no order is found twice
        walk = {}
        for r in (k, k - pb):
            if r < 0 or r % d:
                continue
            subsets = [(d, 0, odp)]
            g = math.gcd(quot, r // d)
            for prime in prime_set(g) if g > 1 else ():
                o = odp * mult_order(pow(p, odp, d * prime), d * prime)
                subsets += [(u * prime, n + 1, math.lcm(m, o))
                            for u, n, m in subsets]
            walk.update((u, (n, m)) for u, n, m in subsets)
        for u, (n, m) in walk.items():
            if free % m:
                raise ValueError(f"o_u(p) = {m} does not divide "
                                 f"alpha - beta = {free} (u = {u})")
            if k % pb:
                continue
            # w is the weight of dimension l, bl = b**l, v = p**beta*bl,
            # and the recurrence's b**l*(b**(hi - l) - 1) is top - bl
            w = (-1) ** n * (top if d == 1 and n else 1)
            base, bl, v = p ** m, 1, pb
            while True:
                yield w, u, v
                v *= base
                if bl == top or k % v:
                    break
                w = -w * (top - bl) // (bl * base - 1)
                bl *= base

    def count(self, k: int) -> int:
        """Exact number of k-subsets of F_q whose affine stabilizer is
        exactly a subgroup of this class: the terms of ``_walk(k)`` summed
        as they are found, with no tuple built and nothing sorted."""
        return evaluate_terms(self.q, k, self._walk(k))


class ClassParams(StabilizerClass):
    """The record of one class at one subset size k, built from an
    unchecked tuple: the field rule, then 0 <= k <= q, then the shape,
    each checked once, in that order.  The congruence is *not* enforced,
    and the field is not admitted: ``count_N`` says why."""

    __slots__ = ("k",)

    def __init__(self, p: int, alpha: int, k: int, d: int, i: int, j: int):
        check_field(p, alpha)
        check_subset_size(p ** alpha, k)
        super().__init__(p, alpha, d, i, j, check_shape(p, alpha, d, i, j))
        self.k = k


def count_N(params: ClassParams) -> int:
    """Exact number of k-subsets of F_q whose affine stabilizer is exactly
    a subgroup of the class described by ``params``, at its k.  A single
    count admits no field, which would cost up to two fifths of a cold
    count; it factors only gcd((|H'| - 1)/d, r/d), and only the CLI admits."""
    return params.count(params.k)


def classes(p: int, alpha: int) -> list[StabilizerClass]:
    """Every stabilizer class of F_{p**alpha}, exactly the triples that
    ``check_shape`` accepts: d ascending over the divisors of q - 1, then
    i ascending over the divisors of alpha/o_d(p), then j ascending, the
    d from ``divisor_orders``, which admits the field and bounds them."""
    return [StabilizerClass(p, alpha, d, i, j, odp)
            for d, odp in divisor_orders(p, alpha)
            for i in range(1, alpha // odp + 1) if alpha % (odp * i) == 0
            for j in ((0, 1) if odp * i == alpha
                      else range(1, alpha // (odp * i)))]


# kept for perfbench's wrap list (spans.FUNCTIONS) until ROADMAP item 24
def class_shapes(p: int, alpha: int) -> list[tuple[int, int, int]]:
    """The (d, i, j) triples of ``classes``, in the same order."""
    return [(c.d, c.i, c.j) for c in classes(p, alpha)]


# kept for perfbench's wrap list (spans.FUNCTIONS) until ROADMAP item 24
def enumerate_params(p: int, alpha: int, k_max: int | None = None) -> list[ClassParams]:
    """All table tuples with 0 <= k <= k_max (default q // 2) satisfying
    the zero-pattern congruence, in emission order: k outermost, then d
    ascending, then i, then j."""
    shapes = classes(p, alpha)
    k_max = p ** alpha // 2 if k_max is None else k_max
    return [ClassParams(p, alpha, k, c.d, c.i, c.j)
            for k in range(k_max + 1) for c in shapes
            if c.congruence_violation(k) is None]


def s_qk_column(q: int, u: int, v: int, k_max: int) -> dict[int, int]:
    """``s_qk`` in column form: k -> s_qk(q, k, u, v) at the k <= k_max
    with k == 0 or v (mod u*v), the only k where it can be nonzero;
    ``s_qk`` is 0 at every other k.  The table's class pass and the
    lattice route's row (``oracle.lattice_counts``) read it.

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


def class_counts(p: int, alpha: int, k_max: int | None = None
                 ) -> list[tuple[StabilizerClass, dict[int, int]]]:
    """Each class of ``classes``, in its order, with its slots k -> N, one
    for each 0 <= k <= k_max (default q // 2) that its zero-pattern
    congruence admits: the per-class pass of the table.

    The pass reads shared columns: one ``s_qk_column`` per distinct (u, v)
    among the class terms of the field, built on first use.  Each class
    adds coeff * column into slots preset at the k of its congruence; a
    column key off them would raise ``KeyError``.  ``classes`` refuses a
    q - 1 with over MAX_TABLE_ROWS/2 divisors before k_max is checked,
    and a table of over ``MAX_TABLE_ROWS`` slots raises
    ``BudgetExceededError`` before any slot is filled.
    """
    shapes = classes(p, alpha)
    q = p ** alpha
    k_max = q // 2 if k_max is None else k_max
    check_subset_size(q, k_max)
    # as many rows as the slots below; no len(range(...)), which overflows
    # past sys.maxsize
    rows = sum((k_max - r) // c.period + 1
               for c in shapes for r in c.residues)
    if rows > MAX_TABLE_ROWS:
        raise BudgetExceededError(
            f"the table of q = {q} up to k = {k_max} has {rows} rows, "
            f"over the limit of {MAX_TABLE_ROWS}")
    columns: dict[tuple[int, int], dict[int, int]] = {}
    table = []
    for c in shapes:
        # one slot per k of the congruence.  Every column key has one:
        # d | u, p**beta | v, and v == p**beta (mod d*p**beta) since d | u
        # and p**o_u(p) == 1 (mod u)
        counts = {}
        for r in c.residues:
            counts.update(dict.fromkeys(range(r, k_max + 1, c.period), 0))
        for coeff, u, v in c.terms():
            col = columns.get((u, v))
            if col is None:
                col = columns[u, v] = s_qk_column(q, u, v, k_max)
            for k, s in col.items():
                counts[k] += coeff * s
        table.append((c, counts))
    return table

