"""Independent verification engines for the closed-form counts.

Three routes to the same numbers, none sharing code with the closed
forms in :mod:`aglstab.counting`:

* ``stabilizer`` / ``full_census``: test all q*(q-1) affine maps against
  a subset bitmask (``fixing_maps``) and classify every k-subset by its
  exact stabilizer.  The scan is bit-parallel over translations: once per
  subset B it builds the q masks ``shifts[z] = {b : z + b in B}``, and
  for each multiplier a the AND of ``shifts[a*x]`` over x in B holds
  exactly the b with a*B + b = B, so every map is still decided.
* ``count_N_bruteforce``: enumerate only the orbit unions of a subgroup
  (the subsets it fixes setwise) and keep those that no map found by the
  same full scan fixes from outside it.
* ``count_N_via_lattice``: the alternating sum over all selections of
  immediate supergroups, with each join computed on descriptors and its
  fixed-subset count read off the orbit sizes.  The sum is folded in one
  supergroup at a time (``lattice_terms``), so it never walks the 2**t
  selections one by one, yet every selection still contributes its sign
  at its own join.

Subsets are plain integer bitmasks over the canonical element order.
Budgets are explicit and overruns raise; nothing is ever truncated
silently.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from functools import lru_cache

from sympy import divisors

from .agl import (Subgroup, immediate_supergroups, join_pair,
                  subgroup_from_pairs)
from .counting import mult_order, s_qk
from .ffield import Field, QuotientSpace, Subspace, span, zero_subspace

DEFAULT_STABILIZER_LIMIT = 4096
DEFAULT_SUBSET_BUDGET = 10_000_000
DEFAULT_CLOSURE_LIMIT = 5_000
DEFAULT_ALL_SUBGROUPS_LIMIT = 64


class BudgetExceededError(RuntimeError):
    """An oracle scan would exceed its configured budget."""


def subset_mask(elements) -> int:
    mask = 0
    for x in elements:
        mask |= 1 << x
    return mask


def mask_elements(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


@lru_cache(maxsize=None)
def _digit_steps(p: int, alpha: int) -> tuple[tuple[int, int, int], ...]:
    """(p**t, low, top) for each base-p digit t: ``top`` masks the
    elements whose digit t is p - 1, ``low`` the other elements."""
    steps = []
    for t in range(alpha):
        step = p ** t
        top = 0
        for x in range(p ** alpha):
            if x // step % p == p - 1:
                top |= 1 << x
        steps.append((step, ((1 << p ** alpha) - 1) ^ top, top))
    return tuple(steps)


def _translate_masks(field: Field, mask: int) -> list[int]:
    """``shifts[z]`` has bit b set iff z + b lies in the masked subset.

    Field addition is digit-wise mod p on the integer encoding, so adding
    the unit of digit t to b gives b + p**t, or b - (p-1)*p**t where digit
    t of b is p - 1.  One shift-and-mask step thus turns shifts[z - p**t]
    into shifts[z]: a rotation for prime q, a block swap for p = 2.
    """
    shifts = [mask]
    for step, low, top in _digit_steps(field.p, field.alpha):
        up = (field.p - 1) * step
        for z in range(step, field.p * step):
            m = shifts[z - step]
            shifts.append((m >> step) & low | (m << up) & top)
    return shifts


def fixing_maps(field: Field, mask: int):
    """Every (a, b) with a != 0 whose map x -> a*x + b fixes the masked
    subset setwise, in increasing (a, b) order.

    All q*(q-1) maps are tested, the q translations of one multiplier at
    once: bit b of AND over x in B of shifts[a*x] is set iff a*x + b lies
    in B for every x in B.
    """
    q = field.q
    elems = mask_elements(mask)
    shifts = _translate_masks(field, mask)
    table = field.mul_table
    full = (1 << q) - 1
    for a in range(1, q):
        row = table[a] if table else {x: field.mul(a, x) for x in elems}
        hits = full
        for x in elems:
            hits &= shifts[row[x]]
            if not hits:
                break
        while hits:
            low = hits & -hits
            yield a, low.bit_length() - 1
            hits ^= low


def stabilizer(field: Field, mask: int,
               q_limit: int = DEFAULT_STABILIZER_LIMIT) -> Subgroup:
    """Canonical descriptor of the setwise stabilizer of a subset,
    computed by testing every affine map."""
    if field.q > q_limit:
        raise BudgetExceededError(
            f"stabilizer scan needs q <= {q_limit}, got q = {field.q}")
    return subgroup_from_pairs(field, fixing_maps(field, mask))


# ---------------------------------------------------------------------------
# orbit-union enumeration


def _union_branches(S: Subgroup, k: int) -> list[tuple[int, list[int], int]]:
    """(base_mask, choosable_orbit_masks, how_many) branches whose unions
    are exactly the size-k orbit unions of S."""
    part = S.orbits()
    masks = [subset_mask(o) for o in part.orbits]
    h = S.H.size
    branches = []
    if S.d == 1:
        if k % h == 0:
            branches.append((0, masks, k // h))
    else:
        big = S.d * h
        special = next(m for m, o in zip(masks, part.orbits) if len(o) == h)
        bigs = [m for o, m in zip(part.orbits, masks) if len(o) == big]
        for base, rem in ((0, k), (special, k - h)):
            if rem >= 0 and rem % big == 0:
                branches.append((base, bigs, rem // big))
    return branches


def n_orbit_unions(S: Subgroup, k: int) -> int:
    """Number of size-k orbit unions, i.e. |S'|, counted directly."""
    return sum(math.comb(len(opts), t) for _, opts, t in _union_branches(S, k))


def orbit_union_masks(S: Subgroup, k: int):
    """Deterministic iterator over the size-k orbit unions of S."""
    for base, opts, t in _union_branches(S, k):
        for combo in itertools.combinations(opts, t):
            mask = base
            for m in combo:
                mask |= m
            yield mask


def is_exact_stabilizer(S: Subgroup, mask: int) -> bool:
    """True iff no affine map outside S fixes the masked subset.

    Only meaningful when the subset is a union of S-orbits, so that the
    stabilizer is known to contain S.
    """
    member = S.element_pairs()
    return all(pair in member for pair in fixing_maps(S.field, mask))


def count_N_bruteforce(S: Subgroup, k: int,
                       budget: int = DEFAULT_SUBSET_BUDGET) -> int:
    """Count the k-subsets with stabilizer exactly S by scanning every
    size-k union of S-orbits."""
    if not 0 <= k <= S.field.q:
        raise ValueError(f"k must lie in [0, {S.field.q}], got {k}")
    candidates = n_orbit_unions(S, k)
    if candidates > budget:
        raise BudgetExceededError(
            f"{candidates} orbit unions exceed the budget of {budget}")
    return sum(is_exact_stabilizer(S, mask) for mask in orbit_union_masks(S, k))


def full_census(field: Field, k: int,
                budget: int = DEFAULT_SUBSET_BUDGET) -> dict[Subgroup, int]:
    """Stabilizer of every k-subset of F_q, grouped by canonical descriptor."""
    if not 0 <= k <= field.q:
        raise ValueError(f"k must lie in [0, {field.q}], got {k}")
    total = math.comb(field.q, k)
    if total > budget:
        raise BudgetExceededError(
            f"{total} subsets exceed the budget of {budget}")
    census: Counter[Subgroup] = Counter()
    for combo in itertools.combinations(range(field.q), k):
        census[stabilizer(field, subset_mask(combo))] += 1
    if sum(census.values()) != total:
        raise RuntimeError(f"the census classified {sum(census.values())} "
                           f"of the {total} subsets")
    return dict(census)


# ---------------------------------------------------------------------------
# inclusion-exclusion over the supergroup lattice


@lru_cache(maxsize=None)
def lattice_terms(S: Subgroup,
                  closure_limit: int = DEFAULT_CLOSURE_LIMIT,
                  ) -> tuple[tuple[int, int, int], ...]:
    """Signed terms (coefficient, d, |H|) of the inclusion-exclusion for
    N(S, k); k enters only through the fixed-subset counts, so the terms
    are reusable across k.

    The sum runs over all 2**t selections X of the t immediate
    supergroups, with sign (-1)**|X| at join(S, X), folded in one
    supergroup U at a time: f maps subgroups to coefficients, starts as
    {S: 1}, and every (T, c) in f adds -c at join(T, U) -- the selections
    that also take U.  Entries that cancel to zero are dropped after each
    U; more than ``closure_limit`` nonzero entries raise.
    """
    if S.b != 0:
        raise ValueError("lattice evaluation requires b = 0; conjugate first")
    supers = immediate_supergroups(S)
    f: dict[Subgroup, int] = {S: 1}
    for folded, U in enumerate(supers, 1):
        for T, c in list(f.items()):
            J = join_pair(T, U)
            f[J] = f.get(J, 0) - c
        f = {T: c for T, c in f.items() if c}
        if len(f) > closure_limit:
            raise BudgetExceededError(
                f"the lattice fold holds {len(f)} subgroups after {folded} "
                f"of {len(supers)} supergroups, over the limit of "
                f"{closure_limit}")
    agg: Counter = Counter()
    for T, c in f.items():
        agg[(T.d, T.H.size)] += c
    return tuple((c, d, h) for (d, h), c in sorted(agg.items()) if c)


def count_N_via_lattice(S: Subgroup, k: int,
                        closure_limit: int = DEFAULT_CLOSURE_LIMIT) -> int:
    """N(S, k) by inclusion-exclusion over the immediate supergroups."""
    if not 0 <= k <= S.field.q:
        raise ValueError(f"k must lie in [0, {S.field.q}], got {k}")
    q = S.field.q
    return sum(c * s_qk(q, k, d, h)
               for c, d, h in lattice_terms(S, closure_limit))


# ---------------------------------------------------------------------------
# exhaustive subgroup enumeration


def all_subspaces(field: Field, K) -> list[Subspace]:
    """Every K-subspace of the field, ordered by (dimension, basis)."""
    zero = zero_subspace(field)
    out = {zero.basis: zero}
    frontier = [zero]
    while frontier:
        new = []
        for W in frontier:
            for x in range(1, field.q):
                if W.contains(x):
                    continue
                W2 = span(W.basis + (x,), K)
                if W2.basis not in out:
                    out[W2.basis] = W2
                    new.append(W2)
        frontier = new
    return sorted(out.values(), key=lambda W: (W.dim, W.basis))


def all_subgroups(field: Field,
                  q_limit: int = DEFAULT_ALL_SUBGROUPS_LIMIT) -> list[Subgroup]:
    """Every subgroup of the affine group on F_q, each exactly once.

    Walks d over the divisors of q - 1, H over the F_{p**o_d(p)}-subspaces
    and b over the coset representatives of H (b = 0 when d = 1); the
    canonical-descriptor uniqueness makes the enumeration duplicate-free.
    """
    if field.q > q_limit:
        raise BudgetExceededError(
            f"subgroup enumeration needs q <= {q_limit}, got q = {field.q}")
    out = []
    for d in divisors(field.q - 1):
        K = field.subfield(mult_order(field.p, d))
        for H in all_subspaces(field, K):
            if d == 1:
                out.append(Subgroup(field, 1, 0, H))
            else:
                quot = QuotientSpace(field, H)
                out.extend(Subgroup(field, d, b, H) for b in quot.transversal)
    return out
