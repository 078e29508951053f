"""Independent verification engines for the closed-form counts.

Three routes to the same numbers, none sharing code with the closed
forms in :mod:`aglstab.counting`.  A map is the int pair (a, b) of
x -> a*x + b, and a subset is an int mask over the element codes, as
:mod:`aglstab.ffield` defines it.

* ``stabilizer``: test all q*(q-1) affine maps against a subset mask
  (``fixing_maps``) and return the subset's exact stabilizer.  The scan
  is bit-parallel over translations: once per subset B,
  ``ffield.translate_masks`` builds the q masks ``shifts[z] = {b : z + b
  in B}``, and for each multiplier a the AND of ``shifts[a*x]`` over x in
  B holds exactly the b with a*B + b = B, so every map is still decided.
  Every scan over all maps, and ``aglstab verify`` and ``design`` before
  they build the field, check the cap q <= DEFAULT_STABILIZER_LIMIT with
  ``check_map_scan``.
* ``count_N_bruteforce``: look only at the orbit unions of a subgroup S
  (the subsets it fixes setwise) and keep those whose stabilizer is
  exactly S.  ``bruteforce_counts`` decides all 2**m of them (m orbits)
  in one bit-sliced pass: every map (a, b) yields its pairs (orbit(x),
  orbit(a*x + b)), and the orbit unions it fixes are those closed under
  its pairs, computed for a whole chunk of candidates with one int AND
  per pair.  The D maps with no pair between two distinct orbits fix
  every union; if D > |S| every count is 0, and if D = |S| a union is
  exact iff no other map fixes it.  Where a class has at most 4q orbit
  unions, or more than the budget, the size-k unions are instead checked
  one by one with the same full scan as ``stabilizer`` (exact iff it
  finds no more than |S| fixing maps, since an orbit union's stabilizer
  contains S).  Either way every map is decided.  The budget is checked
  once, before either path: more than ``budget`` size-k unions raise
  before any scan.
* ``count_N_via_lattice``: the alternating sum over all selections of
  immediate supergroups, with each join computed on descriptors and its
  fixed-subset count read off the orbit sizes.  The sum is folded in one
  supergroup at a time (``lattice_terms``), so it never walks the 2**t
  selections one by one, yet every selection still contributes its sign
  at its own join.  The fold's joins share one ``agl.JoinTable``, which
  lives for one call, so each distinct span, coset leader and subgroup
  is built once.

Budgets are explicit and overruns raise; nothing is ever truncated
silently.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from functools import lru_cache

from . import ffield
from .agl import (JoinTable, Subgroup, immediate_supergroups, join_pair,
                  subgroup_from_pairs)
from .counting import BudgetExceededError, check_subset_size, evaluate_terms
from .ffield import Field

DEFAULT_STABILIZER_LIMIT = 4096
DEFAULT_SUBSET_BUDGET = 10_000_000
DEFAULT_CLOSURE_LIMIT = 5_000


def check_map_scan(q: int) -> int:
    """The cap of every scan over all q*(q-1) maps; returns q."""
    if q > DEFAULT_STABILIZER_LIMIT:
        raise BudgetExceededError(
            f"map scan needs q <= {DEFAULT_STABILIZER_LIMIT}, got q = {q}")
    return q


def fixing_maps(field: Field, mask: int):
    """Every (a, b) with a != 0 whose map x -> a*x + b fixes the masked
    subset setwise, in increasing (a, b) order.

    All q*(q-1) maps are tested, the q translations of one multiplier at
    once: bit b of AND over x in B of shifts[a*x] is set iff a*x + b lies
    in B for every x in B.  q is capped by DEFAULT_STABILIZER_LIMIT,
    checked before the first map is tested.
    """
    q = check_map_scan(field.q)
    elems = ffield.mask_elements(mask)
    shifts = ffield.translate_masks(field, mask)
    mul = field.mul
    full = (1 << q) - 1
    for a in range(1, q):
        hits = full
        for x in elems:
            hits &= shifts[mul(a, x)]
            if not hits:
                break
        if hits:
            for b in ffield.mask_elements(hits):
                yield a, b


def stabilizer(field: Field, mask: int) -> Subgroup:
    """Canonical descriptor of the setwise stabilizer of a subset,
    computed by testing every affine map with ``fixing_maps``, which caps
    q."""
    return subgroup_from_pairs(field, fixing_maps(field, mask))


# ---------------------------------------------------------------------------
# orbit-union enumeration


def _union_branches(S: Subgroup, k: int) -> list[tuple[int, list[int], int]]:
    """(base_mask, choosable_orbit_masks, how_many) branches whose unions
    are exactly the size-k orbit unions of S."""
    orbits = S.orbits()
    masks = [ffield.subset_mask(o) for o in orbits]
    h = S.H.size
    branches = []
    if S.d == 1:
        if k % h == 0:
            branches.append((0, masks, k // h))
    else:
        big = S.d * h
        special = next(m for m, o in zip(masks, orbits) if len(o) == h)
        bigs = [m for o, m in zip(orbits, masks) if len(o) == big]
        for base, rem in ((0, k), (special, k - h)):
            if rem >= 0 and rem % big == 0:
                branches.append((base, bigs, rem // big))
    return branches


# kept for perfbench's wrap list (spans.FUNCTIONS) until ROADMAP item 7
def n_orbit_unions(S: Subgroup, k: int) -> int:
    """Number of size-k orbit unions, i.e. |S'|, counted directly."""
    return _n_orbit_unions(S, k)


def _n_orbit_unions(S: Subgroup, k: int) -> int:
    # the same count for the table's own check, not a query of its own
    return sum(math.comb(len(opts), t) for _, opts, t in _union_branches(S, k))


def orbit_union_masks(S: Subgroup, k: int):
    """Deterministic iterator over the size-k orbit unions of S."""
    for base, opts, t in _union_branches(S, k):
        for combo in itertools.combinations(opts, t):
            mask = base
            for m in combo:
                mask |= m
            yield mask


def _check_budget(S: Subgroup, k: int, budget: int) -> None:
    check_subset_size(S.field.q, k)
    candidates = n_orbit_unions(S, k)
    if candidates > budget:
        raise BudgetExceededError(
            f"{candidates} orbit unions exceed the budget of {budget}")


def is_exact_stabilizer(S: Subgroup, mask: int) -> bool:
    """True iff the masked subset is fixed by exactly |S| affine maps.

    Only meaningful when the subset is a union of S-orbits: its
    stabilizer then contains S, so it equals S iff it has |S| maps.  The
    scan stops at the first map past |S|.
    """
    found = 0
    for _ in fixing_maps(S.field, mask):
        found += 1
        if found > S.order:
            return False
    return found == S.order


def exact_orbit_unions(S: Subgroup, k: int):
    """The size-k orbit unions of S whose stabilizer is exactly S, in
    ``orbit_union_masks`` order.  It checks no budget: the caller bounds
    the scan."""
    return (mask for mask in orbit_union_masks(S, k)
            if is_exact_stabilizer(S, mask))


def _orbit_pair_sets(S: Subgroup) -> tuple[int, list[tuple[int, int]],
                                             list[list[int]]]:
    """(D, pairs, pair sets) over all q*(q-1) maps.

    D counts the maps that send every point into its own S-orbit.  Every
    other map has the set of its pairs (orbit(x), orbit(a*x + b)) with
    two distinct orbits, given as indices into ``pairs``; maps with equal
    pair sets share one entry.
    """
    field = S.field
    q = check_map_scan(field.q)
    orbits = S.orbits()
    m = len(orbits)
    orbit_of = [0] * q
    for o, orbit in enumerate(orbits):
        for x in orbit:
            orbit_of[x] = o
    # shifted[b][y] = orbit(y + b)
    shifted = [[orbit_of[field.add(y, b)] for y in range(q)]
               for b in range(q)]
    diagonal = 0
    distinct = set()
    for a in range(1, q):
        row = [field.mul(a, x) for x in range(q)]
        for img in shifted:
            key = frozenset(o * m + t for o, t in
                            zip(orbit_of, map(img.__getitem__, row))
                            if o != t)
            if key:
                distinct.add(key)
            else:
                diagonal += 1
    codes = sorted(set().union(*distinct))
    index = {code: n for n, code in enumerate(codes)}
    return (diagonal, [divmod(code, m) for code in codes],
            [[index[code] for code in sorted(key)] for key in distinct])


def _orbit_columns(width: int) -> list[int]:
    """col[o] over 2**width candidates: bit c is set iff bit o of c is
    set."""
    n = 1 << width
    cols = []
    for o in range(width):
        run = 1 << o
        col, period = ((1 << run) - 1) << run, 2 * run
        while period < n:
            col |= col << period
            period *= 2
        cols.append(col)
    return cols


#: candidates per chunk of the bit-sliced pass, as a power of two
CHUNK_BITS = 16
#: the table pays once a class has more than this many orbit unions per
#: field element; below, scanning them one by one is faster
TABLE_UNIONS_PER_POINT = 4


def bruteforce_counts(S: Subgroup) -> tuple[int, ...]:
    """N(S, k) for k = 0..q from one bit-sliced pass over all 2**m orbit
    unions of S (m = number of S-orbits), cached on S.

    Candidate c is the union of the orbits whose bits are set in c.  The
    candidates of a chunk are the bits of one int, and ``col[o]`` holds
    those that contain orbit o; a chunk spans at most 2**CHUNK_BITS
    candidates, with the top choice bits fixed.  A map with the orbit
    pair (o, o') moves a point of orbit o into orbit o', so it fixes c
    only if o' lies in c whenever o does: the candidates it fixes are the
    AND over its pairs of ``~col[o] | col[o']``, ORed into ``bad``.  The
    D maps without such a pair fix every candidate.  Every map of S is
    one of them, so D >= |S|; if D > |S| no candidate has stabilizer
    exactly S, and if D = |S| a candidate has it iff it is not in
    ``bad``.  The candidates are split by subset size with one pass over
    the orbit columns, and each size must hold ``n_orbit_unions`` of
    them.
    """
    if S._bruteforce_counts is None:
        S._bruteforce_counts = _bruteforce_counts(S)
    return S._bruteforce_counts


def _bruteforce_counts(S: Subgroup) -> tuple[int, ...]:
    q = S.field.q
    diagonal, pairs, pair_sets = _orbit_pair_sets(S)
    if diagonal < S.order:
        raise RuntimeError(f"only {diagonal} maps keep every S-orbit in "
                           f"place, but |S| = {S.order}")
    if diagonal > S.order:
        return (0,) * (q + 1)
    sizes = [len(o) for o in S.orbits()]
    width = min(len(sizes), CHUNK_BITS)
    full = (1 << (1 << width)) - 1
    low = _orbit_columns(width)
    # the size split of the low orbits; the fixed top choice bits of a
    # chunk add a constant size
    by_size = {0: full}
    for col, w in zip(low, sizes):
        split: dict[int, int] = {}
        for s, cand in by_size.items():
            split[s] = split.get(s, 0) | cand & ~col
            split[s + w] = split.get(s + w, 0) | cand & col
        by_size = split
    high = sizes[width:]
    counts = [0] * (q + 1)
    covered = [0] * (q + 1)
    for top in range(1 << len(high)):
        chosen = [top >> t & 1 for t in range(len(high))]
        cols = low + [full if bit else 0 for bit in chosen]
        terms = [(full ^ cols[o]) | cols[t] for o, t in pairs]
        bad = 0
        for indices in pair_sets:
            fixed = full
            for n in indices:
                fixed &= terms[n]
                if not fixed:
                    break
            bad |= fixed
        offset = sum(w for w, bit in zip(high, chosen) if bit)
        for s, cand in by_size.items():
            covered[s + offset] += cand.bit_count()
            counts[s + offset] += (cand & ~bad).bit_count()
    for k in range(q + 1):
        expected = _n_orbit_unions(S, k)
        if covered[k] != expected:
            raise RuntimeError(f"the size split holds {covered[k]} orbit "
                               f"unions of size {k}, not {expected}")
    return tuple(counts)


def count_N_bruteforce(S: Subgroup, k: int,
                       budget: int = DEFAULT_SUBSET_BUDGET) -> int:
    """Count the k-subsets with stabilizer exactly S among the size-k
    unions of S-orbits.

    Raises before either path when there are more than ``budget`` of
    them.  Reads ``bruteforce_counts(S)`` when all 2**m orbit unions fit
    in the budget and number more than TABLE_UNIONS_PER_POINT * q, and
    otherwise scans the size-k ones one by one.
    """
    _check_budget(S, k, budget)
    if TABLE_UNIONS_PER_POINT * S.field.q < 1 << len(S.orbits()) <= budget:
        return bruteforce_counts(S)[k]
    return sum(1 for _ in exact_orbit_unions(S, k))


# ---------------------------------------------------------------------------
# inclusion-exclusion over the supergroup lattice


@lru_cache(maxsize=None)
def lattice_terms(S: Subgroup) -> tuple[tuple[int, int, int], ...]:
    """Signed terms (coefficient, d, |H|) of the inclusion-exclusion for
    N(S, k); k enters only through the fixed-subset counts, so the terms
    are reusable across k.

    The sum runs over all 2**t selections X of the t immediate
    supergroups, with sign (-1)**|X| at join(S, X), folded in one
    supergroup U at a time: f maps subgroups to coefficients, starts as
    {S: 1}, and every (T, c) in f adds -c at join(T, U) -- the selections
    that also take U.  Entries that cancel to zero are dropped after each
    U; more than DEFAULT_CLOSURE_LIMIT nonzero entries raise.  Every join
    goes through ``join_pair`` with one ``JoinTable`` for the call, so each
    span, coset leader and subgroup is built once per distinct input, and
    the table is dropped on return.
    """
    if S.b != 0:
        raise ValueError("lattice evaluation requires b = 0; conjugate first")
    supers = immediate_supergroups(S)
    f: dict[Subgroup, int] = {S: 1}
    table = JoinTable()
    for folded, U in enumerate(supers, 1):
        for T, c in list(f.items()):
            J = join_pair(T, U, table)
            f[J] = f.get(J, 0) - c
        f = {T: c for T, c in f.items() if c}
        if len(f) > DEFAULT_CLOSURE_LIMIT:
            raise BudgetExceededError(
                f"the lattice fold holds {len(f)} subgroups after {folded} "
                f"of {len(supers)} supergroups, over the limit of "
                f"{DEFAULT_CLOSURE_LIMIT}")
    agg: Counter = Counter()
    for T, c in f.items():
        agg[(T.d, T.H.size)] += c
    return tuple((c, d, h) for (d, h), c in sorted(agg.items()) if c)


def count_N_via_lattice(S: Subgroup, k: int) -> int:
    """N(S, k) by inclusion-exclusion over the immediate supergroups."""
    check_subset_size(S.field.q, k)
    return evaluate_terms(S.field.q, k, lattice_terms(S))
