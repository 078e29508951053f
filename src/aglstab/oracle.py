"""Independent verification engines for the closed-form counts.

Three routes to the same numbers.  None reads the closed form's terms
in :mod:`aglstab.counting`: the lattice route derives its own from a
census of the overgroups, and the two scans decide maps.  All they take
from ``counting`` is the k rule, ``check_subset_size``, and ``s_qk``,
which counts the orbit unions of a group shape, with its column form
``s_qk_column``: the lattice route evaluates its terms with the columns
(``lattice_counts``), and the brute force reads ``s_qk`` only for its
budget and its size-split check, never for a count.  A map
is the int pair (a, b) of x -> a*x + b, and a subset is an int mask over
the element codes, as :mod:`aglstab.ffield` defines it;
``Subgroup.orbits`` gives its orbits as such masks, which every route
reads as they are.

* ``stabilizer``: test all q*(q-1) affine maps against a subset mask
  (``fixing_maps``) and return the subset's exact stabilizer.  The scan
  is bit-parallel over translations: once per subset B,
  ``ffield.translate_masks`` builds the q masks ``shifts[z] = {b : z + b
  in B}``, and for each multiplier a the AND of ``shifts[a*x]`` over x in
  B holds exactly the b with a*B + b = B, so every map is still decided.
  The scan yields that AND, one mask per multiplier, and runs over the
  smaller of B and its complement, which have the same fixing maps.
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
  contains S).  Either way every map is decided.  The budget checks
  ``n_orbit_unions``, the ``s_qk`` of S's shape, before either path, so
  a refused count walks no orbits; ``orbit_union_masks`` alone builds
  orbit lists, once per scanned count.
* ``count_N_via_lattice``: P. Hall's Moebius inversion over the
  overgroups T of S.  ``overgroup_census`` lists them as nodes (d, H),
  H a space over F_{p**o_d(p)} above S's, from the masks and generators
  that ``ffield.superspaces`` yields; containment is read off the nodes
  (d_S | d_T, and H_T holds H_U's generators), so no subgroup is joined.
  Before any space is enumerated, the Galois number predicts how many
  there are, and more than DEFAULT_CENSUS_LIMIT raise, as do more than
  DEFAULT_CENSUS_WORK spaces times q: each space is built as a q-bit
  mask, and the generators' bitsets test one bit of each.
  ``lattice_terms`` then solves the Moebius coefficients up the nodes,
  smaller spaces first, pushing each into the spaces above it, and sums
  them by (d, |H|); ``lattice_counts`` turns the terms into N(S, k) for
  every k at once, on the first count asked of S.

Budgets are explicit and overruns raise; nothing is ever truncated
silently.
"""

from __future__ import annotations

import itertools
from collections import Counter

from . import ffield
from .agl import Subgroup, subgroup_from_masks
from .counting import check_subset_size, s_qk, s_qk_column
from .ffield import Field
from .numtheory import BudgetExceededError, divisor_orders

DEFAULT_STABILIZER_LIMIT = 4096
DEFAULT_SUBSET_BUDGET = 10_000_000
DEFAULT_CENSUS_LIMIT = 5_000
#: predicted spaces times q: q = 4096 needs at most 2825 * 4096, about
#: 1.2e7 (0.38 s), and 2^13 needs 2.3e7 (0.7 s) on a 2-vCPU host
DEFAULT_CENSUS_WORK = 20_000_000


def check_map_scan(q: int) -> int:
    """The cap of every scan over all q*(q-1) maps; returns q."""
    if q > DEFAULT_STABILIZER_LIMIT:
        raise BudgetExceededError(
            f"map scan needs q <= {DEFAULT_STABILIZER_LIMIT}, got q = {q}")
    return q


def fixing_maps(field: Field, mask: int):
    """(a, hits) for each multiplier a != 0, in increasing order, whose
    mask ``hits`` of the b with a*B + b = B is nonzero.

    All q*(q-1) maps are tested, the q translations of one multiplier at
    once: bit b of AND over x in B of shifts[a*x] is set iff a*x + b lies
    in B for every x in B.  A bijection fixes B iff it fixes the
    complement, the side scanned where |B| > q/2.  q is capped by
    DEFAULT_STABILIZER_LIMIT, checked before the first map is tested.
    """
    q = check_map_scan(field.q)
    full = (1 << q) - 1
    if 2 * mask.bit_count() > q:
        mask ^= full
    elems = ffield.mask_elements(mask)
    shifts = ffield.translate_masks(field, mask)
    mul = field.mul
    for a in range(1, q):
        hits = full
        for x in elems:
            hits &= shifts[mul(a, x)]
            if not hits:
                break
        if hits:
            yield a, hits


def stabilizer(field: Field, mask: int) -> Subgroup:
    """Canonical descriptor of the setwise stabilizer of a subset,
    computed by testing every affine map with ``fixing_maps``, which caps
    q."""
    return subgroup_from_masks(field, dict(fixing_maps(field, mask)))


# ---------------------------------------------------------------------------
# orbit-union enumeration


def n_orbit_unions(S: Subgroup, k: int) -> int:
    """Number of size-k orbit unions, i.e. |S'|: the fixed-subset count
    ``s_qk`` of S's shape, read without walking its orbits."""
    return s_qk(S.field.q, k, S.d, S.H.size)


def orbit_union_masks(S: Subgroup, k: int):
    """The size-k orbit unions of S: t orbits of size |S| over a base,
    first the empty one and then, for d > 1, the one orbit of size |H|,
    where k minus the base's size is t*|S| with t >= 0; each base's
    combinations come in ``Subgroup.orbits()`` order.  The orbits are
    disjoint, so a sum of them is their union."""
    orbits = S.orbits()
    bigs = [m for m in orbits if m.bit_count() == S.order]
    small = sum(orbits) - sum(bigs)  # the |H| orbit if d > 1, else 0
    for base in (0, small)[:1 + (S.d > 1)]:
        t, rem = divmod(k - base.bit_count(), S.order)
        if t >= 0 and not rem:
            for combo in itertools.combinations(bigs, t):
                yield sum(combo, base)


def is_exact_stabilizer(S: Subgroup, mask: int) -> bool:
    """True iff the masked subset is fixed by exactly |S| affine maps.

    Only meaningful when the subset is a union of S-orbits: its
    stabilizer then contains S, so it equals S iff it has |S| maps.  The
    scan stops at the first multiplier that takes the count past |S|.
    """
    found = 0
    for _, hits in fixing_maps(S.field, mask):
        found += hits.bit_count()
        if found > S.order:
            return False
    return found == S.order


def exact_orbit_unions(S: Subgroup, k: int, budget: int | None = None):
    """The size-k orbit unions of S whose stabilizer is exactly S, in
    ``orbit_union_masks`` order.  It scans at most ``budget`` unions and
    raises if any is left, in the words of ``design``'s witness scan."""
    unions = orbit_union_masks(S, k)
    yield from (mask for mask in itertools.islice(unions, budget)
                if is_exact_stabilizer(S, mask))
    if budget is not None and next(unions, None) is not None:
        raise BudgetExceededError(f"no witness among the first {budget} "
                                  f"orbit unions, the budget of {budget}")


def _orbit_pair_sets(S: Subgroup) -> tuple[int, list[tuple[int, ...]]]:
    """(D, pair sets) over all q*(q-1) maps.

    D counts the maps that send every point into its own S-orbit.  Every
    other map has the set of its pairs (orbit(x), orbit(a*x + b)) with
    two distinct orbits o != t, each coded o*m + t over the m orbits and
    given as a sorted tuple; maps with equal pair sets share one tuple.
    """
    field = S.field
    q = check_map_scan(field.q)
    orbits = S.orbits()
    m = len(orbits)
    orbit_of = [0] * q
    for o, orbit in enumerate(orbits):
        for x in ffield.mask_elements(orbit):
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
    return diagonal, [tuple(sorted(key)) for key in distinct]


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
    the orbit columns, and each size must hold ``s_qk`` of them: the
    fixed-subset count of S's shape, which reads neither the orbits nor
    the pairs.
    """
    if S._bruteforce_counts is not None:
        return S._bruteforce_counts
    q = S.field.q
    diagonal, pair_sets = _orbit_pair_sets(S)
    if diagonal < S.order:
        raise RuntimeError(f"only {diagonal} maps keep every S-orbit in "
                           f"place, but |S| = {S.order}")
    if diagonal > S.order:
        S._bruteforce_counts = (0,) * (q + 1)
        return S._bruteforce_counts
    sizes = [o.bit_count() for o in S.orbits()]
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
    m, high = len(sizes), sizes[width:]
    in_use = set().union(*pair_sets)
    counts = [0] * (q + 1)
    covered = [0] * (q + 1)
    for chosen in itertools.product((0, 1), repeat=len(high)):
        cols = low + [full if bit else 0 for bit in chosen]
        terms = {c: (full ^ cols[c // m]) | cols[c % m] for c in in_use}
        bad = 0
        for codes in pair_sets:
            fixed = full
            for c in codes:
                fixed &= terms[c]
                if not fixed:
                    break
            bad |= fixed
        offset = sum(w for w, bit in zip(high, chosen) if bit)
        for s, cand in by_size.items():
            covered[s + offset] += cand.bit_count()
            counts[s + offset] += (cand & ~bad).bit_count()
    for k in range(q + 1):
        expected = s_qk(q, k, S.d, S.H.size)
        if covered[k] != expected:
            raise RuntimeError(f"the size split holds {covered[k]} orbit "
                               f"unions of size {k}, not {expected}")
    S._bruteforce_counts = tuple(counts)
    return S._bruteforce_counts


def check_union_budget(unions: int, budget: int) -> None:
    """The budget of a brute-force count: raises when its ``unions``
    size-k orbit unions number more than ``budget``."""
    if unions > budget:
        raise BudgetExceededError(
            f"{unions} orbit unions exceed the budget of {budget}")


def count_N_bruteforce(S: Subgroup, k: int,
                       budget: int = DEFAULT_SUBSET_BUDGET) -> int:
    """Count the k-subsets with stabilizer exactly S among the size-k
    unions of S-orbits.

    Raises before either path, and before S's orbits are walked, when
    ``n_orbit_unions`` counts more than ``budget`` of them.  Reads
    ``bruteforce_counts(S)`` when all 2**m orbit unions fit in the budget
    and number more than TABLE_UNIONS_PER_POINT * q, and otherwise scans
    the size-k ones one by one.
    """
    check_subset_size(S.field.q, k)
    check_union_budget(n_orbit_unions(S, k), budget)
    if TABLE_UNIONS_PER_POINT * S.field.q < 1 << len(S.orbits()) <= budget:
        return bruteforce_counts(S)[k]
    return sum(1 for _ in exact_orbit_unions(S, k))


# ---------------------------------------------------------------------------
# inclusion-exclusion over the overgroup lattice


def galois_number(p: int, n: int) -> int:
    """G_p(n), the number of subspaces of F_p^n, by Goldman and Rota's
    recurrence G(n + 1) = 2 G(n) + (p**n - 1) G(n - 1), G(0) = 1."""
    before, g = 0, 1
    for m in range(n):
        before, g = g, 2 * g + (p ** m - 1) * before
    return g


def overgroup_census(S: Subgroup
                     ) -> list[tuple[int, int, tuple[int, ...], tuple[int, ...]]]:
    """The overgroups T = S(d, c, H) of S = S(d_S, 0, H_S) as nodes
    (d, H): d_S | d | q - 1, and H contains H_S and is closed under
    F_{p**o_d(p)}.  c is no part of a node: for d_S > 1 the fixed point 0
    of S lies in c + H, so c = 0, and for d_S = 1 a node with d > 1
    stands for q/|H| groups, one per coset c + H.  One entry (mask of H,
    |H|, the d of its nodes in ascending order, the F_p-generators of H
    with H_S's basis first) per space H.

    o_{d_S}(p) divides every o_d(p), so each H is a space over F_r, r =
    p**o_{d_S}(p), and ``ffield.superspaces`` lists those above H_S, H_S
    first.  Their number, the Galois number G_r(n) for n = (alpha - dim
    H_S) / o_{d_S}(p), is checked against DEFAULT_CENSUS_LIMIT, and that
    number times q against DEFAULT_CENSUS_WORK, before the first is
    enumerated, and against the count after the last.  H is closed
    under F_{p**m} iff g*v lies in H for the primitive element g of
    F_{p**m} and every generator v; for m | o_{d_S}(p), F_p included,
    that holds by construction and is not tested.
    """
    if S.b != 0:
        raise ValueError("the overgroup census requires b = 0; conjugate first")
    field = S.field
    predicted = galois_number(field.p ** S.odp,
                              (field.alpha - S.H.dim) // S.odp)
    if predicted > DEFAULT_CENSUS_LIMIT:
        raise BudgetExceededError(
            f"the overgroup census needs {predicted} subspaces, over the "
            f"limit of {DEFAULT_CENSUS_LIMIT}")
    if predicted * field.q > DEFAULT_CENSUS_WORK:
        raise BudgetExceededError(
            f"the overgroup census needs {predicted} subspaces of q = "
            f"{field.q} elements, {predicted * field.q} in all, over the "
            f"limit of {DEFAULT_CENSUS_WORK}")
    degrees = [(d, odp) for d, odp in divisor_orders(field.p, field.alpha)
               if d % S.d == 0]
    primitive = {odp: field.subfield(odp)[1] for _, odp in degrees
                 if S.odp % odp}
    mul = field.mul
    census = []
    for mask, gens in ffield.superspaces(S.H, S.odp):
        unclosed = {odp for odp, g in primitive.items()
                    if not all(mask >> mul(g, v) & 1 for v in gens)}
        census.append((mask, mask.bit_count(),
                       tuple(d for d, odp in degrees if odp not in unclosed),
                       gens))
    if len(census) != predicted:
        raise RuntimeError(f"the census found {len(census)} subspaces, "
                           f"where the Galois number predicts {predicted}")
    return census


def lattice_terms(S: Subgroup) -> tuple[tuple[int, int, int], ...]:
    """Signed terms (coefficient, d, |H|) of N(S, k) = sum over the
    overgroups T of S of mu(S, T) * s_qk(T, k), P. Hall's Moebius
    inversion of s_qk(S, k) = sum over T of N(T, k); k enters only
    through the fixed-subset counts, so the terms are reusable across k.

    Translations fix a pure translation group S, so mu does not depend
    on c, and a node's coefficient c(T) is mu times its g(T) groups:
    q/|H| when d_S = 1 < d, else 1.  Summed over the groups of T, the sum
    of mu over [S, T] is [T = S], and it reads c(T) = [T = S] - sum over
    the nodes U below T of c(U) * (g(T) if d_U = 1 else 1): the one group
    of a node with d_U = 1 lies in every group of T, and each group of a
    node with d_U > 1 in one.  U lies below T iff d_U | d_T and H_U lies
    in H_T.

    The sum is pushed up, not pulled: each space keeps the sums of the
    final c(U) of the spaces below it, one per d_U.  The spaces of
    ``overgroup_census`` are taken in order of size and the d of each in
    ascending order, so a space is final before any space above it is
    reached, and each node of a space adds its c into the space's own
    sums before its next d reads them.  A final space U then adds its
    c(U) into the sums of the later spaces that contain it: those that
    hold each of its F_p-generators outside H_S's basis, the AND of one
    bitset over the census per generator.  Nodes with c = 0 are skipped.
    """
    census = overgroup_census(S)
    census.sort(key=lambda space: space[1])
    q, base = S.field.q, S.H.dim
    masks = [space[0] for space in census]
    # x -> the spaces that hold x, one bit per census index
    holders: dict[int, int] = {}
    for *_, gens in census:
        for x in gens[base:]:
            if x not in holders:
                holders[x] = sum(1 << t for t, mask in enumerate(masks)
                                 if mask >> x & 1)
    sums: list[dict[int, int]] = [{} for _ in census]
    everything = (1 << len(census)) - 1
    agg: Counter = Counter()
    for index, (_, size, degrees, gens) in enumerate(census):
        below, coeffs = sums[index], {}
        for d in degrees:
            g = q // size if S.d == 1 < d else 1
            c = ((d, size) == (S.d, S.H.size)) - sum(
                cd * (g if dU == 1 else 1) for dU, cd in below.items()
                if not d % dU)
            if c:
                coeffs[d] = c
                below[d] = below.get(d, 0) + c
                agg[(d, size)] += c
        if not coeffs:
            continue
        above = everything & (-1 << index + 1)      # the later spaces
        for x in gens[base:]:
            above &= holders[x]
        for t in ffield.mask_elements(above):
            into = sums[t]
            for dU, cd in coeffs.items():
                into[dU] = into.get(dU, 0) + cd
    return tuple((c, d, h) for (d, h), c in sorted(agg.items()) if c)


def lattice_counts(S: Subgroup) -> tuple[int, ...]:
    """N(S, k) for k = 0..q from one pass over ``lattice_terms(S)``,
    cached on S: each term (c, d, |H|) adds c times its ``s_qk_column``.
    The row lives and dies with S; an equal subgroup built anew builds
    its own."""
    if S._lattice_counts is None:
        q = S.field.q
        row = [0] * (q + 1)
        for c, d, h in lattice_terms(S):
            for k, s in s_qk_column(q, d, h, q).items():
                row[k] += c * s
        S._lattice_counts = tuple(row)
    return S._lattice_counts


def count_N_via_lattice(S: Subgroup, k: int) -> int:
    """N(S, k) by Moebius inversion over the overgroups of S, read off
    the row ``lattice_counts(S)``."""
    check_subset_size(S.field.q, k)
    return lattice_counts(S)[k]
