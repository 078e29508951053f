"""Canonical subgroup descriptors, orbits, supergroups, joins.

The heavyweight checks enumerate the full subgroup lattice of small
fields by an independent route (closure of map sets under composition,
no descriptors involved) and compare everything against it.  The map
objects they compose are the reference ``AffineMap`` of the tests.
"""

import hashlib
import itertools
import math
import time
from collections import Counter
from pathlib import Path

import pytest
from sympy import divisors, primerange

import aglstab
from aglstab.agl import (JoinTable, Subgroup, class_representative,
                         immediate_supergroups, join, join_pair)
from aglstab.counting import ClassParams, class_shapes, s_qk
from aglstab.ffield import Field, Subspace, mask_elements, span
from aglstab.numtheory import check_shape, mult_order
from reference import (AffineMap, all_subgroups, canonicalize, full_group,
                       full_subspace, mulclose, prime_powers,
                       subgroup_elements, trivial_subgroup)

FIELDS = {}


def field(p, alpha):
    if (p, alpha) not in FIELDS:
        FIELDS[(p, alpha)] = Field(p, alpha)
    return FIELDS[(p, alpha)]


def pairs_of(S):
    return frozenset((m.a, m.b) for m in subgroup_elements(S))


def lattice_by_closure(F):
    """Every subgroup of the affine maps on F as a frozenset of (a, b),
    built with nothing but composition: close each subset of cyclic
    generators until no new subgroup appears."""
    all_maps = [AffineMap(F, a, b) for a in range(1, F.q) for b in range(F.q)]
    cyclics = {frozenset((m.a, m.b) for m in mulclose([g])) for g in all_maps}
    groups = set(cyclics)
    frontier = set(cyclics)
    while frontier:
        new = set()
        for g1 in frontier:
            for g2 in cyclics:
                if g2 <= g1:
                    continue
                maps = [AffineMap(F, a, b) for a, b in g1 | g2]
                joined = frozenset((m.a, m.b) for m in mulclose(maps))
                if joined not in groups:
                    groups.add(joined)
                    new.add(joined)
        frontier = new
    return groups


# ---------------------------------------------------------------------------
# affine maps


def test_compose_example_q5():
    F = field(5, 1)
    h = AffineMap(F, 2, 1) * AffineMap(F, 3, 2)
    assert h == AffineMap.identity(F)


@pytest.mark.parametrize("p,alpha", [(5, 1), (7, 1), (2, 3)])
def test_map_group_laws(p, alpha):
    F = field(p, alpha)
    maps = [AffineMap(F, a, b) for a in range(1, F.q) for b in range(F.q)]
    ident = AffineMap.identity(F)
    for f in maps:
        assert f * ident == f == ident * f
    for f, g in itertools.islice(itertools.product(maps, maps), 500):
        for x in range(F.q):
            assert (f * g)(x) == f(g(x))


def test_map_rejects_zero_multiplier():
    with pytest.raises(ValueError):
        AffineMap(field(5, 1), 0, 1)


# ---------------------------------------------------------------------------
# descriptors


def test_subgroup_element_counts():
    F = field(5, 1)
    S = Subgroup(F, 2, 0, Subspace(F))
    assert pairs_of(S) == {(1, 0), (4, 0)}
    assert len(pairs_of(trivial_subgroup(F))) == 1
    assert len(pairs_of(full_group(F))) == 20


@pytest.mark.parametrize("p,alpha", [(7, 1), (2, 3), (3, 2)])
def test_subgroup_order_formula(p, alpha):
    F = field(p, alpha)
    for S in all_subgroups(F):
        assert len(pairs_of(S)) == S.order == S.d * S.H.size


def test_subgroup_rejects_invalid_descriptors():
    F = field(5, 1)
    with pytest.raises(ValueError) as bad_d:
        Subgroup(F, 3, 0, Subspace(F))            # 3 does not divide 4
    with pytest.raises(ValueError) as bad_shape:
        check_shape(5, 1, 3, 1, 0)
    assert str(bad_d.value) == str(bad_shape.value)
    F16 = field(2, 4)
    line = span(F16, (2,), 1)         # not an F_4-subspace
    with pytest.raises(ValueError):
        Subgroup(F16, 3, 0, line)                 # o_3(2) = 2 > stab degree


def test_divisor_rule_has_one_copy():
    sources = Path(aglstab.__file__).parent.glob("*.py")
    assert sum(path.read_text().count("must divide q - 1")
               for path in sources) == 1


#: every prime power q <= 32
SMALL_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2),
                (11, 1), (13, 1), (2, 4), (17, 1), (19, 1), (23, 1), (5, 2),
                (3, 3), (29, 1), (31, 1), (2, 5)]


@pytest.mark.parametrize("p,alpha", SMALL_FIELDS)
def test_subgroup_keeps_odp_and_fixed_point(p, alpha):
    F = field(p, alpha)
    for S in all_subgroups(F):
        assert S.odp == mult_order(p, S.d), S
        c = S.fixed_point
        if S.d == 1:
            assert c is None, S
        else:
            assert F.add(F.mul(S.a, c), S.b) == c, S
        assert S.one_minus_a == F.sub(1, S.a), S


def test_odp_of_an_lcm_is_the_lcm_of_the_odps():
    # join_pair takes the field of the joined multipliers from this rule
    pairs = 0
    for p in primerange(2, 1025):
        q = p
        while q <= 1024:
            divs = divisors(q - 1)
            for d1, d2 in itertools.product(divs, repeat=2):
                assert mult_order(p, math.lcm(d1, d2)) == math.lcm(
                    mult_order(p, d1), mult_order(p, d2)), (q, d1, d2)
            pairs += len(divs) ** 2
            q *= p
    assert pairs == 31202


def test_canonicalize_examples():
    F = field(7, 1)
    assert canonicalize([AffineMap.identity(F)]) == trivial_subgroup(F)
    S = canonicalize([AffineMap(F, 2, 1)])
    assert (S.d, S.b, S.H.size) == (3, 1, 1)
    all_maps = [AffineMap(F, a, b) for a in range(1, 7) for b in range(7)]
    assert canonicalize(all_maps) == full_group(F)


@pytest.mark.parametrize("p,alpha", [(2, 1), (3, 1), (2, 2), (5, 1),
                                     (7, 1), (2, 3), (3, 2)])
def test_every_subgroup_has_a_canonical_descriptor(p, alpha):
    """Exhaustiveness and uniqueness of the descriptor form at small q."""
    F = field(p, alpha)
    independent = lattice_by_closure(F)
    described = {pairs_of(S): S for S in all_subgroups(F)}
    assert set(described) == independent
    # uniqueness: distinct descriptors give distinct element sets
    assert len(described) == len(all_subgroups(F))
    # round trip through canonicalize
    for pairs, S in described.items():
        maps = [AffineMap(F, a, b) for a, b in pairs]
        assert canonicalize(maps) == S


# ---------------------------------------------------------------------------
# orbits


def test_orbits_translation_group_gives_cosets():
    F = field(2, 3)
    H = span(F, (3,), 1)
    orbits = Subgroup(F, 1, 0, H).orbits()
    assert all(o.bit_count() == 2 for o in orbits)
    assert len(orbits) == 4
    for o in orbits:
        x, y = mask_elements(o)
        assert H.contains(F.sub(x, y))


def test_orbits_example_q5():
    F = field(5, 1)
    orbits = Subgroup(F, 2, 0, Subspace(F)).orbits()
    assert [mask_elements(o) for o in orbits] == [(0,), (1, 4), (2, 3)]


def test_broken_orbit_walk_raises():
    F = field(7, 1)
    S = Subgroup(F, 3, 0, Subspace(F))
    S.a = F.neg(1)                              # order 2, not 3
    with pytest.raises(RuntimeError, match="an orbit of size 2 in a group "
                                           "of order 3"):
        S.orbits()
    S = Subgroup(F, 3, 0, Subspace(F))
    S.a = 1                                     # every point is fixed
    with pytest.raises(RuntimeError, match="do not cover F_7 with a fixed "
                                           "coset of H"):
        S.orbits()


@pytest.mark.parametrize("p,alpha", [(5, 1), (7, 1), (2, 3), (3, 2), (2, 4),
                                     (5, 2)])
def test_orbit_partition_invariants(p, alpha):
    F = field(p, alpha)
    for S in all_subgroups(F):
        orbits = S.orbits()
        assert all(isinstance(o, int) for o in orbits)
        union = 0
        for o in orbits:
            assert o and not union & o
            union |= o
        assert union == (1 << F.q) - 1
        least = [mask_elements(o)[0] for o in orbits]
        assert least == sorted(least)
        if S.d > 1:
            sizes = Counter(o.bit_count() for o in orbits)
            assert sizes[S.H.size] == 1 + (S.order == S.H.size)
            big = (F.q - S.H.size) // S.order
            if S.order != S.H.size:
                assert sizes.get(S.order, 0) == big
        for o in orbits:
            oset = set(mask_elements(o))
            for m in subgroup_elements(S):
                assert {m(x) for x in oset} == oset


# ---------------------------------------------------------------------------
# fixed-subset counts


@pytest.mark.parametrize("p,alpha", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1),
                                     (2, 3), (3, 2), (11, 1), (13, 1)])
def test_fixed_subset_count_matches_direct_enumeration(p, alpha):
    F = field(p, alpha)
    for S in all_subgroups(F):
        sizes = [o.bit_count() for o in S.orbits()]
        hist = {}
        for picks in itertools.product((0, 1), repeat=len(sizes)):
            total = sum(s for s, took in zip(sizes, picks) if took)
            hist[total] = hist.get(total, 0) + 1
        for k in range(F.q + 1):
            assert s_qk(F.q, k, S.d, S.H.size) == hist.get(k, 0), (S, k)


def test_fixed_subset_count_examples():
    F8 = field(2, 3)
    H = span(F8, (2,), 1)
    assert s_qk(8, 2, 1, H.size) == 4
    assert s_qk(7, 2, 3, 1) == 0                    # 2 not 0 or 1 mod 3
    for S in all_subgroups(field(7, 1)):
        assert s_qk(7, 0, S.d, S.H.size) == 1


# ---------------------------------------------------------------------------
# supergroups and joins


def test_immediate_supergroups_example_q5():
    F = field(5, 1)
    S = Subgroup(F, 2, 0, Subspace(F))
    sups = immediate_supergroups(S)
    assert len(sups) == 2
    assert {(T.d, T.H.size) for T in sups} == {(4, 1), (2, 5)}
    assert immediate_supergroups(full_group(F)) == []


def test_immediate_supergroups_require_b_zero():
    F = field(7, 1)
    with pytest.raises(ValueError):
        immediate_supergroups(Subgroup(F, 3, 1, Subspace(F)))


@pytest.mark.parametrize("p,alpha", [(5, 1), (7, 1), (2, 3), (3, 2)])
def test_immediate_supergroups_are_minimal(p, alpha):
    F = field(p, alpha)
    every = all_subgroups(F)
    for S in every:
        if S.b != 0:
            continue
        sups = immediate_supergroups(S)
        sup_sets = {pairs_of(T) for T in sups}
        s_pairs = pairs_of(S)
        # independently computed minimal overgroups
        overs = [pairs_of(T) for T in every
                 if s_pairs < pairs_of(T)]
        minimal = {o for o in overs
                   if not any(o2 < o for o2 in overs)}
        assert sup_sets == minimal, S


def test_immediate_supergroups_build_one_span_per_line(monkeypatch):
    # a coset leader whose coset lies in a line already found is skipped,
    # so each line atom costs one Subspace, not one per nonzero leader
    built = [0]
    plain_init = Subspace.__init__

    def counted_init(self, *args):
        built[0] += 1
        plain_init(self, *args)

    monkeypatch.setattr(Subspace, "__init__", counted_init)
    for p, alpha in prime_powers(2, 64):
        F = field(p, alpha)
        for d, i, j in class_shapes(p, alpha):
            S = class_representative(F, d, i, j)
            before = built[0]
            lines = sum(T.H != S.H for T in immediate_supergroups(S))
            assert built[0] - before == lines, (F, d, i, j)


def test_join_examples():
    F = field(5, 1)
    S = Subgroup(F, 2, 0, Subspace(F))
    assert join(S, []) == S
    sups = immediate_supergroups(S)
    assert join(S, sups) == full_group(F)


def test_join_rejects_non_supergroups():
    F = field(5, 1)
    S = Subgroup(F, 2, 0, Subspace(F))
    with pytest.raises(ValueError):
        join(S, [trivial_subgroup(F)])
    # S contains itself, but it is no proper supergroup
    with pytest.raises(ValueError, match="is not a proper supergroup"):
        join(S, [S])


@pytest.mark.parametrize("p,alpha", [(2, 2), (5, 1), (7, 1), (2, 3), (3, 2)])
def test_join_matches_generated_subgroup(p, alpha):
    """Joins of supergroup selections agree with brute-force generation."""
    F = field(p, alpha)
    for S in all_subgroups(F):
        if S.b != 0:
            continue
        sups = immediate_supergroups(S)
        if len(sups) <= 6:
            selections = [list(sel) for r in range(len(sups) + 1)
                          for sel in itertools.combinations(sups, r)]
        else:
            selections = [[T] for T in sups]
            selections += [list(sel) for sel in
                           itertools.combinations(sups, 2)]
        for sel in selections:
            expected = canonicalize(
                [m for T in [S] + sel for m in subgroup_elements(T)])
            assert join(S, sel) == expected, (S, sel)


#: (pairs whose T1.H is not a space over F_{p^lcm(odp)}, all pairs)
UNCLOSED_PAIRS = {(5, 1): (0, 196), (7, 1): (0, 676), (2, 3): (126, 625),
                  (3, 2): (320, 2304)}


@pytest.mark.parametrize("p,alpha", [(5, 1), (7, 1), (2, 3), (3, 2)])
def test_join_pair_matches_generated_subgroup(p, alpha):
    # a pair whose T1.H is not a space over the join's subfield spans it
    # with the leaders too; counting those pairs keeps them checked
    F = field(p, alpha)
    groups = all_subgroups(F)
    opened = 0
    for T1, T2 in itertools.product(groups, repeat=2):
        expected = canonicalize(subgroup_elements(T1) + subgroup_elements(T2))
        assert join_pair(T1, T2, JoinTable()) == expected, (T1, T2)
        opened += bool(T1.H.stabilizing_degree() % math.lcm(T1.odp, T2.odp))
    assert (opened, len(groups) ** 2) == UNCLOSED_PAIRS[p, alpha]


@pytest.mark.parametrize("p,alpha", [(7, 1), (2, 3), (3, 2), (2, 4), (5, 2)])
def test_join_pair_with_a_shared_table_equals_a_fresh_join(p, alpha):
    # one table across every pair, as in a lattice fold: each join it
    # answers is the one built in a fresh table, the join of a swapped
    # pair is the same object, and every entry is of its own kind (a span,
    # a coset leader, a subgroup)
    F = field(p, alpha)
    groups = all_subgroups(F)
    table = JoinTable()
    for T1, T2 in itertools.product(groups, repeat=2):
        J = join_pair(T1, T2, table)
        assert J == join_pair(T1, T2, JoinTable()), (T1, T2)
        assert J is join_pair(T2, T1, table), (T1, T2)
    assert all(isinstance(H, Subspace) for H in table.spans.values())
    assert all(type(x) is int for x in table.leaders.values())
    assert all(isinstance(J, Subgroup) for J in table.subgroups.values())
    assert {(J.d, J.b, J.H.basis) for J in table.subgroups.values()} == set(
        table.subgroups)


def test_join_point_check_raises(monkeypatch):
    # a wrong coset leader in the table, or no coset reduction at all,
    # makes the two fixed points give two different b; the check is a
    # raise, so python -O keeps it
    F = field(7, 1)
    S = trivial_subgroup(F)
    halves = [T for T in immediate_supergroups(S) if T.d == 2]
    T1, T2 = Subgroup(F, 2, 0, S.H), Subgroup(F, 3, 1, S.H)
    assert join(S, halves[:2]).H.size == 7
    J = join_pair(T1, T2, JoinTable())
    assert (J.d, J.b, J.H.size) == (6, 0, 7)
    table = JoinTable()
    # T1's fixed point is 0, so its candidate is the leader of (1 - a)*0
    table.leaders[(J.H.basis, 0)] = 1
    message = r"^join must not depend on the chosen point, got b in \[0, 1\]$"
    with pytest.raises(RuntimeError, match=message):
        join_pair(T1, T2, table)
    monkeypatch.setattr(Subspace, "reduce", lambda self, x: x)
    with pytest.raises(RuntimeError, match="chosen point"):
        join(S, halves[:2])
    with pytest.raises(RuntimeError, match="chosen point"):
        join_pair(T1, T2, JoinTable())


def test_join_handles_multi_prime_selections():
    # selections mixing distinct primes and distinct cosets at q = 13
    F = field(13, 1)
    S = trivial_subgroup(F)
    sups = immediate_supergroups(S)
    by_d = {}
    for T in sups:
        by_d.setdefault(T.d, []).append(T)
    picks = [by_d[2][3], by_d[3][5]]
    expected = canonicalize([m for T in [S] + picks for m in subgroup_elements(T)])
    assert join(S, picks) == expected
    picks = [by_d[2][0], by_d[2][4], by_d[3][1]]
    expected = canonicalize([m for T in [S] + picks for m in subgroup_elements(T)])
    assert join(S, picks) == expected


# ---------------------------------------------------------------------------
# containment and class representatives


@pytest.mark.parametrize("p,alpha", [(5, 1), (7, 1), (2, 3), (3, 2)])
def test_contains_matches_element_sets(p, alpha):
    # containment is decided by the join: T2 <= T1 iff <T1, T2> = T1
    F = field(p, alpha)
    groups = all_subgroups(F)
    for T1, T2 in itertools.product(groups, repeat=2):
        assert ((join_pair(T1, T2, JoinTable()) == T1)
                == (pairs_of(T2) <= pairs_of(T1))), (T1, T2)


@pytest.mark.parametrize("p,alpha", [(2, 2), (7, 1), (2, 3), (3, 2), (2, 4),
                                     (5, 2), (3, 3), (2, 6)])
def test_class_representative_round_trip(p, alpha):
    F = field(p, alpha)
    for d, i, j in class_shapes(p, alpha):
        S = class_representative(F, d, i, j)
        cp = ClassParams(p, alpha, 0, d, i, j)
        assert S.b == 0 and S.d == d
        assert S.H.size == cp.h_size
        assert S.H.stabilizing_degree() == cp.odp * i
        assert S.shape() == (d, i, j)


def test_class_representative_at_i_top_is_zero_space_or_whole_field():
    # i = alpha/o_d(p): the span search finds the zero space for j = 0
    # and the span of 1 over F_q, the whole field, for j = 1
    checked = 0
    for p in primerange(2, 65):
        for alpha in range(1, 7):
            if p ** alpha > 64:
                break
            F = field(p, alpha)
            for d, i, j in class_shapes(p, alpha):
                if i * mult_order(p, d) != alpha:
                    continue
                H = Subspace(F) if j == 0 else full_subspace(F)
                assert (class_representative(F, d, i, j)
                        == Subgroup(F, d, 0, H)), (p, alpha, d, j)
                checked += 1
    assert checked == 2 * sum(len(divisors(p ** alpha - 1))
                              for p in primerange(2, 65)
                              for alpha in range(1, 7) if p ** alpha <= 64)


#: SHA-256 of repr(((d, i, j, H.basis) for every class shape)), recorded
#: while subspace rows were still coefficient lists
CLASS_REPRESENTATIVE_SHA256 = {
    (5, 2): "d63e023029e27755a3ff784b904f81a0b2ce82b4bdbf8db6923fa9dc7c11081a",
    (3, 3): "87b2ca99a95014381421bdc0ad5b4465e2986f5a77e6b64d01f01da5e929e3ea",
    (2, 5): "97b4ae86461aff3097ec4b167ad7150929a62ae9e0a21b377da6e325846d5ff5",
    (7, 2): "22d3330c3e11d6459f53c22b0dbff6207fdca125f2f7fb42cf35c7079ab274b7",
    (2, 6): "89c1c1021dff8b90775fc409fee7936552f1eb3d8abedab7d6fe24c0e7f6117d",
    (3, 4): "af00911442a8b5d67672a7726236b9f1d9e3a45b09c6e9e266ca84513a699eba",
}


@pytest.mark.parametrize("p,alpha", list(CLASS_REPRESENTATIVE_SHA256))
def test_class_representative_bases_golden_digest(p, alpha):
    F = field(p, alpha)
    reps = tuple((d, i, j, class_representative(F, d, i, j).H.basis)
                 for d, i, j in class_shapes(p, alpha))
    digest = hashlib.sha256(repr(reps).encode()).hexdigest()
    assert digest == CLASS_REPRESENTATIVE_SHA256[(p, alpha)]


#: SHA-256 over repr((q, d, i, j, S.d, S.b, S.H.basis)) of the 330 class
#: representatives of every q <= 64 and of q = 128, recorded while the
#: search still ran through every j-combination
ALL_REPRESENTATIVES_SHA256 = (
    "ce8b5a57099f1d55f4a3dede77fe19a3ce35f9ff941689304202b16413e6e416")


def test_class_representatives_golden_digest():
    digest = hashlib.sha256()
    count = 0
    for p, alpha in prime_powers(2, 64) + [(2, 7)]:
        F = field(p, alpha)
        for d, i, j in class_shapes(p, alpha):
            S = class_representative(F, d, i, j)
            digest.update(repr((F.q, d, i, j, S.d, S.b, S.H.basis)).encode())
            count += 1
    assert count == 330
    assert digest.hexdigest() == ALL_REPRESENTATIVES_SHA256


@pytest.mark.parametrize("p,alpha,shape", [(2, 7, (1, 1, 6)),
                                           (2, 8, (1, 1, 7))])
def test_class_representative_is_fast_for_large_j(p, alpha, shape):
    # the search through every j-combination took seconds to minutes here
    F = field(p, alpha)
    start = time.perf_counter()
    S = class_representative(F, *shape)
    assert time.perf_counter() - start < 1
    assert S.shape() == shape


def test_class_representative_rejects_bad_shape():
    F = field(2, 4)
    with pytest.raises(ValueError):
        class_representative(F, 2, 1, 1)        # 2 does not divide 15
    with pytest.raises(ValueError):
        class_representative(F, 1, 4, 2)        # j out of range
