"""Brute-force engines and the lattice inclusion-exclusion evaluator."""

import hashlib
import itertools
import math
import random
import time
from collections import Counter

import pytest

from aglstab import ffield, oracle
from aglstab.agl import (Subgroup, class_representative,
                         immediate_supergroups, join_pair,
                         subgroup_from_masks)
from aglstab.counting import (ClassParams, class_shapes, classes, count_N,
                              evaluate_terms)
from aglstab.ffield import Field, Subspace, mask_elements, span, subset_mask
from aglstab.oracle import (BudgetExceededError,
                            bruteforce_counts, count_N_bruteforce,
                            count_N_via_lattice,
                            exact_orbit_unions, fixing_maps,
                            is_exact_stabilizer, lattice_terms,
                            n_orbit_unions, orbit_union_masks, stabilizer)
import reference
from reference import (all_subgroups, assert_lines, full_census,
                       full_group, literal_lattice_terms, mask_bits,
                       pairs_to_masks, prime_powers, pulled_lattice_terms,
                       reference_fixing_maps, run_python, subgroup_elements,
                       trivial_subgroup)

FIELDS = {}


def field(p, alpha):
    if (p, alpha) not in FIELDS:
        FIELDS[(p, alpha)] = Field(p, alpha)
    return FIELDS[(p, alpha)]


def class_of(S):
    d, i, j = S.shape()
    return ClassParams(S.field.p, S.field.alpha, 0, d, i, j)


def test_mask_round_trip():
    assert subset_mask([0, 2, 5]) == 0b100101
    assert mask_elements(0b100101) == (0, 2, 5)
    assert mask_elements(0) == ()
    assert mask_elements(1 << 200 | 1 << 3) == (3, 200)
    assert mask_bits(0b100101, 7) == "1010010"
    assert mask_bits(0, 3) == "000"
    assert mask_bits(1 << 200 | 1 << 3, 201) == "0001" + "0" * 196 + "1"


# prime q, p = 2 and odd prime powers: every shape of translate step
@pytest.mark.parametrize("p,alpha", [(7, 1), (2, 3), (3, 2), (11, 1), (13, 1),
                                     (2, 4), (5, 2), (3, 3), (7, 2)])
def test_fixing_maps_equals_map_by_map_reference(p, alpha):
    F = field(p, alpha)
    rng = random.Random(F.q)
    full = (1 << F.q) - 1
    masks = [0, full, 1, 1 << (F.q - 1)]
    masks += [rng.getrandbits(F.q) for _ in range(8)]
    masks += [subset_mask(rng.sample(range(F.q), k)) for k in (2, 3, F.q // 2)]
    for mask in masks:
        expected = list(reference_fixing_maps(F, mask))
        scanned = list(fixing_maps(F, mask))
        assert [(a, b) for a, hits in scanned
                for b in mask_elements(hits)] == expected, mask
        # a map fixes a subset iff it fixes the complement
        assert list(fixing_maps(F, full ^ mask)) == scanned, mask
        assert stabilizer(F, mask) == subgroup_from_masks(
            F, pairs_to_masks(expected)), mask


def test_subgroup_from_masks_rejects_non_subgroups():
    F = field(7, 1)
    with pytest.raises(ValueError, match="do not form a subspace"):
        subgroup_from_masks(F, {1: 0b11})     # {0, 1} is no subspace
    with pytest.raises(ValueError, match="do not form a subgroup"):
        # five multipliers over one translation, and 5 does not divide 6
        subgroup_from_masks(F, {a: 1 for a in (1, 2, 3, 4, 6)})
    a0 = F.pow(F.gamma, 2)
    others = [a for a in range(2, 7) if a != a0][:2]
    with pytest.raises(ValueError, match="do not form a subgroup"):
        # three maps over one translation, but none with the generator a0
        subgroup_from_masks(F, {a: 1 for a in [1] + others})


def test_scan_checks_are_raises_not_asserts():
    # python -O strips assert statements; the checks must survive it
    assert assert_lines(oracle) == []


def test_stabilizer_of_extremes_is_full_group():
    F = field(7, 1)
    assert stabilizer(F, 0) == full_group(F)
    assert stabilizer(F, subset_mask(range(7))) == full_group(F)


def test_stabilizer_of_singletons():
    F = field(2, 3)
    for x in range(F.q):
        S = stabilizer(F, 1 << x)
        assert S.d == F.q - 1 and S.H.size == 1
        # the point stabilizer contains a -> gamma*a + (1-gamma)*x
        b = F.mul(F.sub(1, F.gamma), x)
        assert S == Subgroup(F, F.q - 1, b, Subspace(F))


def test_stabilizer_example_q7():
    F = field(7, 1)
    S = stabilizer(F, subset_mask([1, 2, 4]))
    assert (S.d, S.order, S.H.size) == (3, 3, 1)
    maps = {(m.a, m.b) for m in subgroup_elements(S)}
    assert (2, 0) in maps and (3, 0) not in maps


def test_stabilizer_respects_limit(monkeypatch):
    monkeypatch.setattr(oracle, "DEFAULT_STABILIZER_LIMIT", 8)
    F = field(2, 4)
    with pytest.raises(BudgetExceededError, match="needs q <= 8, got q = 16"):
        stabilizer(F, 0b11)
    assert stabilizer(field(2, 3), 0b11).order == 2


def test_every_map_scan_respects_the_limit(monkeypatch):
    # both scans over all maps check the cap: fixing_maps, and with it the
    # witness check, and the table pass of count_N_bruteforce
    monkeypatch.setattr(oracle, "DEFAULT_STABILIZER_LIMIT", 8)
    F = field(2, 4)
    with pytest.raises(BudgetExceededError, match="needs q <= 8, got q = 16"):
        next(fixing_maps(F, 0b11))
    with pytest.raises(BudgetExceededError, match="needs q <= 8, got q = 16"):
        is_exact_stabilizer(trivial_subgroup(F), 0b11)
    # 8 orbits of size 2: 2**8 > 4q unions, so the bit-sliced table pass
    S = class_representative(F, 1, 1, 1)
    assert len(S.orbits()) == 8
    with pytest.raises(BudgetExceededError, match="needs q <= 8, got q = 16"):
        count_N_bruteforce(S, 2)


def test_bruteforce_table_pass_refuses_q_8192_at_once():
    # 16 orbits of a 9-dimensional H: the table pass, which ran past 30 s
    # over its q x q list before it checked the cap
    proc, seconds = run_python("-c", (
        "from aglstab import agl, oracle; from aglstab.ffield import Field; "
        "oracle.count_N_bruteforce("
        "agl.class_representative(Field(2, 13), 1, 1, 9), 512)"))
    assert proc.stderr.splitlines()[-1] == (
        "aglstab.numtheory.BudgetExceededError: map scan needs q <= 4096, "
        "got q = 8192")
    assert seconds < 5


def test_stabilizer_contains_group_of_orbit_unions():
    # Galois property S <= stabilizer(B) for B a union of S-orbits
    F = field(3, 2)
    S = Subgroup(F, 2, 0, span(F, (1,), 1))
    for k in range(F.q + 1):
        for mask in orbit_union_masks(S, k):
            T = stabilizer(F, mask)
            assert join_pair(T, S) == T


@pytest.mark.parametrize("p,alpha", [(5, 1), (7, 1), (2, 3), (3, 2), (11, 1)])
def test_orbit_unions_are_the_subsets_every_map_fixes(p, alpha):
    # theory-free: the k-subsets of F_q that every map of S sends onto
    # themselves, found without reading S.orbits()
    F = field(p, alpha)
    for d, i, j in class_shapes(p, alpha):
        S = class_representative(F, d, i, j)
        maps = subgroup_elements(S)
        for k in range(F.q + 1):
            masks = list(orbit_union_masks(S, k))
            fixed = {subset_mask(B)
                     for B in itertools.combinations(range(F.q), k)
                     if all({g(x) for x in B} == set(B) for g in maps)}
            assert len(set(masks)) == len(masks), (S, k)
            assert set(masks) == fixed, (S, k)
            assert n_orbit_unions(S, k) == len(fixed), (S, k)


def test_orbit_union_masks_yield_the_fixed_subset_count():
    # the enumerator and the count share no helper: every class of every
    # q <= 32, at every k with at most 2,000 unions
    pairs = masks = 0
    for p, alpha in prime_powers(2, 32):
        F = field(p, alpha)
        for d, i, j in class_shapes(p, alpha):
            S = class_representative(F, d, i, j)
            for k in range(F.q + 1):
                n = n_orbit_unions(S, k)
                if n > 2_000:
                    continue
                found = set(orbit_union_masks(S, k))
                assert len(found) == n, (S, k)
                assert all(m.bit_count() == k for m in found), (S, k)
                pairs, masks = pairs + 1, masks + n
    assert (pairs, masks) == (3_171, 82_836)


@pytest.mark.parametrize("p,alpha", [(7, 1), (2, 3), (3, 2), (11, 1), (13, 1)])
def test_is_exact_stabilizer_matches_stabilizer(p, alpha):
    # every orbit union of every class, so both answers occur
    F = field(p, alpha)
    answers = set()
    for d, i, j in class_shapes(p, alpha):
        S = class_representative(F, d, i, j)
        for k in range(F.q + 1):
            for mask in orbit_union_masks(S, k):
                exact = is_exact_stabilizer(S, mask)
                assert exact == (stabilizer(F, mask) == S), (S, mask)
                answers.add(exact)
    assert answers == {False, True}


def test_exact_orbit_unions_scans_in_orbit_union_order(monkeypatch):
    # the budget is the caller's: see test_count_N_bruteforce_budget
    F = field(13, 1)
    S = trivial_subgroup(F)
    scanned = []
    monkeypatch.setattr(oracle, "is_exact_stabilizer",
                        lambda S, mask: scanned.append(mask) or True)
    # the scan calls the module global, in orbit-union order
    assert list(exact_orbit_unions(S, 2)) == list(orbit_union_masks(S, 2))
    assert len(scanned) == 78


def test_count_N_bruteforce_examples():
    F = field(7, 1)
    order3 = Subgroup(F, 3, 0, Subspace(F))
    assert count_N_bruteforce(order3, 3) == 2
    assert count_N_bruteforce(trivial_subgroup(F), 3) == 0
    for q in (5, 7, 11, 13):
        Fq = field(q, 1)
        half = Subgroup(Fq, 2, 0, Subspace(Fq))
        assert count_N_bruteforce(half, 2) == (q - 1) // 2


def test_count_N_bruteforce_budget(monkeypatch):
    F = field(13, 1)
    scans = []
    monkeypatch.setattr(oracle, "is_exact_stabilizer",
                        lambda S, mask: scans.append(mask))
    monkeypatch.setattr(oracle, "bruteforce_counts", scans.append)
    S = trivial_subgroup(F)
    with pytest.raises(BudgetExceededError,
                       match="^1716 orbit unions exceed the budget of 100$"):
        count_N_bruteforce(S, 6, budget=100)
    # the refusal walks no orbits either
    assert scans == [] and S._orbits is None


def test_count_N_bruteforce_builds_one_branch_list_per_scanned_count(
        monkeypatch):
    # the budget reads the union count off s_qk; only a one-by-one scan
    # lists the unions, once per count, and a table count none
    calls = []
    masks = oracle.orbit_union_masks
    monkeypatch.setattr(oracle, "orbit_union_masks",
                        lambda S, k: calls.append(k) or masks(S, k))
    for p, alpha in [(11, 1), (13, 1), (2, 4)]:
        F = field(p, alpha)
        for d, i, j in class_shapes(p, alpha):
            S = class_representative(F, d, i, j)
            for k in range(F.q + 1):
                count_N_bruteforce(S, k)
    assert len(calls) == 399


def test_exact_orbit_unions_stop_at_their_budget():
    # the first union {0, 1, 2} is fixed by x -> 2 - x; C(11, 3) = 165
    F = field(11, 1)
    S = class_representative(F, 1, 1, 0)
    with pytest.raises(BudgetExceededError,
                       match="^no witness among the first 1 orbit unions, "
                             "the budget of 1$"):
        next(exact_orbit_unions(S, 3, 1))
    assert next(exact_orbit_unions(S, 3, 2)) == subset_mask([0, 1, 3])
    unbounded = list(exact_orbit_unions(S, 3))
    assert len(unbounded) == count_N(ClassParams(11, 1, 3, *S.shape()))
    for budget in (165, 166, None):
        assert list(exact_orbit_unions(S, 3, budget)) == unbounded
    with pytest.raises(BudgetExceededError, match="the budget of 164$"):
        list(exact_orbit_unions(S, 3, 164))


# every prime power q <= 17
@pytest.mark.parametrize("p,alpha", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1),
                                     (2, 3), (3, 2), (11, 1), (13, 1), (2, 4),
                                     (17, 1)])
def test_bruteforce_counts_equal_the_per_candidate_scan(p, alpha):
    F = field(p, alpha)
    for d, i, j in class_shapes(p, alpha):
        S = class_representative(F, d, i, j)
        expected = [sum(1 for _ in exact_orbit_unions(S, k))
                    for k in range(F.q + 1)]
        assert list(bruteforce_counts(S)) == expected, (d, i, j)


@pytest.mark.parametrize("p,alpha", [(5, 1), (2, 3), (3, 2)])
def test_bruteforce_counts_of_every_subgroup(p, alpha):
    # conjugates with b != 0 and the classes' other members too
    F = field(p, alpha)
    for S in all_subgroups(F):
        expected = [sum(1 for _ in exact_orbit_unions(S, k))
                    for k in range(F.q + 1)]
        assert list(bruteforce_counts(S)) == expected, S


def test_bruteforce_counts_are_zero_when_more_maps_keep_the_orbits():
    # the translations by all of F_q have one orbit, which all q(q-1)
    # maps keep in place, so D = q(q-1) > |S| = q
    for p, alpha in [(7, 1), (2, 4), (3, 2)]:
        F = field(p, alpha)
        S = class_representative(F, 1, alpha, 1)
        assert (S.d, S.H.size) == (1, F.q)
        assert bruteforce_counts(S) == (0,) * (F.q + 1)


def test_bruteforce_counts_are_cached_on_the_instance(monkeypatch):
    F = field(7, 1)
    passes = []
    scan = oracle._orbit_pair_sets
    monkeypatch.setattr(oracle, "_orbit_pair_sets",
                        lambda S: passes.append(S) or scan(S))
    S = trivial_subgroup(F)
    assert bruteforce_counts(S) == bruteforce_counts(S)
    assert [count_N_bruteforce(S, k) for k in range(8)] == list(
        bruteforce_counts(S))
    assert len(passes) == 1
    # an equal descriptor is a new instance and makes its own pass
    bruteforce_counts(trivial_subgroup(F))
    assert len(passes) == 2


def test_bruteforce_counts_check_their_invariants(monkeypatch):
    F = field(7, 1)
    S = class_representative(F, 2, 1, 0)
    S.orbits()
    S.order += 1
    with pytest.raises(RuntimeError, match="only 2 maps keep every S-orbit"):
        bruteforce_counts(S)
    monkeypatch.setattr(oracle, "s_qk", lambda q, k, u, v: 1)
    with pytest.raises(RuntimeError, match="the size split holds 3 orbit "
                                           "unions of size 2, not 1"):
        bruteforce_counts(class_representative(F, 2, 1, 0))


@pytest.mark.parametrize("p,alpha", [(5, 1), (7, 1), (2, 3), (3, 2)])
def test_orbit_pair_sets_match_a_loop_over_every_map(p, alpha):
    # one plain loop over all q(q-1) maps (a, b): D counts the maps with
    # no pair (orbit(x), orbit(a*x + b)) of two distinct orbits, and every
    # other map gives the sorted tuple of its codes o*m + t
    F = field(p, alpha)
    for d, i, j in class_shapes(p, alpha):
        S = class_representative(F, d, i, j)
        orbits = S.orbits()
        m = len(orbits)
        orbit_of = {x: o for o, orbit in enumerate(orbits)
                    for x in mask_elements(orbit)}
        diagonal, code_sets = 0, set()
        for a in range(1, F.q):
            for b in range(F.q):
                pairs = {(orbit_of[x], orbit_of[F.add(F.mul(a, x), b)])
                         for x in range(F.q)}
                codes = tuple(sorted(o * m + t for o, t in pairs if o != t))
                if codes:
                    code_sets.add(codes)
                else:
                    diagonal += 1
        D, pair_sets = oracle._orbit_pair_sets(S)
        assert D == diagonal, (d, i, j)
        assert len(pair_sets) == len(code_sets), (d, i, j)
        assert set(pair_sets) == code_sets, (d, i, j)


def test_count_N_bruteforce_reads_the_table_only_where_it_pays(monkeypatch):
    def closed(S, k):
        return count_N(ClassParams(S.field.p, S.field.alpha, k, *S.shape()))

    def fail(*args):
        raise AssertionError("wrong route")

    # 2**7 = 128 orbit unions, more than 4 per point of F_7: the table
    F = field(7, 1)
    monkeypatch.setattr(oracle, "is_exact_stabilizer", fail)
    S = trivial_subgroup(F)
    assert [count_N_bruteforce(S, k) for k in range(8)] == [
        closed(S, k) for k in range(8)]
    monkeypatch.undo()
    monkeypatch.setattr(oracle, "bruteforce_counts", fail)
    # 2**3 orbit unions: one by one
    S = class_representative(F, 3, 1, 0)
    assert [count_N_bruteforce(S, k) for k in range(8)] == [
        closed(S, k) for k in range(8)]
    # 2**25 orbit unions exceed the default budget, the 300 of size 2 do
    # not: one by one
    S = trivial_subgroup(field(5, 2))
    assert count_N_bruteforce(S, 2) == closed(S, 2)


def test_full_census_q7_k3_ledger():
    F = field(7, 1)
    census = full_census(F, 3)
    assert sum(census.values()) == math.comb(7, 3)
    by_order = {}
    for S, n in census.items():
        by_order[S.order] = by_order.get(S.order, 0) + n
    assert by_order == {3: 14, 2: 21}
    # 7 conjugate subgroups of each order, 2 resp. 3 subsets apiece
    assert sorted(census.values()) == [2] * 7 + [3] * 7


def test_full_census_complement_symmetry():
    F = field(7, 1)
    a = full_census(F, 2)
    b = full_census(F, 5)
    assert a == b


def test_full_census_budget(monkeypatch):
    monkeypatch.setattr(oracle, "DEFAULT_SUBSET_BUDGET", 1000)
    F = field(13, 1)
    with pytest.raises(BudgetExceededError,
                       match="^1716 subsets exceed the budget of 1000$"):
        full_census(F, 6)
    assert sum(full_census(F, 2).values()) == math.comb(13, 2)


@pytest.mark.parametrize("p,alpha,ks", [(7, 1, (2, 3)), (2, 3, (2, 4)),
                                        (3, 2, (2, 3))])
def test_census_matches_closed_form_per_subgroup(p, alpha, ks):
    """Every subgroup's census count equals the closed form of its class,
    confirming the count depends only on (d, |H|, |H'|)."""
    F = field(p, alpha)
    groups = all_subgroups(F)
    for k in ks:
        census = full_census(F, k)
        for S in groups:
            d, i, j = S.shape()
            expected = count_N(ClassParams(p, alpha, k, d, i, j))
            assert census.get(S, 0) == expected, (S, k)
        assert sum(census.values()) == math.comb(F.q, k)


def test_lattice_full_group_terms():
    F = field(7, 1)
    G = full_group(F)
    assert lattice_terms(G) == ((1, 6, 7),)
    for k in range(8):
        assert count_N_via_lattice(G, k) == (1 if k in (0, 7) else 0)


def test_lattice_example_q5():
    F = field(5, 1)
    S = Subgroup(F, 2, 0, Subspace(F))
    assert count_N_via_lattice(S, 2) == 2


@pytest.mark.parametrize("p,alpha", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1),
                                     (2, 3), (3, 2), (11, 1), (13, 1), (2, 4),
                                     (5, 2), (3, 3), (2, 5), (7, 2), (2, 6),
                                     (3, 4), (11, 2), (5, 3), (13, 2), (3, 5),
                                     (2, 7)])
def test_closed_form_terms_equal_lattice_terms(p, alpha):
    # one representation for two engines: the same signed (c, d, |H|) terms
    F = field(p, alpha)
    for c in classes(p, alpha):
        if (p, alpha, c.d, c.beta) == (2, 7, 1, 0):
            continue        # over the census budget: see the budget test
        S = class_representative(F, c.d, c.i, c.j)
        assert c.terms() == lattice_terms(S), (c.d, c.i, c.j)


#: SHA-256 of repr([(q, d, i, j, lattice_terms(S)), ...]) over the 442
#: class representatives of every prime power q <= 64 and of q = 81, 121,
#: 125 and 169, recorded from the supergroup join fold that the overgroup
#: census replaced
LATTICE_TERMS_SHA256 = (
    "b24365373682f751aa824c30fa7a8b3d7d00689949c2164d0c0bfc1bbd8b6643")


def test_lattice_terms_golden_digest():
    rows = [(F.q, d, i, j, lattice_terms(class_representative(F, d, i, j)))
            for p, alpha in prime_powers(2, 64) + [(3, 4), (11, 2), (5, 3),
                                                  (13, 2)]
            for F in [field(p, alpha)]
            for d, i, j in class_shapes(p, alpha)]
    assert len(rows) == 442
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == (
        LATTICE_TERMS_SHA256)


def test_lattice_requires_b_zero():
    F = field(7, 1)
    with pytest.raises(ValueError):
        count_N_via_lattice(Subgroup(F, 3, 1, Subspace(F)), 3)


def test_lattice_route_checks_b_zero_once_in_the_supergroups():
    # the overgroup census assumes the fixed point 0; the Moebius sum adds
    # no check of its own, so both entries raise with the one message
    F = field(7, 1)
    S = Subgroup(F, 3, 1, Subspace(F))
    message = "^the overgroup census requires b = 0; conjugate first$"
    with pytest.raises(ValueError, match=message):
        lattice_terms(S)
    with pytest.raises(ValueError, match=message):
        count_N_via_lattice(S, 3)


def test_lattice_closure_budget(monkeypatch):
    # the census budget: the trivial group of F_128 has G_2(7) = 29212
    # overgroup spaces, refused before the enumerator is called; F_64 and
    # F_243 (G_2(6) = 2825, G_3(5) = 2664) are admitted
    assert [oracle.galois_number(2, n) for n in range(8)] == [
        1, 2, 5, 16, 67, 374, 2825, 29212]
    admitted = {(p, alpha): len(oracle.overgroup_census(
        trivial_subgroup(field(p, alpha)))) for p, alpha in [(2, 6), (3, 5)]}
    assert admitted == {(2, 6): 2825, (3, 5): 2664}

    def forbidden(*args):
        raise AssertionError("the census enumerated past its budget")

    monkeypatch.setattr(ffield, "superspaces", forbidden)
    message = (r"^the overgroup census needs 29212 subspaces, over the limit "
               r"of 5000$")
    S = trivial_subgroup(field(2, 7))
    with pytest.raises(BudgetExceededError, match=message):
        lattice_terms(S)
    with pytest.raises(BudgetExceededError, match=message):
        count_N_via_lattice(S, 1)


@pytest.mark.parametrize("p,alpha,shape,spaces", [
    (2, 16, (1, 1, 10), 2825),
    (3, 10, (1, 1, 5), 2664),
    (37, 3, (1, 3, 0), 2816),
], ids=["2^16", "3^10", "37^3"])
def test_census_work_budget(monkeypatch, p, alpha, shape, spaces):
    # under the space limit, but each space is a q-bit mask: these took
    # 11 to 19 s, and are refused before the enumerator is called
    F = Field(p, alpha)
    S = class_representative(F, *shape)

    def forbidden(*args):
        raise AssertionError("the census enumerated past its budget")

    monkeypatch.setattr(ffield, "superspaces", forbidden)
    message = (f"^the overgroup census needs {spaces} subspaces of q = {F.q} "
               f"elements, {spaces * F.q} in all, over the limit of "
               f"{oracle.DEFAULT_CENSUS_WORK}$")
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError, match=message):
        lattice_terms(S)
    with pytest.raises(BudgetExceededError, match=message):
        count_N_via_lattice(S, 1)
    assert time.perf_counter() - start < 1


def test_census_work_budget_admits_every_class_up_to_the_map_scan_cap():
    # verify reaches q = 4096 at most; of its classes under the space
    # limit, the widest census has 2825 spaces
    q = oracle.DEFAULT_STABILIZER_LIMIT
    p, alpha = 2, 12
    assert p ** alpha == q
    spaces = [oracle.galois_number(p ** c.odp, (alpha - c.beta) // c.odp)
              for c in classes(p, alpha)]
    widest = max(n for n in spaces if n <= oracle.DEFAULT_CENSUS_LIMIT)
    assert widest * q == 2825 * 4096 <= oracle.DEFAULT_CENSUS_WORK


def test_census_enumerates_the_predicted_number_of_spaces(monkeypatch):
    # a census that misses a space raises; it does not sum a short lattice
    F = field(2, 4)
    plain = ffield.superspaces
    monkeypatch.setattr(ffield, "superspaces",
                        lambda H, m: itertools.islice(plain(H, m), 66))
    with pytest.raises(RuntimeError, match="found 66 subspaces, where the Galois number predicts 67"):
        oracle.overgroup_census(trivial_subgroup(F))


@pytest.mark.parametrize("p,alpha", prime_powers(2, 16))
def test_census_holds_every_overgroup(p, alpha):
    # each node stands for its q/|H| groups, one per fixed point coset,
    # when S is a pure translation group and d > 1, and for one otherwise;
    # so weighted, the nodes are the subgroups that contain S by their maps
    F = field(p, alpha)
    groups = all_subgroups(F)
    maps = {T: frozenset((m.a, m.b) for m in subgroup_elements(T))
            for T in groups}
    for S in groups:
        if S.b != 0:
            continue
        census = Counter()
        for mask, size, degrees, _ in oracle.overgroup_census(S):
            for d in degrees:
                census[d, mask] += F.q // size if S.d == 1 < d else 1
        contain = Counter((T.d, T.H.cosets()[0]) for T in groups
                          if maps[S] <= maps[T])
        assert census == contain, S


def test_census_builds_no_subspace_and_keeps_nothing(monkeypatch):
    # the census reads masks: it builds no Subspace, so no span or join,
    # a cold repeat gives the same terms, and the field gains no state
    built = Counter()
    plain_init = Subspace.__init__

    def counted_init(self, *args):
        built["subspaces"] += 1
        plain_init(self, *args)

    monkeypatch.setattr(Subspace, "__init__", counted_init)
    for p, alpha in [(2, 4), (5, 2), (7, 2), (3, 3)]:
        F = field(p, alpha)
        S = trivial_subgroup(F)
        attrs = set(vars(F))
        built.clear()
        runs = []
        for _ in range(2):
            runs.append(lattice_terms(S))
        assert runs[0] == runs[1] and built == Counter(), (p, alpha)
        assert set(vars(F)) == attrs
        # the row lives on S, not on the field
        for k in range(F.q + 1):
            count_N_via_lattice(S, k)
        assert built == Counter() and set(vars(F)) == attrs, (p, alpha)


@pytest.mark.parametrize("p,alpha", prime_powers(2, 81))
def test_pushed_moebius_equals_the_pair_scan(p, alpha):
    # the pushed sum reads containment off generator bitsets, the pull
    # form off one AND per pair of spaces
    F = field(p, alpha)
    for d, i, j in class_shapes(p, alpha):
        S = class_representative(F, d, i, j)
        assert lattice_terms(S) == pulled_lattice_terms(S), (d, i, j)


@pytest.mark.parametrize("p,alpha", [(2, 6), (3, 5)])
def test_pushed_moebius_equals_the_pair_scan_on_a_trivial_class(p, alpha):
    # the widest censuses admitted: 2825 and 2664 spaces
    S = trivial_subgroup(field(p, alpha))
    assert lattice_terms(S) == pulled_lattice_terms(S)


@pytest.mark.parametrize("p,alpha", prime_powers(2, 64))
def test_lattice_row_equals_the_terms_at_every_k(p, alpha):
    F = field(p, alpha)
    for d, i, j in class_shapes(p, alpha):
        S = class_representative(F, d, i, j)
        terms = lattice_terms(S)
        assert [count_N_via_lattice(S, k) for k in range(F.q + 1)] == [
            evaluate_terms(F.q, k, terms) for k in range(F.q + 1)], (d, i, j)


def test_lattice_row_reads_the_terms_once_per_subgroup(monkeypatch):
    # every k of one subgroup reads its one row; an equal subgroup built
    # anew shares nothing with it and builds its own
    F = field(3, 3)
    calls = []
    plain = oracle.lattice_terms
    monkeypatch.setattr(oracle, "lattice_terms",
                        lambda S: calls.append(S) or plain(S))
    for d, i, j in class_shapes(3, 3):
        S = class_representative(F, d, i, j)
        row = [count_N_via_lattice(S, k) for k in range(F.q + 1)]
        assert calls == [S], (d, i, j)
        fresh = class_representative(F, d, i, j)
        assert fresh == S and fresh is not S
        assert fresh._lattice_counts is None
        assert [count_N_via_lattice(fresh, k) for k in range(F.q + 1)] == row
        assert len(calls) == 2 and calls[1] is fresh, (d, i, j)
        calls.clear()


@pytest.mark.parametrize("p,alpha", [(5, 1), (2, 3), (3, 2)])
def test_fold_equals_literal_walk(p, alpha):
    F = field(p, alpha)
    for S in all_subgroups(F):
        if S.b != 0:
            continue
        literal, visited = literal_lattice_terms(S)
        assert visited == 2 ** len(immediate_supergroups(S))
        assert lattice_terms(S) == literal, S


@pytest.mark.parametrize("p,alpha", [(2, 2), (5, 1), (7, 1), (2, 3), (3, 2)])
def test_three_way_agreement_small_fields(p, alpha):
    from aglstab.agl import class_representative
    from aglstab.counting import class_shapes
    F = field(p, alpha)
    for d, i, j in class_shapes(p, alpha):
        S = class_representative(F, d, i, j)
        for k in range(F.q + 1):
            closed = count_N(ClassParams(p, alpha, k, d, i, j))
            lattice = count_N_via_lattice(S, k)
            brute = count_N_bruteforce(S, k)
            assert closed == lattice == brute, (p, alpha, d, i, j, k)


# from q = 16 on a class can hold several conjugacy classes, and the
# routes above see only the representative; scaling acts freely on these
# subspaces, so F_16 has 30/15 and F_32 has 155/31 of them per class
@pytest.mark.parametrize("p,alpha,i,j,members", [(2, 4, 1, 2, 2),
                                                 (2, 5, 1, 2, 5),
                                                 (2, 5, 1, 3, 5)])
def test_every_conjugacy_class_of_a_class_has_its_counts(p, alpha, i, j,
                                                         members):
    F = field(p, alpha)
    c = next(c for c in classes(p, alpha) if (c.d, c.i, c.j) == (1, i, j))
    found = reference.conjugacy_class_members(F, i, j)
    assert len(found) == members
    assert class_representative(F, 1, i, j) in found
    for T in found:
        assert T.shape() == (1, i, j)
        brute = bruteforce_counts(T)
        for k in range(F.q + 1):
            assert brute[k] == count_N_via_lattice(T, k) == c.count(k), (T, k)


def test_all_subgroups_counts():
    assert len(all_subgroups(field(2, 1))) == 2
    assert len(all_subgroups(field(5, 1))) == 14
    assert len(all_subgroups(field(3, 1))) == 6      # the symmetric group S_3


def test_all_subgroups_respects_limit(monkeypatch):
    monkeypatch.setattr(reference, "DEFAULT_ALL_SUBGROUPS_LIMIT", 8)
    with pytest.raises(BudgetExceededError, match="needs q <= 8, got q = 16"):
        all_subgroups(field(2, 4))
    assert len(all_subgroups(field(2, 3))) > 0


def test_all_subgroups_closed_under_composition():
    F = field(2, 3)
    for S in all_subgroups(F):
        els = subgroup_elements(S)
        pairs = {(m.a, m.b) for m in els}
        for f in els[:4]:
            for g in els:
                h = f * g
                assert (h.a, h.b) in pairs
