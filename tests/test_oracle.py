"""Brute-force engines and the lattice inclusion-exclusion evaluator."""

import math
import random
from collections import Counter

import pytest

from aglstab import oracle
from aglstab.agl import (Subgroup, class_representative,
                         immediate_supergroups, join_pair,
                         subgroup_from_pairs)
from aglstab.counting import ClassParams, class_shapes, classes, count_N
from aglstab.ffield import (Field, Subspace, mask_bits, mask_elements,
                            span, subset_mask, zero_subspace)
from aglstab.oracle import (BudgetExceededError,
                            bruteforce_counts, count_N_bruteforce,
                            count_N_via_lattice,
                            exact_orbit_unions, fixing_maps,
                            is_exact_stabilizer, lattice_terms,
                            orbit_union_masks, stabilizer)
import reference
from reference import (all_subgroups, assert_lines, full_census, full_group,
                       literal_lattice_terms, reference_fixing_maps,
                       run_python, subgroup_elements, trivial_subgroup)

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
        assert list(fixing_maps(F, mask)) == expected, mask
        assert stabilizer(F, mask) == subgroup_from_pairs(F, expected), mask


def test_subgroup_from_pairs_rejects_non_subgroups():
    F = field(7, 1)
    with pytest.raises(ValueError):
        subgroup_from_pairs(F, {(1, 0), (1, 1)})     # {0, 1} is no subspace
    with pytest.raises(ValueError):
        # five multipliers over one translation, and 5 does not divide 6
        subgroup_from_pairs(F, {(a, 0) for a in (1, 2, 3, 4, 6)})


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
        assert S == Subgroup(F, F.q - 1, b, zero_subspace(F))


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
        "aglstab.counting.BudgetExceededError: map scan needs q <= 4096, "
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
    order3 = Subgroup(F, 3, 0, zero_subspace(F))
    assert count_N_bruteforce(order3, 3) == 2
    assert count_N_bruteforce(trivial_subgroup(F), 3) == 0
    for q in (5, 7, 11, 13):
        Fq = field(q, 1)
        half = Subgroup(Fq, 2, 0, zero_subspace(Fq))
        assert count_N_bruteforce(half, 2) == (q - 1) // 2


def test_count_N_bruteforce_budget(monkeypatch):
    F = field(13, 1)
    scans = []
    monkeypatch.setattr(oracle, "is_exact_stabilizer",
                        lambda S, mask: scans.append(mask))
    monkeypatch.setattr(oracle, "bruteforce_counts", scans.append)
    with pytest.raises(BudgetExceededError,
                       match="^1716 orbit unions exceed the budget of 100$"):
        count_N_bruteforce(trivial_subgroup(F), 6, budget=100)
    assert scans == []


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
    monkeypatch.setattr(oracle, "_n_orbit_unions", lambda S, k: 1)
    with pytest.raises(RuntimeError, match="the size split holds 3 orbit "
                                           "unions of size 2, not 1"):
        bruteforce_counts(class_representative(F, 2, 1, 0))


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
    S = Subgroup(F, 2, 0, zero_subspace(F))
    assert count_N_via_lattice(S, 2) == 2


@pytest.mark.parametrize("p,alpha", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1),
                                     (2, 3), (3, 2), (11, 1), (13, 1), (2, 4),
                                     (5, 2), (3, 3), (2, 5), (7, 2), (2, 6),
                                     (3, 4), (11, 2), (5, 3), (13, 2)])
def test_closed_form_terms_equal_lattice_terms(p, alpha):
    # one representation for two engines: the same signed (c, d, |H|) terms
    F = field(p, alpha)
    for c in classes(p, alpha):
        S = class_representative(F, c.d, c.i, c.j)
        assert c.terms() == lattice_terms(S), (c.d, c.i, c.j)


def test_lattice_requires_b_zero():
    F = field(7, 1)
    with pytest.raises(ValueError):
        count_N_via_lattice(Subgroup(F, 3, 1, zero_subspace(F)), 3)


def test_lattice_closure_budget(monkeypatch):
    # the trivial group of F_13 has 27 immediate supergroups: two of
    # order 2 leave {1, U1, U2, U1 v U2} in the fold, one over the cap;
    # the cache is cleared so the fold runs under the patched limit
    F = field(13, 1)
    lattice_terms.cache_clear()
    monkeypatch.setattr(oracle, "DEFAULT_CLOSURE_LIMIT", 3)
    with pytest.raises(BudgetExceededError,
                       match=r"holds 4 subgroups after 2 of 27 supergroups, "
                             r"over the limit of 3"):
        lattice_terms(trivial_subgroup(F))
    with pytest.raises(BudgetExceededError):
        count_N_via_lattice(trivial_subgroup(F), 1)


@pytest.mark.parametrize("p,alpha,joins", [(2, 4, 2725), (5, 2, 3578),
                                           (7, 2, 17661)])
def test_fold_makes_the_same_joins_and_keeps_nothing(p, alpha, joins,
                                                     monkeypatch):
    # the fold's join table cuts the cost of a join, not the joins: every
    # one still goes through join_pair, a cold repeat builds as many
    # subspaces as the first call, and no state is left on the field
    F = field(p, alpha)
    counts = Counter()
    plain_join, plain_init = oracle.join_pair, Subspace.__init__

    def counted_join(*args):
        counts["joins"] += 1
        return plain_join(*args)

    def counted_init(self, *args):
        counts["subspaces"] += 1
        plain_init(self, *args)

    monkeypatch.setattr(oracle, "join_pair", counted_join)
    monkeypatch.setattr(Subspace, "__init__", counted_init)
    attrs = set(vars(F))
    runs = []
    for _ in range(2):
        lattice_terms.cache_clear()
        counts.clear()
        terms = lattice_terms(trivial_subgroup(F))
        runs.append((terms, dict(counts), {
            key: dict(v) if isinstance(v, dict) else v
            for key, v in vars(F).items()}))
    lattice_terms.cache_clear()
    assert runs[0] == runs[1]
    assert runs[0][1]["joins"] == joins
    assert set(vars(F)) == attrs


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
