"""Brute-force engines and the lattice inclusion-exclusion evaluator."""

import ast
import inspect
import itertools
import math
import random

import pytest

from aglstab import oracle
from aglstab.agl import (Subgroup, class_representative, full_group,
                         immediate_supergroups, subgroup_from_pairs,
                         trivial_subgroup)
from aglstab.counting import (ClassParams, class_shapes, class_terms, count_N,
                              mult_order)
from aglstab.ffield import Field, span, zero_subspace
from aglstab.oracle import (BudgetExceededError, all_subgroups,
                            count_N_bruteforce, count_N_via_lattice,
                            exact_orbit_unions, fixing_maps, full_census,
                            is_exact_stabilizer, lattice_terms,
                            mask_elements, orbit_union_masks, stabilizer,
                            subset_mask)
from reference import (literal_lattice_terms, reference_fixing_maps,
                       subgroup_elements)

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
    for obj in (subgroup_from_pairs, fixing_maps, lattice_terms):
        tree = ast.parse(inspect.getsource(obj))
        assert not any(isinstance(node, ast.Assert)
                       for node in ast.walk(tree)), obj


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
    assert S.contains_map(2, 0) and not S.contains_map(3, 0)


def test_stabilizer_respects_limit():
    F = field(2, 4)
    with pytest.raises(BudgetExceededError):
        stabilizer(F, 0b11, q_limit=8)


def test_stabilizer_contains_group_of_orbit_unions():
    # Galois property S <= stabilizer(B) for B a union of S-orbits
    F = field(3, 2)
    S = Subgroup(F, 2, 0, span((1,), F.prime_subfield))
    for k in range(F.q + 1):
        for mask in orbit_union_masks(S, k):
            assert stabilizer(F, mask).contains(S)


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


def test_exact_orbit_unions_checks_the_budget_before_scanning(monkeypatch):
    F = field(13, 1)
    S = trivial_subgroup(F)
    scanned = []
    monkeypatch.setattr(oracle, "is_exact_stabilizer",
                        lambda S, mask: scanned.append(mask) or True)
    with pytest.raises(BudgetExceededError, match="1716 orbit unions"):
        exact_orbit_unions(S, 6, budget=1715)
    assert scanned == []
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


def test_count_N_bruteforce_budget():
    F = field(13, 1)
    with pytest.raises(BudgetExceededError):
        count_N_bruteforce(trivial_subgroup(F), 6, budget=100)


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


def test_full_census_budget():
    F = field(13, 1)
    with pytest.raises(BudgetExceededError):
        full_census(F, 6, budget=1000)


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
                                     (5, 2), (3, 3), (2, 5), (7, 2), (2, 6)])
def test_closed_form_terms_equal_lattice_terms(p, alpha):
    # one representation for two engines: the same signed (c, d, |H|) terms
    F = field(p, alpha)
    for d, i, j in class_shapes(p, alpha):
        S = class_representative(F, d, i, j)
        assert class_terms(p, alpha, d, i, j) == lattice_terms(S), (d, i, j)


def test_lattice_requires_b_zero():
    F = field(7, 1)
    with pytest.raises(ValueError):
        count_N_via_lattice(Subgroup(F, 3, 1, zero_subspace(F)), 3)


def test_lattice_closure_budget():
    # the trivial group of F_13 has 27 immediate supergroups: two of
    # order 2 leave {1, U1, U2, U1 v U2} in the fold, one over the cap
    F = field(13, 1)
    with pytest.raises(BudgetExceededError,
                       match=r"holds 4 subgroups after 2 of 27 supergroups, "
                             r"over the limit of 3"):
        lattice_terms(trivial_subgroup(F), closure_limit=3)


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


def test_all_subgroups_respects_limit():
    with pytest.raises(BudgetExceededError):
        all_subgroups(field(2, 4), q_limit=8)


def test_all_subgroups_closed_under_composition():
    F = field(2, 3)
    for S in all_subgroups(F):
        els = subgroup_elements(S)
        pairs = {(m.a, m.b) for m in els}
        for f in els[:4]:
            for g in els:
                h = f * g
                assert (h.a, h.b) in pairs
