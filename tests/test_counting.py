"""Closed-form counts and their number-theoretic ingredients.

Expected values are frozen after being derived by an independent route:
q-binomials against a subspace enumeration, and the spot counts against
the exhaustive stabilizer scan in test_oracle / the acceptance suite.
"""

import itertools
import math
import random

import pytest
import sympy

from aglstab import counting
from aglstab.agl import class_representative
from aglstab.counting import (ClassParams, build_table, check_field,
                              check_shape, class_shapes, class_terms,
                              count_N, enumerate_params, moebius_exponent,
                              mult_order, prime_set, q_binomial, s_qk)
from aglstab.ffield import Field, span


def test_prime_set():
    assert prime_set(1) == ()
    assert prime_set(6) == (2, 3)
    assert prime_set(8) == (2,)
    assert prime_set(60) == (2, 3, 5)
    with pytest.raises(ValueError):
        prime_set(0)


def test_mult_order():
    assert mult_order(7, 1) == 1
    assert mult_order(2, 3) == 2
    assert mult_order(2, 7) == 3
    assert mult_order(5, 2) == 1
    with pytest.raises(ValueError):
        mult_order(2, 4)


@pytest.mark.parametrize("p,alpha", [(2, 6), (3, 4), (2, 64)])
def test_mult_order_matches_sympy(p, alpha):
    # sympy's n_order is an independent oracle for the plain loop
    assert mult_order(p, 1) == 1        # sympy rejects the modulus 1
    for u in sympy.divisors(p ** alpha - 1)[1:]:
        assert mult_order(p, u) == sympy.n_order(p, u), u


def test_q_binomial_examples():
    assert q_binomial(5, 0, 2) == 1
    assert q_binomial(3, 1, 2) == 7
    assert q_binomial(2, 1, 3) == 4
    assert q_binomial(2, 3, 2) == 0
    assert q_binomial(4, -1, 2) == 0


def _count_subspaces_bruteforce(p, alpha, dim):
    """Independent oracle: enumerate all subspaces of F_p^alpha by closure."""
    F = Field(p, alpha)
    K = F.prime_subfield
    seen = {(): True}
    frontier = [()]
    while frontier:
        new = []
        for basis in frontier:
            W = span(basis, K)
            for x in range(1, F.q):
                if W.contains(x):
                    continue
                W2 = span(basis + (x,), K)
                if W2.basis not in seen:
                    seen[W2.basis] = True
                    new.append(W2.basis)
        frontier = new
    return sum(1 for basis in seen if len(basis) == dim)


@pytest.mark.parametrize("p,alpha,dim", [(2, 4, 1), (2, 4, 2), (3, 2, 1), (2, 3, 2)])
def test_q_binomial_counts_subspaces(p, alpha, dim):
    assert q_binomial(alpha, dim, p) == _count_subspaces_bruteforce(p, alpha, dim)


def test_moebius_exponent():
    assert moebius_exponent(0, 5) == 1
    assert moebius_exponent(1, 5) == -1
    assert moebius_exponent(2, 2) == 2
    assert moebius_exponent(3, 2) == -8


def test_s_qk_examples():
    assert s_qk(8, 2, 1, 2) == 4
    assert s_qk(7, 3, 2, 1) == 3
    assert s_qk(7, 3, 3, 1) == 2
    assert s_qk(2, 0, 1, 2) == 1


def test_s_qk_zero_pattern():
    for q in (8, 9, 12):
        for u in (1, 2, 3):
            for v in (1, 2, 3, 4):
                if (q - v) % (u * v):
                    continue
                for k in range(q + 1):
                    val = s_qk(q, k, u, v)
                    if k % (u * v) not in (0, v % (u * v)):
                        assert val == 0


def test_s_qk_pascal_for_trivial_group():
    for q in (5, 8, 13):
        for k in range(q + 1):
            assert s_qk(q, k, 1, 1) == math.comb(q, k)


def test_class_params_validation():
    ClassParams(7, 1, 3, 3, 1, 0)
    with pytest.raises(ValueError):
        ClassParams(6, 1, 0, 1, 1, 0)     # p not prime
    with pytest.raises(ValueError):
        ClassParams(7, 1, 8, 1, 1, 0)     # k out of range
    with pytest.raises(ValueError):
        ClassParams(7, 1, 3, 4, 1, 0)     # d does not divide q-1
    with pytest.raises(ValueError):
        ClassParams(2, 4, 0, 1, 3, 1)     # i does not divide alpha
    with pytest.raises(ValueError):
        ClassParams(2, 4, 0, 1, 1, 4)     # j out of range
    with pytest.raises(ValueError):
        ClassParams(2, 4, 0, 1, 4, 2)     # j must be 0/1 at i = alpha


def test_class_params_congruence():
    assert ClassParams(7, 1, 3, 3, 1, 0).congruence_ok
    assert ClassParams(7, 1, 4, 3, 1, 0).congruence_ok          # 4 = 1 mod 3
    assert not ClassParams(7, 1, 5, 3, 1, 0).congruence_ok      # 5 = 2 mod 3
    msg = ClassParams(7, 1, 5, 3, 1, 0).congruence_violation()
    assert "mod" in msg


def test_class_params_computes_odp_once(monkeypatch):
    calls = []

    def counted(v, u):
        calls.append((v, u))
        return mult_order(v, u)

    monkeypatch.setattr(counting, "mult_order", counted)
    cp = ClassParams(2, 6, 12, 3, 1, 1)
    assert (cp.odp, cp.beta) == (2, 2)
    assert calls == [(2, 3)]
    # count_N takes o_d(p) from the check and reuses it for u = d
    count_N(cp)
    assert calls == [(2, 3)]
    # build_table: one per divisor of 63, whose order every shape of that
    # d reuses, plus one per u = d*prod(P) with P nonempty
    calls.clear()
    build_table(2, 6)
    assert len(calls) == 27


def test_class_params_derived_quantities():
    cp = ClassParams(2, 6, 12, 3, 1, 1)
    assert cp.q == 64
    assert cp.odp == 2          # order of 2 mod 3
    assert cp.beta == 2
    assert cp.h_size == 4


def test_count_N_spot_values():
    # cross-checked against the exhaustive stabilizer census (test_oracle)
    assert count_N(ClassParams(2, 3, 2, 1, 1, 1)) == 4          # q/2 at q=8
    assert count_N(ClassParams(7, 1, 3, 3, 1, 0)) == 2
    assert count_N(ClassParams(7, 1, 3, 1, 1, 0)) == 0          # the (7,3,1) zero
    assert count_N(ClassParams(2, 1, 1, 1, 1, 0)) == 2          # q = 2, k = 1
    assert count_N(ClassParams(7, 1, 3, 2, 1, 0)) == 3


def test_class_terms_examples():
    # q = 7, d = 3, H = 0: the two immediate supergroups (d = 6, H = 0)
    # and (d = 3, H = F_7) are subtracted, their join (6, F_7) added back
    assert class_terms(7, 1, 3, 1, 0) == (
        (1, 3, 1), (-1, 3, 7), (-1, 6, 1), (1, 6, 7))
    # the full group of F_2 has the single term s_qk(2, k, 1, 2)
    assert class_terms(2, 1, 1, 1, 1) == ((1, 1, 2),)
    # q = 64, d = 3, H = F_4: the five 2-dimensional and the one
    # 3-dimensional F_4-subspaces above H, Moebius weights -1 and 4
    assert class_terms(2, 6, 3, 1, 1) == ((1, 3, 4), (-5, 3, 16), (4, 3, 64))


def test_class_terms_rejects_inadmissible_shape():
    # i = 3 does not divide alpha / o_1(2) = 4; the shape check says so
    # before the sums run
    with pytest.raises(ValueError,
                       match=r"^i must divide alpha/o_d\(p\) = 4, got 3$"):
        class_terms(2, 4, 1, 3, 1)
    # past the check the sums still guard their divisibilities: the order
    # of 2 mod 7 is 3, which does not divide alpha - beta = 1
    with pytest.raises(ValueError, match="does not divide"):
        counting._class_terms(2, 4, 1, 3, 1, 1)


def _accepts(p, alpha, d, i, j) -> bool:
    try:
        check_shape(p, alpha, d, i, j)
    except ValueError:
        return False
    return True


def _check_rule_agreement(p, alpha, ds):
    """Over d in ds, 1 <= i <= alpha and 0 <= j <= alpha, the shape check
    accepts a triple iff class_shapes yields it; returns how many it
    accepted and how many it rejected."""
    shapes = set(class_shapes(p, alpha))
    grid = [(d, i, j) for d in ds for i in range(1, alpha + 1)
            for j in range(alpha + 1)]
    accepted = {t for t in grid if _accepts(p, alpha, *t)}
    assert accepted == {t for t in shapes if t[0] in ds}, (p, alpha)
    return len(accepted), len(grid) - len(accepted)


def test_shape_check_accepts_exactly_class_shapes():
    fields = [(p, alpha) for p in sympy.primerange(2, 257)
              for alpha in range(1, 9) if p ** alpha <= 256]
    assert len(fields) == 70
    seen = [_check_rule_agreement(p, alpha, sympy.divisors(p ** alpha - 1))
            for p, alpha in fields]
    assert all(map(sum, zip(*seen)))


@pytest.mark.parametrize("p,alpha", [(2, 64), (3, 30)])
def test_shape_check_accepts_exactly_class_shapes_bignum(p, alpha):
    ds = sympy.divisors(p ** alpha - 1)
    sample = [1, ds[-1]] + random.Random(alpha).sample(ds[1:-1], 10)
    assert all(_check_rule_agreement(p, alpha, sample))


#: inadmissible (p, alpha, d, i, j); the first four once returned terms
BAD_SHAPES = [
    (2, 4, 1, 1, 4),        # j = 4 past 0 < j < 4
    (2, 4, 1, 4, 2),        # j must be 0 or 1 at i = alpha/o_d(p)
    (2, 4, 1, 2, 3),        # j = 3 past 0 < j < 2
    (2, 4, 1, 1, 5),
    (2, 4, 1, 1, 0),        # j = 0 only at i = alpha/o_d(p)
    (2, 4, 2, 1, 1),        # 2 does not divide 15
    (2, 4, 0, 1, 0),
    (2, 4, 1, 3, 1),        # 3 does not divide 4
    (2, 4, 1, 0, 1),
    (2, 6, 3, 2, 1),        # o_3(2) = 2: i = 2 does not divide 3
    (2, 6, 3, 1, 3),        # j = 3 past 0 < j < 3
    (3, 2, 2, 1, 2),
    (7, 1, 3, 1, -1),
    (7, 1, 6, 1, 2),
]


@pytest.mark.parametrize("p,alpha,d,i,j", BAD_SHAPES)
def test_every_entry_point_rejects_a_bad_shape_alike(p, alpha, d, i, j):
    messages = []
    for build in (lambda: ClassParams(p, alpha, 0, d, i, j),
                  lambda: class_terms(p, alpha, d, i, j),
                  lambda: class_representative(Field(p, alpha), d, i, j),
                  lambda: check_shape(p, alpha, d, i, j)):
        with pytest.raises(ValueError) as exc:
            build()
        messages.append(str(exc.value))
    assert len(set(messages)) == 1, messages


@pytest.mark.parametrize("p,alpha,message", [
    (4, 1, "p must be prime, got 4"),
    (1, 3, "p must be prime, got 1"),
    (-7, 1, "p must be prime, got -7"),
    (7, 0, "alpha must be >= 1, got 0"),
])
def test_every_entry_point_rejects_a_bad_field_alike(p, alpha, message):
    for build in (lambda: ClassParams(p, alpha, 0, 1, 1, 0),
                  lambda: class_terms(p, alpha, 1, 1, 0),
                  lambda: class_shapes(p, alpha),
                  lambda: build_table(p, alpha, 0),
                  lambda: Field(p, alpha),
                  lambda: check_field(p, alpha)):
        with pytest.raises(ValueError) as exc:
            build()
        assert str(exc.value) == message


def test_count_N_k0_detects_full_group():
    for p, alpha in [(2, 2), (5, 1), (7, 1), (3, 2), (2, 4)]:
        q = p ** alpha
        for d, i, j in class_shapes(p, alpha):
            cp = ClassParams(p, alpha, 0, d, i, j)
            expected = 1 if (d == q - 1 and cp.beta == alpha) else 0
            assert count_N(cp) == expected, (p, alpha, d, i, j)


def test_count_N_k1_and_k2_small_fields():
    for p, alpha in [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (3, 2), (2, 3)]:
        q = p ** alpha
        for d, i, j in class_shapes(p, alpha):
            cp1 = ClassParams(p, alpha, 1, d, i, j)
            if q == 2:
                exp1 = 2 if (d == 1 and cp1.beta == 0) else 0
            else:
                exp1 = 1 if (d == q - 1 and cp1.beta == 0) else 0
            assert count_N(cp1) == exp1, (q, d, i, j)
            cp2 = ClassParams(p, alpha, 2, d, i, j)
            if q % 2 == 0:
                exp2 = q // 2 if (d == 1 and cp2.beta == 1) else 0
            else:
                exp2 = (q - 1) // 2 if (d == 2 and cp2.beta == 0) else 0
            assert count_N(cp2) == exp2, (q, d, i, j)


def test_enumerate_params_classes_q4():
    shapes = {(cp.d, cp.h_size, 2 ** (cp.odp * cp.i))
              for cp in enumerate_params(2, 2)}
    assert shapes == {(1, 1, 4), (1, 4, 4), (1, 2, 2), (3, 1, 4), (3, 4, 4)}


def test_enumerate_params_prime_field_betas():
    for cp in enumerate_params(13, 1):
        assert cp.i == 1
        assert cp.beta in (0, 1)


def test_enumerate_params_congruence_and_order():
    params = enumerate_params(3, 2)
    for cp in params:
        assert cp.congruence_ok
        assert 0 <= cp.k <= 4
    # k outermost, then d ascending, then i, then j
    keys = [(cp.k, cp.d, cp.i, cp.j) for cp in params]
    assert keys == sorted(keys)


def test_build_table_q2():
    assert build_table(2, 1) == [
        (0, 1, 1, 1, 0, 0, 0),
        (0, 1, 1, 1, 1, 1, 1),
        (1, 1, 1, 1, 0, 0, 2),
    ]


def test_build_table_q5_k2_row():
    table = build_table(5, 1)
    *_, beta, N = next(row for row in table if row[:2] == (2, 2))
    assert beta == 0 and N == 2
    assert all(row[-1] >= 0 for row in table)


@pytest.mark.parametrize("p,alpha", [(2, 4), (3, 2), (7, 1), (2, 6), (5, 2)])
def test_build_table_matches_per_tuple_counts(p, alpha):
    assert build_table(p, alpha) == [
        (cp.k, cp.d, cp.odp, cp.i, cp.j, cp.beta, count_N(cp))
        for cp in enumerate_params(p, alpha)]


def test_build_table_k_max_range():
    assert len(build_table(3, 2, 9)) > len(build_table(3, 2))
    with pytest.raises(ValueError):
        build_table(3, 2, 10)
