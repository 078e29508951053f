"""Field arithmetic, subspaces, quotients: canonical choices and axioms."""

import ast
import inspect
import itertools
import random

import pytest

from aglstab.counting import prime_set
from aglstab.ffield import (Field, QuotientSpace, Subspace, full_subspace,
                            lines_of_quotient, span, subfield_stabilizer,
                            zero_subspace)
from reference import (digits, reference_add, reference_echelon,
                       reference_neg, reference_reduce, reference_smul)


def test_make_field_moduli():
    assert Field(2, 2).modulus == (1, 1, 1)       # x^2 + x + 1
    assert Field(2, 3).modulus == (1, 1, 0, 1)    # x^3 + x + 1
    assert Field(5, 1).modulus == (0, 1)          # prime field convention
    assert Field(3, 2).modulus == (1, 0, 1)       # x^2 + 1 over F_3


def test_make_field_prime_field_is_mod_p():
    F5 = Field(5, 1)
    for x in range(5):
        for y in range(5):
            assert F5.add(x, y) == (x + y) % 5
            assert F5.mul(x, y) == (x * y) % 5


def test_make_field_rejects_bad_input():
    with pytest.raises(ValueError):
        Field(4, 1)
    with pytest.raises(ValueError):
        Field(1, 3)
    with pytest.raises(ValueError):
        Field(2, 0)
    with pytest.raises(ValueError):
        Field(2, 17)  # beyond the table cap


def test_find_generator_examples():
    assert Field(5, 1).gamma == 2
    assert Field(2, 1).gamma == 1
    assert Field(7, 1).gamma == 3


def test_f4_generator_relations():
    F4 = Field(2, 2)
    g = F4.gamma
    assert F4.mul(g, g) == F4.add(g, 1)   # g^2 = g + 1
    assert F4.pow(g, 3) == 1


@pytest.mark.parametrize("p,alpha", [(2, 2), (2, 3), (3, 2), (5, 1), (7, 1)])
def test_field_axioms_exhaustive(p, alpha):
    F = Field(p, alpha)
    els = list(F.elements())
    for x, y, z in itertools.product(els, repeat=3):
        assert F.mul(F.mul(x, y), z) == F.mul(x, F.mul(y, z))
        assert F.mul(x, F.add(y, z)) == F.add(F.mul(x, y), F.mul(x, z))
    for x in els[1:]:
        assert F.mul(x, F.inv(x)) == 1
    for x, y in itertools.product(els, repeat=2):
        assert F.sub(F.add(x, y), y) == x


@pytest.mark.parametrize("p,alpha", [(2, 4), (3, 2), (13, 1), (2, 6)])
def test_generator_order(p, alpha):
    F = Field(p, alpha)
    n = F.q - 1
    assert F.pow(F.gamma, n) == 1
    for m in range(1, n):
        if n % m == 0:
            assert F.pow(F.gamma, m) != 1


def test_element_coeff_roundtrip():
    F = Field(3, 3)
    for x in F.elements():
        assert F.element(digits(F, x)) == x


def test_subfield_basics():
    F16 = Field(2, 4)
    K = F16.subfield(2)
    assert K.size == 4
    assert len(K.elements) == 4
    g = K.generator
    assert F16.pow(g, 3) == 1 and g != 1
    # closed under multiplication and addition
    for x, y in itertools.product(K.elements, repeat=2):
        assert F16.mul(x, y) in K.elements
        assert F16.add(x, y) in K.elements
    with pytest.raises(ValueError):
        F16.subfield(3)


def test_subfield_stabilizer_examples():
    F16 = Field(2, 4)
    assert subfield_stabilizer(full_subspace(F16)).degree == 4
    assert subfield_stabilizer(zero_subspace(F16)).degree == 4
    F4 = Field(2, 2)
    line = Subspace(F4, (1,))
    assert subfield_stabilizer(line).degree == 1


@pytest.mark.parametrize("p,alpha", [(2, 4), (3, 2), (2, 6)])
def test_subfield_stabilizer_is_a_field_and_stabilizes(p, alpha):
    F = Field(p, alpha)
    samples = [Subspace(F, combo) for combo in
               itertools.combinations(range(1, min(F.q, 12)), 2)]
    for H in samples:
        K = subfield_stabilizer(H)
        for x in K.elements:
            for v in H.basis:
                assert H.contains(F.mul(x, v))
        for x, y in itertools.product(K.elements, repeat=2):
            assert F.mul(x, y) in K.elements


def test_span_examples():
    F4 = Field(2, 2)
    assert span((), F4.prime_subfield).basis == ()
    g = F4.gamma
    line = span((g,), F4.prime_subfield)
    assert line.elements() == (0, g)

    F16 = Field(2, 4)
    K4 = F16.subfield(2)
    copy_of_f4 = span((1,), K4)
    assert copy_of_f4.elements() == K4.elements


def test_span_idempotent_and_monotone():
    F8 = Field(2, 3)
    K = F8.prime_subfield
    for combo in itertools.combinations(range(1, 8), 2):
        W = span(combo, K)
        assert span(W.basis, K) == W
        bigger = span(combo + (5,), K)
        assert W.issubspace_of(bigger)


def test_subspace_canonical_equality():
    F8 = Field(2, 3)
    K = F8.prime_subfield
    a = span((1, 2, 3), K)
    b = span((3, 2), K)       # 1 = 2 ^ 3 is dependent
    assert a == b
    assert hash(a) == hash(b)
    assert a.basis == b.basis


def test_reduce_is_coset_minimum():
    F9 = Field(3, 2)
    for basis in [(4,), (1,), (5,)]:
        H = span(basis, F9.prime_subfield)
        hels = H.elements()
        for x in F9.elements():
            expected = min(F9.add(x, h) for h in hels)
            assert H.reduce(x) == expected


def test_quotient_transversal():
    F8 = Field(2, 3)
    H = span((3,), F8.prime_subfield)
    Q = QuotientSpace(F8, H)
    assert len(Q.transversal) == 8 // 2
    seen = set()
    for x in F8.elements():
        r = Q.rep(x)
        assert r in Q.transversal
        seen.add(r)
    assert seen == set(Q.transversal)
    assert Q.transversal[0] == 0


def test_lines_of_quotient_counts():
    F4 = Field(2, 2)
    assert len(lines_of_quotient(QuotientSpace(F4, zero_subspace(F4)),
                                 F4.prime_subfield)) == 3
    F8 = Field(2, 3)
    assert len(lines_of_quotient(QuotientSpace(F8, zero_subspace(F8)),
                                 F8.prime_subfield)) == 7
    assert lines_of_quotient(QuotientSpace(F8, full_subspace(F8)),
                             F8.prime_subfield) == []


def test_lines_of_quotient_structure():
    F16 = Field(2, 4)
    H = span((1,), F16.subfield(2))    # the copy of F_4
    Q = QuotientSpace(F16, H)
    K = F16.subfield(2)
    lines = lines_of_quotient(Q, K)
    assert len(lines) == (4 - 1) // (4 - 1)  # (16/4 - 1)/(|K| - 1)
    for W in lines:
        assert H.issubspace_of(W)
        assert W.dim == H.dim + K.degree
        for x in K.elements:
            for v in W.basis:
                assert W.contains(F16.mul(x, v))
    # lines over the prime field instead
    lines2 = lines_of_quotient(Q, F16.prime_subfield)
    assert len(lines2) == (4 - 1) // (2 - 1)
    assert len({W.basis for W in lines2}) == 3


def test_lines_reject_non_module_denominator():
    F16 = Field(2, 4)
    H = span((1, 2), F16.prime_subfield)
    assert subfield_stabilizer(H).degree == 1
    Q = QuotientSpace(F16, H)
    with pytest.raises(ValueError):
        lines_of_quotient(Q, F16.subfield(2))


def test_prime_set_reexport_sanity():
    # the field layer leans on these for irreducibility and generators
    assert prime_set(1) == ()
    assert prime_set(6) == (2, 3)


# ---------------------------------------------------------------------------
# table-backed addition and int-row subspaces against coefficient lists


def _check_additive_ops(F, pairs):
    for x, y in pairs:
        assert F.add(x, y) == reference_add(F, x, y), (x, y)
        assert F.sub(x, y) == reference_add(F, x, reference_neg(F, y)), (x, y)


@pytest.mark.parametrize("p,alpha", [(3, 2), (5, 2), (3, 3), (7, 2), (3, 4),
                                     (5, 3)])
def test_add_neg_sub_smul_match_digitwise_reference(p, alpha):
    F = Field(p, alpha)
    _check_additive_ops(F, itertools.product(F.elements(), repeat=2))
    for x in F.elements():
        assert F.neg(x) == reference_neg(F, x), x
        for c in range(-p, 2 * p):
            assert F.smul(c, x) == reference_smul(F, c, x), (c, x)


def test_add_neg_match_digitwise_reference_sampled_large_field():
    F = Field(3, 10)
    rng = random.Random(310)
    xs = [0, 1, 2, F.q - 1, F.gamma] + [rng.randrange(F.q) for _ in range(120)]
    _check_additive_ops(F, itertools.product(xs, repeat=2))
    for x in xs:
        assert F.neg(x) == reference_neg(F, x), x
        assert F.smul(5, x) == reference_smul(F, 5, x), x


def _vector_sets(F, rng):
    yield ()
    yield (0, 0)
    yield F.elements()
    for size in range(1, F.alpha + 3):
        for _ in range(6):
            yield tuple(rng.randrange(F.q) for _ in range(size))
    # a scaled copy of a vector, so that elimination meets non-monic pivots
    x = rng.randrange(1, F.q)
    yield (x, F.smul(F.p - 1, x), F.mul(F.gamma, x))


@pytest.mark.parametrize("p,alpha", [(2, 3), (3, 2), (2, 4), (5, 2), (3, 3),
                                     (2, 5), (7, 2), (2, 6), (3, 4)])
def test_subspace_matches_coefficient_list_reference(p, alpha):
    F = Field(p, alpha)
    rng = random.Random(F.q)
    for vectors in _vector_sets(F, rng):
        H = Subspace(F, vectors)
        basis, pivots = reference_echelon(F, vectors)
        assert (H.basis, H.pivots) == (basis, pivots), vectors
        for x in F.elements():
            assert H.reduce(x) == reference_reduce(F, basis, pivots, x), (vectors, x)
        # order and redundancy of the input do not matter
        assert Subspace(F, sorted(vectors, reverse=True) + list(basis)) == H


def test_stabilizing_degree_is_memoized_per_basis(monkeypatch):
    F = Field(2, 6)
    H = span((1, 2), F.prime_subfield)
    degree = H.stabilizing_degree()
    monkeypatch.setattr("aglstab.ffield.subfield_stabilizer",
                        lambda W: pytest.fail("stabilizer recomputed"))
    assert Subspace(F, H.basis[::-1]).stabilizing_degree() == degree
    assert H.stabilizing_degree() == degree


def test_field_checks_are_raises_not_asserts():
    # python -O strips assert statements; the checks must survive it
    import aglstab.agl
    import aglstab.ffield
    for module in (aglstab.ffield, aglstab.agl):
        tree = ast.parse(inspect.getsource(module))
        assert not any(isinstance(node, ast.Assert)
                       for node in ast.walk(tree)), module.__name__
