"""Field construction and arithmetic, subspaces, coset leaders and lines
of quotients: canonical choices and axioms."""

import ast
import hashlib
import itertools
import random
from pathlib import Path

import pytest
import sympy

import aglstab.agl
import aglstab.cli
import aglstab.counting
import aglstab.ffield
import aglstab.numtheory
import aglstab.oracle
from aglstab.agl import Subgroup, immediate_supergroups
from aglstab.ffield import Field, Subspace, _Ring, mask_elements, span
from aglstab.numtheory import prime_set
from reference import (all_subgroups, all_subspaces, assert_lines, digits,
                       element, full_subspace, modulus, prime_powers,
                       reference_add, reference_echelon, reference_neg,
                       reference_reduce, reference_smul, reference_span)


def test_make_field_moduli():
    # X is the code p, and X**alpha is minus the tail of the modulus
    assert Field(2, 2).mul(2, 2) == 3             # x^2 + x + 1
    assert Field(2, 3).mul(4, 2) == 3             # x^3 + x + 1
    assert Field(3, 2).mul(3, 3) == 2             # x^2 + 1 over F_3
    F5 = Field(5, 1)                              # x over F_5: plain F_5
    assert all(F5.mul(x, y) == x * y % 5
               for x in range(5) for y in range(5))
    assert [modulus(Field(p, alpha)) for p, alpha in
            ((2, 2), (2, 3), (5, 1), (3, 2))] == [
                (1, 1, 1), (1, 1, 0, 1), (0, 1), (1, 0, 1)]


# ---------------------------------------------------------------------------
# construction: modulus, generator and tables

#: sha256 of repr((p, alpha, modulus, gamma, exp)) for every prime power
#: q <= 4096 in increasing order, exp being (gamma**t for t < q - 1)
SMALL_FIELDS_SHA256 = ("2060ead7e6e3e6ff5e82a3e2c4fb72f1"
                       "c3fcbbc13818b2af6d909a692a66efa5")

#: modulus, gamma and sha256 of repr((p, alpha, modulus, gamma, exp, log))
LARGE_FIELDS = {
    (2, 16): ((1, 1, 0, 1, 0, 1) + (0,) * 10 + (1,), 3,
              "6e7965991a638d992c422669259ea274"
              "f945087a4306683f52e507e16a5bcdbd"),
    (3, 10): ((1, 0, 2) + (0,) * 7 + (1,), 34,
              "b5aa9e48410931880507e8fa2a3773a8"
              "5ce84be36600c36a7ca9722a7cb35e5e"),
}


def _exp(F) -> tuple[int, ...]:
    return tuple(F._exp[:F.q - 1])


def test_field_tables_golden_digest():
    digest = hashlib.sha256()
    for p, alpha in prime_powers(2, 4096):
        F = Field(p, alpha)
        digest.update(repr((p, alpha, modulus(F), F.gamma, _exp(F))).encode())
    assert digest.hexdigest() == SMALL_FIELDS_SHA256


@pytest.mark.parametrize("p,alpha", sorted(LARGE_FIELDS))
def test_large_field_tables_golden_digest(p, alpha):
    F = Field(p, alpha)
    pinned, gamma, sha256 = LARGE_FIELDS[p, alpha]
    assert (modulus(F), F.gamma) == (pinned, gamma)
    record = (p, alpha, modulus(F), F.gamma, _exp(F), tuple(F._log))
    assert hashlib.sha256(repr(record).encode()).hexdigest() == sha256


def _is_irreducible(coeffs, p) -> bool:
    """sympy's irreducibility of the polynomial with ascending ``coeffs``."""
    return sympy.Poly(coeffs[::-1], sympy.Symbol("x"),
                      modulus=p).is_irreducible


def test_modulus_and_gamma_are_the_first_that_qualify():
    for p, alpha in prime_powers(2, 4096):
        F = Field(p, alpha)
        f = modulus(F)
        assert f[-1] == 1 and len(f) == alpha + 1
        assert _is_irreducible(f, p), (p, alpha)
        for tail in range(element(F, f[:-1])):
            assert not _is_irreducible(digits(F, tail) + [1], p), (p, tail)
        n = F.q - 1
        primes = sympy.primefactors(n)

        def primitive(x):
            return all(F.pow(x, n // r) != 1 for r in primes)

        assert primitive(F.gamma)
        for x in range(1, F.gamma):
            assert not primitive(x), (p, alpha, x)


@pytest.mark.parametrize("p,n", [(p, n) for p in sympy.primerange(2, 33)
                                 for n in range(2, 11) if p ** n <= 1024])
def test_unit_form_of_rabin_matches_sympy(p, n):
    for tail in range(p ** n):
        coeffs = [tail // p ** t % p for t in range(n)] + [1]
        assert _Ring(p, n, tail).is_field() == _is_irreducible(coeffs, p), \
            coeffs


def test_rabin_rejects_a_squarefree_product_with_x_to_the_q_equal_x():
    # (x^3+x+1)(x^3+x^2+1) = x^6+x^5+x^4+x^3+x^2+x+1 over F_2: both
    # factors have degree 3 | 6, so X**64 = X, but X**8 - X is no unit
    ring = _Ring(2, 6, 0b111111)
    assert ring.pow(ring.x, 64) == ring.x
    assert ring.pow(ring.axpy(1, ring.x, ring.pow(ring.x, 8)), 63) != 1
    assert not ring.is_field()
    assert not _is_irreducible([1] * 7, 2)


@pytest.mark.parametrize("p,alpha,tail", [(2, 1, 0), (2, 1, 1), (5, 1, 3),
                                          (2, 6, 0b111111), (3, 4, 50),
                                          (7, 3, 0), (2, 8, 0b00011011)])
def test_ring_mul_matches_sympy(p, alpha, tail):
    x = sympy.Symbol("x")
    ring = _Ring(p, alpha, tail)
    modulus = [tail // p ** t % p for t in range(alpha)] + [1]
    f = sympy.Poly(modulus[::-1], x, modulus=p)

    def poly(a):
        return sympy.Poly([a // p ** t % p for t in range(alpha)][::-1], x,
                          modulus=p)

    rng = random.Random(p ** alpha + tail)
    for _ in range(40):
        a, b = rng.randrange(p ** alpha), rng.randrange(p ** alpha)
        assert poly(ring.mul(a, b)) == (poly(a) * poly(b)).rem(f), (a, b)
    assert poly(ring.x) == sympy.Poly(x, x, modulus=p).rem(f)


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


@pytest.mark.parametrize("p,alpha", [(2, 17), (257, 2)])
def test_field_past_the_table_cap_is_refused_before_any_table(monkeypatch,
                                                              p, alpha):
    monkeypatch.setattr(aglstab.ffield, "_Ring",
                        lambda *args: pytest.fail("built a ring"))
    with pytest.raises(ValueError, match=(
            f"^q = {p ** alpha} exceeds the table-backed arithmetic cap "
            "65536$")):
        Field(p, alpha)


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
    els = list(range(F.q))
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
    for x in range(F.q):
        assert element(F, digits(F, x)) == x


def _subfield_elements(F, degree):
    """0 and the powers of the subfield's primitive element, built apart
    from any span."""
    g = F.pow(F.gamma, (F.q - 1) // (F.p ** degree - 1))
    return tuple(sorted({0} | {F.pow(g, t) for t in range(F.p ** degree - 1)}))


def test_subfield_basics():
    F16 = Field(2, 4)
    basis = F16.subfield(2)
    g = basis[1]
    assert basis == (1, g)
    assert F16.pow(g, 3) == 1 and g != 1
    els = _subfield_elements(F16, 2)
    assert len(els) == 4
    assert mask_elements(Subspace(F16, basis).cosets()[0]) == els
    # closed under multiplication and addition
    for x, y in itertools.product(els, repeat=2):
        assert F16.mul(x, y) in els
        assert F16.add(x, y) in els
    assert F16.subfield(1) == (1,)
    for bad in (3, 0, 8):
        with pytest.raises(ValueError, match="must divide alpha = 4"):
            F16.subfield(bad)


def test_subfield_basis_is_built_once(monkeypatch):
    F = Field(3, 4)
    basis = F.subfield(2)
    monkeypatch.setattr(F, "pow", lambda x, e: pytest.fail("basis rebuilt"))
    assert F.subfield(2) is basis


@pytest.mark.parametrize("p,alpha", [(2, 4), (3, 2), (2, 6), (3, 4)])
def test_subfield_basis_spans_the_subfield(p, alpha):
    F = Field(p, alpha)
    for degree in sympy.divisors(alpha):
        basis = F.subfield(degree)
        assert len(basis) == degree and basis[0] == 1
        assert (mask_elements(Subspace(F, basis).cosets()[0])
                == _subfield_elements(F, degree))


def test_subfield_stabilizer_examples():
    # H', the subfield stabilizer of H, by its degree
    F16 = Field(2, 4)
    assert full_subspace(F16).stabilizing_degree() == 4
    assert Subspace(F16).stabilizing_degree() == 4
    F4 = Field(2, 2)
    line = Subspace(F4, (1,))
    assert line.stabilizing_degree() == 1


@pytest.mark.parametrize("p,alpha", [(2, 4), (3, 2), (2, 6)])
def test_subfield_stabilizer_is_a_field_and_stabilizes(p, alpha):
    F = Field(p, alpha)
    samples = [Subspace(F, combo) for combo in
               itertools.combinations(range(1, min(F.q, 12)), 2)]
    for H in samples:
        m = H.stabilizing_degree()
        els = _subfield_elements(F, m)
        for x in els:
            for v in H.basis:
                assert H.contains(F.mul(x, v))
        for x, y in itertools.product(els, repeat=2):
            assert F.mul(x, y) in els
        # no larger subfield maps H into itself
        for bigger in sympy.divisors(alpha):
            if bigger > m:
                assert not all(H.contains(F.mul(x, v))
                               for x in _subfield_elements(F, bigger)
                               for v in H.basis), (H, bigger)


def test_span_examples():
    F4 = Field(2, 2)
    assert span(F4, (), 1).basis == ()
    g = F4.gamma
    line = span(F4, (g,), 1)
    assert mask_elements(line.cosets()[0]) == (0, g)

    F16 = Field(2, 4)
    copy_of_f4 = span(F16, (1,), 2)
    assert (mask_elements(copy_of_f4.cosets()[0])
            == _subfield_elements(F16, 2))


def test_span_idempotent_and_monotone():
    F8 = Field(2, 3)
    for combo in itertools.combinations(range(1, 8), 2):
        W = span(F8, combo, 1)
        assert span(F8, W.basis, 1) == W
        bigger = span(F8, combo + (5,), 1)
        assert all(bigger.contains(v) for v in W.basis)


def test_subspace_canonical_equality():
    F8 = Field(2, 3)
    a = span(F8, (1, 2, 3), 1)
    b = span(F8, (3, 2), 1)       # 1 = 2 ^ 3 is dependent
    assert a == b
    assert hash(a) == hash(b)
    assert a.basis == b.basis


def test_reduce_is_coset_minimum():
    F9 = Field(3, 2)
    for basis in [(4,), (1,), (5,)]:
        H = span(F9, basis, 1)
        hels = reference_span(F9, H.basis)
        for x in range(F9.q):
            expected = min(F9.add(x, h) for h in hels)
            assert H.reduce(x) == expected


def test_coset_leaders():
    F8 = Field(2, 3)
    H = span(F8, (3,), 1)                   # {0, 3}
    cosets = H.cosets()
    assert cosets == {0: 0b1001, 1: 0b110, 4: 0b10010000, 5: 0b1100000}
    assert list(cosets) == [0, 1, 4, 5]     # leaders ascend from 0
    assert H.cosets() is cosets             # computed once


def test_coset_leaders_count_is_checked(monkeypatch):
    H = span(Field(2, 3), (3,), 1)
    monkeypatch.setattr(H, "reduce", lambda x: x % 2)
    with pytest.raises(RuntimeError, match="2 coset leaders for 4 cosets"):
        H.cosets()
    H = span(Field(2, 3), (3,), 1)
    monkeypatch.setattr(H, "reduce", lambda x: min(x, 3))
    with pytest.raises(RuntimeError, match=r"4 coset leaders for 4 cosets, "
                                           r"and 1 bits for \|H\| = 2"):
        H.cosets()


@pytest.mark.parametrize("p,alpha", prime_powers(2, 64))
def test_cosets_partition_the_field_by_leader(p, alpha):
    F = Field(p, alpha)
    for H in all_subspaces(F, 1):
        cosets = H.cosets()
        assert list(cosets) == sorted({H.reduce(x) for x in range(F.q)})
        union = 0
        for mask in cosets.values():
            assert mask.bit_count() == H.size and not union & mask
            union |= mask
        assert union == (1 << F.q) - 1
        assert mask_elements(cosets[0]) == reference_span(F, H.basis)


@pytest.mark.parametrize("p,alpha", prime_powers(2, 16))
def test_every_orbit_is_a_union_of_cosets(p, alpha):
    F = Field(p, alpha)
    for S in all_subgroups(F):
        masks = S.H.cosets().values()
        for orbit in S.orbits():
            assert orbit == sum(m for m in masks if m & orbit == m)


def _lines(H: Subspace, m: int) -> list[Subspace]:
    """The lines of F_q/H over F_{p**m}, as the translation parts of the
    atoms above S(gamma**((q-1)/d), 0, H) that keep d = p**m - 1."""
    F = H.field
    d = F.p ** m - 1
    return [T.H for T in immediate_supergroups(Subgroup(F, d, 0, H))
            if T.d == d]


def test_lines_of_quotient_counts():
    F4 = Field(2, 2)
    assert len(_lines(Subspace(F4), 1)) == 3
    F8 = Field(2, 3)
    assert len(_lines(Subspace(F8), 1)) == 7
    assert _lines(full_subspace(F8), 1) == []
    F9 = Field(3, 2)
    assert len(_lines(Subspace(F9), 1)) == (9 - 1) // (3 - 1)
    assert len(_lines(Subspace(F9), 2)) == 1


def test_lines_of_quotient_structure():
    F16 = Field(2, 4)
    H = span(F16, (1,), 2)    # the copy of F_4
    lines = _lines(H, 2)
    assert len(lines) == (4 - 1) // (4 - 1)  # (16/4 - 1)/(|K| - 1)
    for W in lines:
        assert all(W.contains(v) for v in H.basis)
        assert W.dim == H.dim + 2
        for x in _subfield_elements(F16, 2):
            for v in W.basis:
                assert W.contains(F16.mul(x, v))
    # lines over the prime field instead
    lines2 = _lines(H, 1)
    assert len(lines2) == (4 - 1) // (2 - 1)
    assert len({W.basis for W in lines2}) == 3


#: sha256 over every prime power q <= 64, every degree m | alpha and every
#: F_{p**m}-subspace H from ``all_subspaces``, in that order, of
#: repr((q, m, H.basis, H.stabilizing_degree(), bases of the lines of
#: F_q/H over F_{p**m}, as ``_lines`` lists them)), pinned so a change to
#: the subspace layer must reproduce it
SUBSPACE_LAYER_SHA256 = ("3e8055175733d8cbee0ed4a2c3178dd0"
                         "5040151afbacef307c2ff25fe659b56b")


def test_subspace_layer_golden_digest():
    digest = hashlib.sha256()
    count = 0
    for p, alpha in prime_powers(2, 64):
        F = Field(p, alpha)
        for m in sympy.divisors(alpha):
            for H in all_subspaces(F, m):
                lines = [W.basis for W in _lines(H, m)]
                digest.update(repr((F.q, m, H.basis, H.stabilizing_degree(),
                                    lines)).encode())
                count += 1
    assert count == 3455
    assert digest.hexdigest() == SUBSPACE_LAYER_SHA256


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
    # the codes 0..p-1 are F_p, so multiplying by one scales every digit
    F = Field(p, alpha)
    _check_additive_ops(F, itertools.product(range(F.q), repeat=2))
    for x in range(F.q):
        assert F.neg(x) == reference_neg(F, x), x
        for c in range(-p, 2 * p):
            assert F.mul(c % p, x) == reference_smul(F, c, x), (c, x)


def test_add_neg_match_digitwise_reference_sampled_large_field():
    F = Field(3, 10)
    rng = random.Random(310)
    xs = [0, 1, 2, F.q - 1, F.gamma] + [rng.randrange(F.q) for _ in range(120)]
    _check_additive_ops(F, itertools.product(xs, repeat=2))
    for x in xs:
        assert F.neg(x) == reference_neg(F, x), x
        assert F.mul(5 % F.p, x) == reference_smul(F, 5, x), x


def _vector_sets(F, rng):
    yield ()
    yield (0, 0)
    yield range(F.q)
    for size in range(1, F.alpha + 3):
        for _ in range(6):
            yield tuple(rng.randrange(F.q) for _ in range(size))
    # a scaled copy of a vector, so that elimination meets non-monic pivots
    x = rng.randrange(1, F.q)
    yield (x, F.mul(F.p - 1, x), F.mul(F.gamma, x))


@pytest.mark.parametrize("p,alpha", [(2, 3), (3, 2), (2, 4), (5, 2), (3, 3),
                                     (2, 5), (7, 2), (2, 6), (3, 4)])
def test_subspace_matches_coefficient_list_reference(p, alpha):
    F = Field(p, alpha)
    rng = random.Random(F.q)
    for vectors in _vector_sets(F, rng):
        H = Subspace(F, vectors)
        basis, pivots = reference_echelon(F, vectors)
        assert (H.basis, H.pivots) == (basis, pivots), vectors
        for x in range(F.q):
            assert H.reduce(x) == reference_reduce(F, basis, pivots, x), (vectors, x)
        # order and redundancy of the input do not matter
        assert Subspace(F, sorted(vectors, reverse=True) + list(basis)) == H


@pytest.mark.parametrize("p,alpha", prime_powers(2, 32) + [(7, 2)])
def test_superspaces_list_each_space_above_once(p, alpha):
    # against the span-and-dedup enumeration: every space over F_{p**m}
    # that holds H comes once, as its mask, with generators that span it
    # over F_p one per dimension
    F = Field(p, alpha)
    for m in (m for m in range(1, alpha + 1) if alpha % m == 0):
        spaces = all_subspaces(F, m)
        for H in spaces:
            listed = [(mask, Subspace(F, gens).cosets()[0], len(gens))
                      for mask, gens in aglstab.ffield.superspaces(H, m)]
            assert listed[0][0] == H.cosets()[0]
            above = sorted(W.cosets()[0] for W in spaces
                           if H.cosets()[0] & ~W.cosets()[0] == 0)
            assert sorted(mask for mask, _, _ in listed) == above, (m, H)
            assert all(mask == spanned and mask.bit_count() == p ** dim
                       for mask, spanned, dim in listed), (m, H)


def test_stabilizing_degree_is_memoized_per_basis(monkeypatch):
    F = Field(2, 6)
    H = span(F, (1, 2), 1)
    degree = H.stabilizing_degree()
    # the generator check reads membership; a memo hit reads none
    monkeypatch.setattr(Subspace, "contains",
                        lambda W, x: pytest.fail("stabilizer recomputed"))
    assert Subspace(F, H.basis[::-1]).stabilizing_degree() == degree
    assert H.stabilizing_degree() == degree


def test_field_checks_are_raises_not_asserts():
    # python -O strips assert statements; the checks must survive it
    for module in (aglstab.ffield, aglstab.agl, aglstab.numtheory,
                   aglstab.counting, aglstab.cli):
        assert assert_lines(module) == [], module.__name__


def _source_trees():
    src = Path(aglstab.ffield.__file__).parent
    return {path.name: (path.read_text(), ast.parse(path.read_text(),
                                                    str(path)))
            for path in sorted(src.glob("*.py"))}


def _span_of(tree, name):
    node = next(node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.name == name)
    return range(node.lineno, node.end_lineno + 1)


def test_subset_masks_and_the_map_scan_cap_have_one_home():
    trees = _source_trees()
    # designs reaches the mask format through ffield, not the engines
    for node in ast.walk(trees["designs.py"][1]):
        if isinstance(node, ast.Import):
            assert all("oracle" not in a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert "oracle" not in (node.module or "")
            assert all(a.name != "oracle" for a in node.names)
    helpers = ("subset_mask", "mask_elements", "mask_bits",
               "translate_masks", "_digit_steps")
    homes = {name: set() for name in helpers}
    for file, (_, tree) in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name in homes:
                homes[node.name].add(file)
    assert homes == {name: {"ffield.py"} for name in helpers}
    assert not [name for name in helpers if hasattr(aglstab.oracle, name)]
    # mask_elements is the one set-bit walk
    walk = _span_of(trees["ffield.py"][1], "mask_elements")
    for file, (text, _) in trees.items():
        for n, line in enumerate(text.splitlines(), 1):
            if "& -" in line:
                assert (file, n in walk) == ("ffield.py", True), (file, n)
    # the q cap of the map scans is read in check_map_scan alone
    gate = _span_of(trees["oracle.py"][1], "check_map_scan")
    for file, (_, tree) in trees.items():
        for node in ast.walk(tree):
            if "DEFAULT_STABILIZER_LIMIT" in (getattr(node, "id", None),
                                              getattr(node, "attr", None)):
                if isinstance(node.ctx, ast.Load):
                    assert (file, node.lineno in gate) == ("oracle.py",
                                                           True)
