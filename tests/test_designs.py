"""Orbit block designs, row codes, Johnson equality, A2 determinations."""

import itertools
import json
import random
from types import SimpleNamespace

import pytest

from aglstab import designs
from aglstab.agl import class_representative
from aglstab.counting import ClassParams, class_shapes, count_N
from aglstab.designs import (CodeParams, DesignParams, IncidenceMatrix,
                             a2_determinations, blocks_as_text, design_json,
                             design_to_code, johnson_check, orbit_design)
from aglstab.ffield import Field, mask_elements, subset_mask, translate_masks
from aglstab.oracle import exact_orbit_unions, stabilizer
from reference import (assert_lines, prime_powers, reference_incidence,
                       reference_orbit_blocks, trivial_subgroup)

FIELDS = {}


def field(p, alpha):
    if (p, alpha) not in FIELDS:
        FIELDS[(p, alpha)] = Field(p, alpha)
    return FIELDS[(p, alpha)]


def design_of(F, mask):
    """The orbit design of a subset, its stabilizer found by the scan."""
    return orbit_design(stabilizer(F, mask), mask)


def test_orbit_design_example_q7():
    F = field(7, 1)
    params, matrix = design_of(F, subset_mask([1, 2, 4]))
    assert params == DesignParams(v=7, b=14, r=6, k=3, lmbda=2)
    assert matrix.b == 14
    assert all(bin(blk).count("1") == 3 for blk in matrix.blocks)


def test_orbit_design_block_count_is_group_over_stabilizer():
    F = field(2, 3)
    for combo in [(0, 1), (1, 2, 4), (0, 1, 2, 3)]:
        mask = subset_mask(combo)
        S = stabilizer(F, mask)
        params, matrix = orbit_design(S, mask)
        assert params.b == F.q * (F.q - 1) // S.order


def test_orbit_design_rejects_degenerate_subsets():
    F = field(7, 1)
    with pytest.raises(ValueError):
        design_of(F, subset_mask([3]))
    with pytest.raises(ValueError):
        design_of(F, 0)
    with pytest.raises(ValueError):
        design_of(F, subset_mask(range(7)))


# prime q, p = 2 and odd prime powers: every shape of translate step
@pytest.mark.parametrize("p,alpha", [(7, 1), (2, 3), (3, 2), (2, 4), (5, 2),
                                     (3, 3), (2, 5), (7, 2)])
def test_orbit_design_blocks_equal_image_loop(p, alpha):
    F = field(p, alpha)
    rng = random.Random(F.q)
    for k in range(2, F.q):
        mask = subset_mask(rng.sample(range(F.q), k))
        _, matrix = design_of(F, mask)
        assert matrix.blocks == reference_orbit_blocks(F, mask), mask


@pytest.mark.parametrize("p,alpha", [(2, 4), (5, 2), (3, 3), (2, 5), (7, 2)])
def test_orbit_design_translates_each_multiplier_coset_once(p, alpha,
                                                            monkeypatch):
    # a*B is already a block iff a = a'*u for an earlier multiplier a' and
    # one of the d multipliers u of the stabilizer, so the translates are
    # built (q - 1)/d times and the blocks stay those of the image loop
    F = field(p, alpha)
    calls = []

    def counted(field, mask):
        calls.append(mask)
        return translate_masks(field, mask)

    monkeypatch.setattr(designs, "translate_masks", counted)
    rng = random.Random(F.q)
    cases = [(stabilizer(F, mask), mask) for mask in
             (subset_mask(rng.sample(range(F.q), k)) for k in (3, F.q // 2))]
    for d, i, j in class_shapes(p, alpha):
        S = class_representative(F, d, i, j)
        k = next((k for k in range(2, F.q)
                  if count_N(ClassParams(p, alpha, k, d, i, j))), None)
        if k is not None:
            cases.append((S, next(exact_orbit_unions(S, k))))
    for S, mask in cases:
        calls.clear()
        _, matrix = orbit_design(S, mask)
        assert len(calls) == (F.q - 1) // S.d, (S, mask)
        assert matrix.blocks == reference_orbit_blocks(F, mask), (S, mask)


def test_design_to_code_example():
    F = field(7, 1)
    _, matrix = design_of(F, subset_mask([1, 2, 4]))
    code, words = design_to_code(matrix)
    assert code == CodeParams(n=14, d=8, w=6, size=7)
    assert len(words) == 7
    assert all(len(w) == 14 and w.count("1") == 6 for w in words)
    # measured minimum distance is exactly 8
    dists = {sum(a != b for a, b in zip(w1, w2))
             for w1, w2 in itertools.combinations(words, 2)}
    assert min(dists) == 8


def test_incidence_rows_put_block_j_at_bit_j():
    F = field(7, 1)
    _, matrix = design_of(F, subset_mask([1, 2, 4]))
    assert len(matrix.rows) == 7
    for x, row in enumerate(matrix.rows):
        assert row.bit_count() == 6
        for j, blk in enumerate(matrix.blocks):
            assert (row >> j) & 1 == (blk >> x) & 1, (x, j)
    _, words = design_to_code(matrix)
    assert words[0] == "".join(str(blk & 1) for blk in matrix.blocks)


@pytest.mark.parametrize("p,alpha", prime_powers(3, 16))
def test_incidence_words_and_rows_equal_the_per_bit_reading(p, alpha):
    # every class witness of every size with a positive count
    F = field(p, alpha)
    for d, i, j in class_shapes(p, alpha):
        S = class_representative(F, d, i, j)
        for k in range(2, F.q):
            if count_N(ClassParams(p, alpha, k, d, i, j)):
                _, matrix = orbit_design(S, next(exact_orbit_unions(S, k)))
                assert (matrix.words, matrix.rows) == reference_incidence(
                    matrix), (d, i, j, k)


def test_incidence_matrix_rejects_a_point_outside_v():
    # a block's bit string longer than v would shift every later block
    fake = IncidenceMatrix(v=3, blocks=(0b011, 0b1100))
    with pytest.raises(ValueError, match=r"outside \[0, 3\)"):
        design_to_code(fake)


def test_design_to_code_rejects_unequal_row_weights():
    # point 1 lies in both blocks, points 0 and 2 in one each
    fake = IncidenceMatrix(v=3, blocks=(0b011, 0b110))
    with pytest.raises(ValueError, match="constant weight"):
        design_to_code(fake)


def test_orbit_design_checks_block_count_and_sizes(monkeypatch):
    F = field(7, 1)
    mask = subset_mask([1, 2, 4])
    # the trivial group, smaller than the true stabilizer of order 3,
    # claims 42 blocks; the orbit has 14
    with pytest.raises(ValueError, match="14 blocks"):
        orbit_design(trivial_subgroup(F), mask)
    # order 6 claims 7 blocks; a multiplication that sends everything to 0
    # makes 7 one-point blocks
    broken = Field(7, 1)
    monkeypatch.setattr(broken, "mul", lambda a, x: 0)
    with pytest.raises(ValueError, match="size k = 3"):
        orbit_design(SimpleNamespace(field=broken, order=6), mask)


def test_design_checks_are_raises_not_asserts():
    # python -O strips assert statements; the checks must survive it
    assert assert_lines(designs) == []


def test_design_to_code_rejects_duplicate_rows():
    # two identical points: blocks always contain both or neither
    fake = IncidenceMatrix(v=2, blocks=(0b11, 0b11))
    with pytest.raises(ValueError):
        design_to_code(fake)


def test_johnson_check():
    assert johnson_check(CodeParams(n=14, d=8, w=6, size=7))
    assert not johnson_check(CodeParams(n=14, d=8, w=6, size=6))
    with pytest.raises(ValueError):
        johnson_check(CodeParams(n=10, d=2, w=3, size=2))  # denominator <= 0


def test_a2_determinations_examples():
    F = field(7, 1)
    assert (a2_determinations(class_representative(F, 3, 1, 0), 3)
            == CodeParams(n=14, d=8, w=6, size=7))
    assert (a2_determinations(class_representative(F, 2, 1, 0), 3)
            == CodeParams(n=21, d=12, w=9, size=7))


def test_a2_determinations_rejects_impossible_orders():
    F = field(7, 1)
    with pytest.raises(ValueError, match="no 3-subset"):
        a2_determinations(class_representative(F, 6, 1, 0), 3)
    with pytest.raises(ValueError, match="no 3-subset"):
        a2_determinations(trivial_subgroup(F), 3)   # the (7, 3, 1) zero


def test_a2_determinations_checks_the_class_not_only_the_order():
    # at q = 16, k = 4 the order-4 class (1, 1, 2) counts 4 and the
    # order-4 class (1, 2, 1) (an F_4-line of translations) counts 0
    F = field(2, 4)
    a2 = a2_determinations(class_representative(F, 1, 1, 2), 4)
    assert a2 == CodeParams(n=60, d=24, w=15, size=16)
    with pytest.raises(ValueError, match=r"\(1, 2, 1\) of order 4"):
        a2_determinations(class_representative(F, 1, 2, 1), 4)


def test_serialization_round_trip():
    F = field(7, 1)
    params, matrix = design_of(F, subset_mask([1, 2, 4]))
    code, words = design_to_code(matrix)
    text = blocks_as_text(matrix)
    lines = text.splitlines()
    assert len(lines) == 14
    assert lines[0] == ",".join(map(str, mask_elements(matrix.blocks[0])))
    record = json.loads(design_json(params, matrix, code, words))
    assert record["params"]["lambda"] == 2
    assert record["code"] == {"n": 14, "d": 8, "w": 6, "size": 7}
    assert len(record["blocks"]) == 14


@pytest.mark.parametrize("p,alpha", [(5, 1), (7, 1), (2, 3), (3, 2), (11, 1)])
def test_orbit_designs_from_witnesses_pass_all_checks(p, alpha):
    """Every class with a positive count and 2 <= k <= q/2 yields a design
    satisfying the axioms and Johnson equality."""
    F = field(p, alpha)
    q = F.q
    for d, i, j in class_shapes(p, alpha):
        S = class_representative(F, d, i, j)
        for k in range(2, q // 2 + 1):
            cp = ClassParams(p, alpha, k, d, i, j)
            if cp.congruence_violation(k) is not None or count_N(cp) == 0:
                continue
            mask = next(exact_orbit_unions(S, k))
            params, matrix = orbit_design(S, mask)
            assert params.v == q and params.k == k
            assert params.b == q * (q - 1) // S.order
            code, words = design_to_code(matrix)
            assert johnson_check(code)
            a2 = a2_determinations(S, k)
            assert (a2.n, a2.d, a2.w) == (params.b, code.d, params.r)
