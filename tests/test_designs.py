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
                             a2_determinations, block_lines, blocks_as_text,
                             design_json, design_to_code, johnson_check,
                             johnson_fraction, orbit_design)
from aglstab.ffield import Field, mask_elements, subset_mask, translate_masks
from aglstab.numtheory import BudgetExceededError, prime_power
from aglstab.oracle import exact_orbit_unions, stabilizer
from reference import (assert_lines, prime_powers, reference_bits,
                       reference_block_lines, reference_design_json,
                       reference_incidence, reference_orbit_blocks,
                       trivial_subgroup)

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


def test_orbit_design_refuses_past_the_size_budget_before_building(
        monkeypatch):
    # {0, 1, 2} would not do: x -> 2 - x fixes it
    F = Field(131, 1)
    mask = subset_mask([0, 1, 3])
    S = stabilizer(F, mask)
    assert S.order == 1

    def forbidden(*args):
        raise AssertionError("a block was built past the size budget")

    monkeypatch.setattr(designs, "translate_masks", forbidden)
    with pytest.raises(BudgetExceededError) as info:
        orbit_design(S, mask)
    assert str(info.value) == (
        "the design has 17030 blocks of 131 points, 2230930 codeword bits, "
        "over the limit of 2097152")


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
    # the blocks are read end to end, so a bit at v or past it, or the
    # unbounded bits of a negative block, would pass into the next block
    for blocks in [(0b011, 0b1100), (0b011, -0b101, 0b110),
                   (0b011, 0b1101, 0b110)]:
        fake = IncidenceMatrix(v=3, blocks=blocks)
        with pytest.raises(ValueError, match=r"outside \[0, 3\)"):
            design_to_code(fake)
        with pytest.raises(ValueError, match=r"outside \[0, 3\)"):
            block_lines(fake, ",")


#: (q, k, d, b): a seeded k-subset when d is None, else the witness of the
#: first class with that d; v % 8 is 7, 1, 3 and 0, b is odd (the fold
#: pads its first level) or a power of two (it pads none), and v > 256
#: needs more than 32 byte tables
REFERENCE_WRITER_CASES = [(7, 3, None, 21), (9, 4, None, 36),
                          (11, 5, None, 110), (8, 7, 7, 8),
                          (31, 4, None, 930), (7, 3, 3, 14),
                          (257, 256, 256, 257), (1024, 1023, 1023, 1024)]


@pytest.mark.parametrize("q,k,d,b", REFERENCE_WRITER_CASES)
def test_writers_equal_the_reference_writer(q, k, d, b):
    p, alpha = prime_power(q)
    F = field(p, alpha)
    if d is None:
        mask = subset_mask(random.Random(q).sample(range(q), k))
        S = stabilizer(F, mask)
    else:
        S = class_representative(F, *next(shape for shape in
                                          class_shapes(p, alpha)
                                          if shape[0] == d))
        mask = next(exact_orbit_unions(S, k))
    params, matrix = orbit_design(S, mask)
    assert (params.v, params.b) == (q, b)
    code, words = design_to_code(matrix)
    assert matrix.bits == reference_bits(matrix)
    assert (matrix.words, matrix.rows) == reference_incidence(matrix)
    for sep in (",", ",\n      "):
        assert block_lines(matrix, sep) == reference_block_lines(matrix, sep)
    assert (blocks_as_text(matrix)
            == "\n".join(reference_block_lines(matrix, ",")))
    extra = {"q": q, "subset": list(mask_elements(mask))}
    assert ("".join(design_json(params, matrix, code, words, **extra))
            == reference_design_json(params, matrix, code, words, **extra))


def test_design_to_code_rejects_unequal_row_weights():
    # point 1 lies in both blocks, points 0 and 2 in one each
    fake = IncidenceMatrix(v=3, blocks=(0b011, 0b110))
    with pytest.raises(ValueError, match="constant weight"):
        design_to_code(fake)


def test_design_to_code_rejects_an_uneven_last_row_pair():
    # four distinct rows of weight 3; every pair meets once but the last,
    # rows 2 and 3, which meet in blocks 4 and 5
    fake = IncidenceMatrix(v=4, blocks=(0b0010, 0b0011, 0b0101, 0b1001,
                                        0b1100, 0b1110))
    assert [row.bit_count() for row in fake.rows] == [3] * 4
    assert (fake.rows[2] & fake.rows[3]).bit_count() == 2
    with pytest.raises(ValueError, match="row pairs do not meet a constant "
                                         "number of times"):
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
    assert johnson_fraction(CodeParams(n=14, d=8, w=6, size=7)) == (56, 8)
    assert johnson_check(CodeParams(n=14, d=8, w=6, size=7))
    assert not johnson_check(CodeParams(n=14, d=8, w=6, size=6))
    # the q = 37, k = 10 design of test_cli, with |S| = 1
    code = CodeParams(n=1332, d=540, w=360, size=37)
    assert johnson_fraction(code) == (359640, 9720)
    assert johnson_check(code)
    for refused in (johnson_fraction, johnson_check):
        with pytest.raises(ValueError, match="= -11 <= 0: the bound does "
                                             "not apply$"):
            refused(CodeParams(n=10, d=2, w=3, size=2))


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
    record = json.loads("".join(design_json(params, matrix, code, words)))
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
            # the distance derived from r and lambda is the measured one
            assert min((x ^ y).bit_count() for x, y in
                       itertools.combinations(matrix.rows, 2)) == code.d
            a2 = a2_determinations(S, k)
            assert (a2.n, a2.d, a2.w) == (params.b, code.d, params.r)
