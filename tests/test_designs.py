"""Orbit block designs, row codes, Johnson equality, A2 determinations."""

import ast
import inspect
import itertools
from types import SimpleNamespace

import pytest

from aglstab import designs, oracle
from aglstab.agl import class_representative
from aglstab.counting import ClassParams, class_shapes, count_N
from aglstab.designs import (CodeParams, DesignParams, IncidenceMatrix,
                             a2_determinations, blocks_as_text, design_record,
                             design_to_code, johnson_check, orbit_design)
from aglstab.ffield import make_field
from aglstab.oracle import (is_exact_stabilizer, orbit_union_masks,
                            subset_mask)

FIELDS = {}


def field(p, alpha):
    if (p, alpha) not in FIELDS:
        FIELDS[(p, alpha)] = make_field(p, alpha)
    return FIELDS[(p, alpha)]


def test_orbit_design_example_q7():
    F = field(7, 1)
    params, matrix = orbit_design(F, subset_mask([1, 2, 4]))
    assert params == DesignParams(v=7, b=14, r=6, k=3, lmbda=2)
    assert matrix.b == 14
    assert all(bin(blk).count("1") == 3 for blk in matrix.blocks)


def test_orbit_design_block_count_is_group_over_stabilizer():
    F = field(2, 3)
    for combo in [(0, 1), (1, 2, 4), (0, 1, 2, 3)]:
        from aglstab.oracle import stabilizer
        mask = subset_mask(combo)
        params, matrix = orbit_design(F, mask)
        assert params.b == F.q * (F.q - 1) // stabilizer(F, mask).order


def test_orbit_design_rejects_degenerate_subsets():
    F = field(7, 1)
    with pytest.raises(ValueError):
        orbit_design(F, subset_mask([3]))
    with pytest.raises(ValueError):
        orbit_design(F, 0)
    with pytest.raises(ValueError):
        orbit_design(F, subset_mask(range(7)))


def test_design_to_code_example():
    F = field(7, 1)
    _, matrix = orbit_design(F, subset_mask([1, 2, 4]))
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
    _, matrix = orbit_design(F, subset_mask([1, 2, 4]))
    assert len(matrix.rows) == 7
    for x, row in enumerate(matrix.rows):
        assert row.bit_count() == 6
        for j, blk in enumerate(matrix.blocks):
            assert (row >> j) & 1 == (blk >> x) & 1, (x, j)
    _, words = design_to_code(matrix)
    assert words[0] == "".join(str(blk & 1) for blk in matrix.blocks)


def test_design_to_code_rejects_unequal_row_weights():
    # point 1 lies in both blocks, points 0 and 2 in one each
    fake = IncidenceMatrix(v=3, blocks=(0b011, 0b110))
    with pytest.raises(ValueError, match="constant weight"):
        design_to_code(fake)


def test_orbit_design_checks_block_count_and_sizes(monkeypatch):
    F = field(7, 1)
    mask = subset_mask([1, 2, 4])
    # a stabilizer of order 1 claims 42 blocks; the orbit has 14
    monkeypatch.setattr(oracle, "stabilizer",
                        lambda field, mask: SimpleNamespace(order=1))
    with pytest.raises(ValueError, match="14 blocks"):
        orbit_design(F, mask)
    # order 6 claims 7 blocks; a multiplication that sends everything to 0
    # makes 7 one-point blocks
    monkeypatch.setattr(oracle, "stabilizer",
                        lambda field, mask: SimpleNamespace(order=6))
    broken = make_field(7, 1)
    monkeypatch.setattr(broken, "mul", lambda a, x: 0)
    with pytest.raises(ValueError, match="size k = 3"):
        orbit_design(broken, mask)


def test_design_checks_are_raises_not_asserts():
    # python -O strips assert statements; the checks must survive it
    for obj in (designs, oracle.full_census):
        tree = ast.parse(inspect.getsource(obj))
        assert not any(isinstance(node, ast.Assert)
                       for node in ast.walk(tree)), obj


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
    assert a2_determinations(F, 3, 3) == CodeParams(n=14, d=8, w=6, size=7)
    assert a2_determinations(F, 3, 2) == CodeParams(n=21, d=12, w=9, size=7)


def test_a2_determinations_rejects_impossible_orders():
    F = field(7, 1)
    with pytest.raises(ValueError):
        a2_determinations(F, 3, 5)       # 5 does not divide 42
    with pytest.raises(ValueError):
        a2_determinations(F, 3, 6)       # order-6 classes count 0 at k=3


def test_serialization_round_trip():
    F = field(7, 1)
    params, matrix = orbit_design(F, subset_mask([1, 2, 4]))
    code, words = design_to_code(matrix)
    text = blocks_as_text(matrix)
    lines = text.splitlines()
    assert len(lines) == 14
    assert lines[0] == ",".join(str(x) for x in matrix.block_elements(0))
    record = design_record(params, matrix, code, words)
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
            if not cp.congruence_ok or count_N(cp) == 0:
                continue
            mask = next(m for m in orbit_union_masks(S, k)
                        if is_exact_stabilizer(S, m))
            params, matrix = orbit_design(F, mask)
            assert params.v == q and params.k == k
            assert params.b == q * (q - 1) // S.order
            code, words = design_to_code(matrix)
            assert johnson_check(code)
            a2 = a2_determinations(F, k, S.order)
            assert (a2.n, a2.d, a2.w) == (params.b, code.d, params.r)
