"""Orbit block designs and the constant-weight codes they generate.

The affine maps act 2-transitively on F_q, so the orbit of any subset B
with 2 <= |B| < q is the block set of a balanced incomplete block design
on q points.  Reading the rows of its incidence matrix as binary words
gives a constant-weight code of length b, weight r and minimum distance
2*(r - lambda) that meets the restricted Johnson bound with equality;
``a2_determinations`` turns a positive stabilizer-class count into the
resulting exact value A2(q(q-1)/s, 2k(q-k)/s, k(q-1)/s) = q, where s is
the stabilizer order.

Subsets and blocks are int masks over the points.  The blocks are the q
translates of a*B for each multiplier a, taken from the translate-mask
kernel of :mod:`aglstab.oracle` that also drives the stabilizer scan.
Each incidence row is one int whose bit j is set when the point lies in
block j.  ``orbit_design`` checks the block count and the block sizes;
``design_to_code`` makes the only pass over the row pairs, where constant
row weights and constant pair meets certify r and lambda (counting
incidences twice gives r*v = b*k and lambda*v*(v-1) = b*k*(k-1)), and
the minimum distance is measured, not derived.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

from . import oracle
from .counting import ClassParams, class_shapes, count_N
from .ffield import Field


@dataclass(frozen=True)
class DesignParams:
    """BIBD parameters (v, b, r, k, lambda)."""

    v: int
    b: int
    r: int
    k: int
    lmbda: int

    def __post_init__(self) -> None:
        if not 2 <= self.k <= self.v:
            raise ValueError(f"k must lie in [2, v], got k={self.k}, v={self.v}")
        if min(self.v, self.b, self.r, self.lmbda) < 1:
            raise ValueError("design parameters must be positive")
        if self.b * self.k != self.v * self.r:
            raise ValueError("parameters violate b*k = v*r")
        if self.r * (self.k - 1) != self.lmbda * (self.v - 1):
            raise ValueError("parameters violate r*(k-1) = lambda*(v-1)")


@dataclass(frozen=True)
class IncidenceMatrix:
    """v x b point-block incidence matrix; column j is the bitmask of
    block j over the points, columns sorted ascending."""

    v: int
    blocks: tuple[int, ...]

    @property
    def b(self) -> int:
        return len(self.blocks)

    @cached_property
    def rows(self) -> tuple[int, ...]:
        """Row x as an int: bit j is set iff point x lies in block j."""
        rows = [0] * self.v
        for j, blk in enumerate(self.blocks):
            bit = 1 << j
            while blk:
                low = blk & -blk
                rows[low.bit_length() - 1] |= bit
                blk ^= low
        return tuple(rows)

    def block_elements(self, j: int) -> tuple[int, ...]:
        return oracle.mask_elements(self.blocks[j])


@dataclass(frozen=True)
class CodeParams:
    """Constant-weight code data: length n, minimum distance d (even),
    weight w, and number of codewords."""

    n: int
    d: int
    w: int
    size: int

    def __post_init__(self) -> None:
        if self.d % 2 or self.d <= 0:
            raise ValueError(f"minimum distance must be a positive even "
                             f"integer, got {self.d}")


def orbit_design(field: Field, mask: int) -> tuple[DesignParams, IncidenceMatrix]:
    """The block design whose blocks are the images of the masked subset
    under all affine maps, with parameters from the stabilizer order.

    The images of B under the maps with multiplier a are the q
    translates of a*B, which ``oracle.translate_masks`` returns as
    (a*B) - z for every z.
    """
    k = mask.bit_count()
    if k < 2:
        raise ValueError("orbit designs need at least 2 points in the base subset")
    if k >= field.q:
        raise ValueError("the full point set gives a degenerate single-block orbit")
    stab = oracle.stabilizer(field, mask)
    group_order = field.q * (field.q - 1)
    b = group_order // stab.order
    blocks = set()
    mul = field.mul
    elems = oracle.mask_elements(mask)
    for a in range(1, field.q):
        blocks.update(oracle.translate_masks(
            field, oracle.subset_mask(mul(a, x) for x in elems)))
    if len(blocks) != b:
        raise ValueError(f"the orbit has {len(blocks)} blocks, but the "
                         f"stabilizer order {stab.order} gives b = {b}")
    if any(blk.bit_count() != k for blk in blocks):
        raise ValueError(f"an orbit block does not have size k = {k}")
    v = field.q
    params = DesignParams(v, b, k * b // v, k,
                          k * (k - 1) * b // (v * (v - 1)))
    return params, IncidenceMatrix(v, tuple(sorted(blocks)))


def design_to_code(matrix: IncidenceMatrix) -> tuple[CodeParams, tuple[str, ...]]:
    """The rows of the incidence matrix as binary codewords.

    Recomputes (r, lambda) from the matrix, measures the exact minimum
    pairwise Hamming distance, and insists it equals 2*(r - lambda).
    """
    if matrix.v < 2:
        raise ValueError("need at least two rows to speak of a distance")
    rows = matrix.rows
    weights = {row.bit_count() for row in rows}
    if len(weights) != 1:
        raise ValueError("rows are not constant weight")
    r = weights.pop()
    meets = set()
    mindist = matrix.b
    for ra, rb in itertools.combinations(rows, 2):
        meets.add((ra & rb).bit_count())
        mindist = min(mindist, (ra ^ rb).bit_count())
    if len(meets) != 1:
        raise ValueError("row pairs do not meet a constant number of times")
    lmbda = meets.pop()
    if mindist == 0:
        raise ValueError("two identical rows: not a block design matrix")
    delta = r - lmbda
    if mindist != 2 * delta:
        raise ValueError(f"minimum distance {mindist} differs from "
                         f"2*(r - lambda) = {2 * delta}")
    code = CodeParams(n=matrix.b, d=2 * delta, w=r, size=matrix.v)
    words = tuple(format(row, f"0{matrix.b}b")[::-1] for row in rows)
    return code, words


def johnson_check(code: CodeParams) -> bool:
    """True iff the code size meets the restricted Johnson bound with
    equality: size * (w**2 - n*w + n*delta) == n*delta, delta = d/2."""
    n, w, delta = code.n, code.w, code.d // 2
    denom = w * w - n * w + n * delta
    if denom <= 0:
        raise ValueError(
            f"w^2 - n*w + n*delta = {denom} <= 0: the bound does not apply")
    return code.size * denom == n * delta


def a2_determinations(field: Field, k: int, s: int) -> CodeParams:
    """The exact constant-weight code value certified by a stabilizer class
    of order s whose count at size k is positive:
    A2(q(q-1)/s, 2k(q-k)/s, k(q-1)/s) = q."""
    p, alpha, q = field.p, field.alpha, field.q
    if s < 1 or (q * (q - 1)) % s:
        raise ValueError(f"no subgroup of order {s}: it must divide q(q-1)")
    witness = None
    for d, i, j in class_shapes(p, alpha):
        cp = ClassParams(p, alpha, k, d, i, j)
        if cp.group_order == s and count_N(cp) > 0:
            witness = cp
            break
    if witness is None:
        raise ValueError(
            f"no stabilizer class of order {s} fixes exactly a {k}-subset")
    args = (q * (q - 1), 2 * k * (q - k), k * (q - 1))
    vals = []
    for num in args:
        quot, rem = divmod(num, s)
        if rem:
            raise ValueError(f"{num}/{s} is not an integer")
        vals.append(quot)
    return CodeParams(n=vals[0], d=vals[1], w=vals[2], size=q)


# ---------------------------------------------------------------------------
# serialization


def blocks_as_text(matrix: IncidenceMatrix) -> str:
    """One block per line, as sorted comma-separated element indices."""
    return "\n".join(",".join(str(x) for x in matrix.block_elements(j))
                     for j in range(matrix.b))


def design_record(params: DesignParams, matrix: IncidenceMatrix,
                  code: CodeParams, codewords: tuple[str, ...]) -> dict:
    """JSON-able record of a design and its row code."""
    return {
        "params": {"v": params.v, "b": params.b, "r": params.r,
                   "k": params.k, "lambda": params.lmbda},
        "blocks": [list(matrix.block_elements(j)) for j in range(matrix.b)],
        "code": {"n": code.n, "d": code.d, "w": code.w, "size": code.size},
        "codewords": list(codewords),
    }

