"""Orbit block designs and the constant-weight codes they generate.

The affine maps act 2-transitively on F_q, so the orbit of any subset B
with 2 <= |B| < q is the block set of a balanced incomplete block design
on q points.  Reading the rows of its incidence matrix as binary words
gives a constant-weight code of length b, weight r and minimum distance
2*(r - lambda) that meets the restricted Johnson bound, whose one home
is ``johnson_fraction``, with equality; ``a2_determinations`` turns a
positive class count into the exact value A2(q(q-1)/s, 2k(q-k)/s,
k(q-1)/s) = q, where s is the stabilizer order.

Subsets and blocks are int masks over the points, in the format of
:mod:`aglstab.ffield`.  The blocks are the q translates of a*B for each
multiplier a, read from ``ffield.translate_masks``, which also drives the
stabilizer scan.  The blocks are folded into one int and written by one
``format`` as their bit strings end to end (``IncidenceMatrix.bits``),
and the codewords are its columns, made by one transpose: character j
of word x is ``1`` iff point x lies in block j, and each incidence row
is the int read from its word.
``check_design_size`` holds a design's preconditions: b*q codeword bits
at most MAX_DESIGN_BITS, then 2 <= |B| < q.  ``orbit_design`` runs it,
takes the stabilizer of B as given and checks the block count against
it and the block sizes; ``design_to_code`` makes the only pass over the
row pairs, one popcount of x & y each, where constant row weights and
constant pair meets certify r and lambda (counting incidences twice
gives r*v = b*k and lambda*v*(v-1) = b*k*(k-1)).  Rows x, y of weight r
then lie |x ^ y| = 2r - 2|x & y| = 2(r - lambda) apart, so the minimum
distance is derived from the measured weight and meets.

The text, csv and json forms write each block from its int, one byte
at a time through tables of 256 pieces (``block_lines``), so no element
of a block passes through Python one at a time; ``design_json`` hands
back the json form as pieces whose join is byte for byte what
``json.dump(record, indent=2, sort_keys=True)`` would write.
"""

from __future__ import annotations

import itertools
import json
import operator
from dataclasses import dataclass
from functools import cached_property

from .agl import Subgroup
from .counting import ClassParams, count_N
from .ffield import mask_elements, subset_mask, translate_masks
from .numtheory import BudgetExceededError

#: most codeword bits (b*q) of one design; the slowest design measured
#: under it, q = 128 with |S| = 1 and k = 120 (2,080,768 bits), takes
#: about 0.14 s in-process for its 22 MB of json and 0.08 s for its text
#: or csv on a 2-vCPU host (0.28 s and 61 MiB peak RSS for the json as a
#: whole process)
MAX_DESIGN_BITS = 1 << 21


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

    def check_points(self) -> None:
        """Raise unless every block lies in [0, v): ``bits`` and
        ``block_lines`` read the blocks end to end, where a stray bit
        would pass silently into the next block."""
        if self.blocks and (min(self.blocks) < 0
                            or max(self.blocks) >> self.v):
            raise ValueError(f"a block has a point outside [0, {self.v})")

    @property
    def bits(self) -> str:
        """The blocks end to end, each as v characters least significant
        first: character j*v + x is 1 iff point x lies in block j.  The
        blocks are folded pairwise into one int, ``lo | hi << width`` with
        the width doubling on each level, and written by one ``format``.
        It is built on each read and not kept: ``words`` reads it once."""
        self.check_points()
        if not self.blocks:
            return ""
        level, width = list(self.blocks), self.v
        while len(level) > 1:
            if len(level) % 2:
                level.append(0)
            level = list(map(operator.or_, level[::2],
                             map(operator.lshift, level[1::2],
                                 itertools.repeat(width))))
            width *= 2
        return format(level[0], f"0{self.b * self.v}b")[::-1]

    @cached_property
    def words(self) -> tuple[str, ...]:
        """Row x as a 0/1 string: character j is 1 iff point x lies in
        block j.  Read as a b x v array, ``bits`` is transposed by one
        strided slice per row."""
        bits, v = self.bits, self.v
        return tuple(bits[x::v] for x in range(v))

    @cached_property
    def rows(self) -> tuple[int, ...]:
        """Row x as an int: bit j is set iff point x lies in block j."""
        return tuple(int(word[::-1], 2) for word in self.words)


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


def check_design_size(q: int, order: int, k: int) -> int:
    """Check an orbit design of k-subsets of F_q with stabilizer order
    ``order`` before it is built: its b = q(q-1)/order blocks hold at most
    MAX_DESIGN_BITS codeword bits, then 2 <= k < q.  Returns b."""
    b = q * (q - 1) // order
    if b * q > MAX_DESIGN_BITS:
        raise BudgetExceededError(
            f"the design has {b} blocks of {q} points, {b * q} codeword "
            f"bits, over the limit of {MAX_DESIGN_BITS}")
    if k < 2:
        raise ValueError("orbit designs need at least 2 points in the base subset")
    if k >= q:
        raise ValueError("the full point set gives a degenerate single-block orbit")
    return b


def orbit_design(S: Subgroup, mask: int) -> tuple[DesignParams, IncidenceMatrix]:
    """The block design whose blocks are the images of the masked subset
    under all affine maps, where S is the subset's stabilizer.

    ``check_design_size`` runs first.  The images of B under the maps
    with multiplier a are the q translates of a*B, which
    ``ffield.translate_masks`` returns as (a*B) - z for every z.  Where
    a*B is already a block, so is each of its translates, and a is
    skipped: the translates are built once for each of the (q-1)/d
    cosets of the multipliers of the stabilizer.  The orbit must have
    q(q-1)/|S| blocks, so an S smaller than the true stabilizer raises.
    """
    field, v, k = S.field, S.field.q, mask.bit_count()
    b = check_design_size(v, S.order, k)
    blocks = set()
    mul = field.mul
    elems = mask_elements(mask)
    for a in range(1, v):
        image = subset_mask(mul(a, x) for x in elems)
        if image not in blocks:
            blocks.update(translate_masks(field, image))
    if len(blocks) != b:
        raise ValueError(f"the orbit has {len(blocks)} blocks, but the "
                         f"stabilizer order {S.order} gives b = {b}")
    if set(map(int.bit_count, blocks)) != {k}:
        raise ValueError(f"an orbit block does not have size k = {k}")
    params = DesignParams(v, b, k * b // v, k,
                          k * (k - 1) * b // (v * (v - 1)))
    return params, IncidenceMatrix(v, tuple(sorted(blocks)))


def design_to_code(matrix: IncidenceMatrix) -> tuple[CodeParams, tuple[str, ...]]:
    """The rows of the incidence matrix as binary codewords.

    Recomputes (r, lambda) from the matrix: every row has weight r and
    every row pair meets lambda times, so every pair lies 2*(r - lambda)
    apart, and lambda = r would be two identical rows.
    """
    if matrix.v < 2:
        raise ValueError("need at least two rows to speak of a distance")
    rows = matrix.rows
    weights = {row.bit_count() for row in rows}
    if len(weights) != 1:
        raise ValueError("rows are not constant weight")
    r = weights.pop()
    meets = {(ra & rb).bit_count()
             for ra, rb in itertools.combinations(rows, 2)}
    if len(meets) != 1:
        raise ValueError("row pairs do not meet a constant number of times")
    lmbda = meets.pop()
    if lmbda == r:
        raise ValueError("two identical rows: not a block design matrix")
    code = CodeParams(n=matrix.b, d=2 * (r - lmbda), w=r, size=matrix.v)
    return code, matrix.words


def johnson_fraction(code: CodeParams) -> tuple[int, int]:
    """(n*delta, w**2 - n*w + n*delta), delta = d/2: the restricted
    Johnson bound on the code size as a numerator and a denominator.
    Raises where the denominator is <= 0 and the bound does not apply."""
    n, w, delta = code.n, code.w, code.d // 2
    denom = w * w - n * w + n * delta
    if denom <= 0:
        raise ValueError(
            f"w^2 - n*w + n*delta = {denom} <= 0: the bound does not apply")
    return n * delta, denom


def johnson_check(code: CodeParams) -> bool:
    """True iff the code size meets ``johnson_fraction`` with equality."""
    num, denom = johnson_fraction(code)
    return code.size * denom == num


def a2_determinations(S: Subgroup, k: int) -> CodeParams:
    """The exact constant-weight code value certified by the class of S
    when its count at size k is positive, with s = |S|:
    A2(q(q-1)/s, 2k(q-k)/s, k(q-1)/s) = q."""
    field, s, shape = S.field, S.order, S.shape()
    q = field.q
    if count_N(ClassParams(field.p, field.alpha, k, *shape)) == 0:
        raise ValueError(f"the class (d, i, j) = {shape} of order {s} "
                         f"is the stabilizer of no {k}-subset")
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


def block_lines(matrix: IncidenceMatrix, sep: str) -> list[str]:
    """Each block's sorted elements joined by ``sep``, one string per
    block.  Byte t of a block is looked up in a table of 256 strings,
    entry c holding ``sep`` followed by x for each point x = 8t + i whose
    bit i is set in c, in ascending order; a block is the join of its
    bytes' entries, so it is one C-level pass.  The tables are built by
    doubling, one point at a time, and the last covers only the points
    below v."""
    matrix.check_points()
    v = matrix.v
    tables = []
    for start in range(0, v, 8):
        table = [""]
        for x in range(start, min(start + 8, v)):
            piece = f"{sep}{x}"
            table += [s + piece for s in table]
        tables.append(table)
    nbytes, drop = len(tables), len(sep)
    return ["".join(map(operator.getitem, tables,
                        blk.to_bytes(nbytes, "little")))[drop:]
            for blk in matrix.blocks]


def blocks_as_text(matrix: IncidenceMatrix) -> str:
    """One block per line, as sorted comma-separated element indices."""
    return "\n".join(block_lines(matrix, ","))


def design_json(params: DesignParams, matrix: IncidenceMatrix,
                code: CodeParams, codewords: tuple[str, ...],
                **extra) -> list[str]:
    """The json form of a design, its row code and the further top-level
    keys in ``extra``, as pieces in order: their join is the text of
    ``json.dumps(record, indent=2, sort_keys=True)`` of their record,
    with no trailing newline, and a writer takes them one by one, never
    the whole text at once.

    The blocks and the codewords, which are nearly all of the text, are
    one piece each, one join at the indent that ``json`` gives them: the
    blocks from ``block_lines`` as a list of lists of ints two levels
    deep, the codewords as a list of strings one level deep, which need
    no escaping as they are 0/1 strings.  The blocks, each block and the
    codewords are non-empty, as ``orbit_design`` and ``design_to_code``
    make them.  Every other value is encoded on its own and moved one
    level in by indenting each of its lines.  That is sound because
    ``json`` escapes every control character inside a string, so each
    raw newline of its output is a line break of the layout.  The keys
    are written in sorted order, as ``sort_keys`` does.
    """
    values = {
        "params": {"v": params.v, "b": params.b, "r": params.r,
                   "k": params.k, "lambda": params.lmbda},
        "code": {"n": code.n, "d": code.d, "w": code.w, "size": code.size},
        **extra,
    }
    encoded = {key: [json.dumps(value, indent=2, sort_keys=True)
                     .replace("\n", "\n  ")]
               for key, value in values.items()}
    encoded["codewords"] = ['[\n    "', '",\n    "'.join(codewords),
                            '"\n  ]']
    encoded["blocks"] = ["[\n    [\n      ",
                         "\n    ],\n    [\n      ".join(
                             block_lines(matrix, ",\n      ")),
                         "\n    ]\n  ]"]
    pieces = []
    for key in sorted(encoded):
        pieces += [",\n  " if pieces else "{\n  ", json.dumps(key), ": ",
                   *encoded[key]]
    return pieces + ["\n}"]
