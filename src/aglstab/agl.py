"""The group of affine maps x -> a*x + b on F_q and its subgroup lattice.

A map is the int pair (a, b) with a != 0, and a subset is an int mask
(see :mod:`aglstab.ffield`), the orbits of a subgroup included; the
module keeps no map objects.  Every subgroup is ``S(a, b, H)``: the
group generated by one map (a, b) together with the translations by an
F_p-subspace H that is closed under multiplication by F_p(a).  The
canonical descriptor fixes a = gamma**((q-1)/d) for the divisor
d = o(a) of q - 1, and reduces b to the least element of its coset
b + H (with b = 0 forced when d = 1).  Two descriptors are equal iff the
subgroups are equal, so lattice walks never need element sets.

Each descriptor keeps ``odp`` = o_d(p): a lies in F_{p**odp}, and H is a
space over it.  For d > 1, ``fixed_point`` computes c = b/(1 - a) on
call.  Containment is read off descriptors: T contains S iff d_S | d_T,
H_S lies in H_T, and, when d_S > 1, the fixed point of S lies in c_T +
H_T; ``oracle.overgroup_census`` lists the overgroups this way.

``immediate_supergroups`` (the atoms above S, each line the ``span`` of
H and one coset leader) and ``join_pair`` (the group two subgroups
generate) serve no library route: they stay for perfbench's wrap list
until ROADMAP item 24, and the tests' theory-free lattice walk uses them.
"""

from __future__ import annotations

import functools
import math
from collections import Counter

from .ffield import Field, Subspace, mask_elements, span
from .numtheory import check_divisor, check_shape, prime_set


class Subgroup:
    """Canonical descriptor of <(gamma**((q-1)/d), b)> x| H-translations.

    Invariants: d divides q - 1; H is closed under F_{p**odp}; b is the
    least element of its coset b + H, and 0 when d = 1.  The group order
    is d * |H|.
    """

    def __init__(self, field: Field, d: int, b: int, translations: Subspace):
        if translations.field != field:
            raise ValueError("translation subspace lives in a different field")
        odp = check_divisor(field.p, field.alpha, d)
        if translations.stabilizing_degree() % odp:
            raise ValueError(
                f"translations must be closed under F_{{p^{odp}}} for d = {d}")
        if not 0 <= b < field.q:
            raise ValueError(f"b must be a field element, got {b}")
        b = translations.reduce(b)
        if d == 1 and b != 0:
            raise ValueError("a pure translation group must have b = 0")
        self.field = field
        self.d = d
        self.odp = odp
        self.b = b
        self.H = translations
        self.a = field.pow(field.gamma, (field.q - 1) // d)
        self.order = d * translations.size
        self._orbits: tuple[int, ...] | None = None
        #: N(S, k) for k = 0..q, filled by ``oracle.bruteforce_counts``
        self._bruteforce_counts: tuple[int, ...] | None = None
        #: N(S, k) for k = 0..q, filled by ``oracle.lattice_counts``
        self._lattice_counts: tuple[int, ...] | None = None

    # -- basic queries -------------------------------------------------------

    def shape(self) -> tuple[int, int, int]:
        """The class triple (d, i, j) of this subgroup."""
        i = self.H.stabilizing_degree() // self.odp
        beta = self.H.dim
        j, rem = divmod(beta, self.odp * i)
        if rem:
            raise RuntimeError(f"dim H = {beta} is not a multiple of "
                               f"o_d(p)*i = {self.odp * i}")
        return (self.d, i, j)

    # -- orbits ---------------------------------------------------------------

    def orbits(self) -> tuple[int, ...]:
        """The orbits on the field elements as int masks, listed by least
        element x, where its walk starts: each step ORs in the mask of
        the coset y + H (``H.cosets``, keyed by y's leader from
        ``H.leaders``, so no step reduces) and moves y to a*y + b, until
        y falls back into the orbit."""
        if self._orbits is None:
            field, a, b = self.field, self.a, self.b
            cosets, leaders = self.H.cosets(), self.H.leaders()
            orbs = []
            seen = 0
            for x in range(field.q):
                if seen >> x & 1:
                    continue
                orbit, y = 0, x
                while not orbit >> y & 1:
                    orbit |= cosets[leaders[y]]
                    y = field.add(field.mul(a, y), b)
                if orbit.bit_count() not in (self.H.size, self.order):
                    raise RuntimeError(f"an orbit of size {orbit.bit_count()} "
                                       f"in a group of order {self.order}")
                seen |= orbit
                orbs.append(orbit)
            sizes = Counter(o.bit_count() for o in orbs)
            if ((self.d > 1 and sizes[self.H.size] != 1)
                    or sum(n * s for s, n in sizes.items()) != field.q):
                raise RuntimeError(f"orbit sizes {dict(sizes)} do not cover "
                                   f"F_{field.q} with a fixed coset of H")
            self._orbits = tuple(orbs)
        return self._orbits

    # -- identity --------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (isinstance(other, Subgroup) and self.field == other.field
                and self.d == other.d and self.b == other.b
                and self.H == other.H)

    def __hash__(self) -> int:
        return hash((self.field, self.d, self.b, self.H.basis))

    def __repr__(self) -> str:
        return f"Subgroup(q={self.field.q}, d={self.d}, b={self.b}, |H|={self.H.size})"


# ---------------------------------------------------------------------------
# constructors


def subgroup_from_masks(field: Field, masks: dict[int, int]) -> Subgroup:
    """Canonical descriptor for a subgroup given as {a: mask of the b
    with (a, b) in it}, one entry per multiplier a that it holds."""
    h_els = mask_elements(masks.get(1, 0))
    H = Subspace(field, h_els)
    if H.size != len(h_els):
        raise ValueError(f"the {len(h_els)} translations do not form a subspace")
    n = sum(m.bit_count() for m in masks.values())
    d, rem = divmod(n, len(h_els))
    # the generator's b form one coset b + H: any of them reduces alike
    a0_mask = masks.get(field.pow(field.gamma, (field.q - 1) // d), 0)
    if rem or (field.q - 1) % d or not a0_mask:
        raise ValueError(f"{n} maps over {len(h_els)} translations do not "
                         f"form a subgroup")
    return Subgroup(field, d, a0_mask.bit_length() - 1, H)


# ---------------------------------------------------------------------------
# lattice steps


# kept for perfbench's wrap list (spans.FUNCTIONS) until ROADMAP item 24
def immediate_supergroups(S: Subgroup) -> list[Subgroup]:
    """The minimal elements above S in the subgroup lattice.

    Requires b = 0 (conjugate first).  The multiplicative part grows by
    a prime e | (|H'| - 1)/d, or H grows by a line of F_q/H over
    F_{p**o_d(p)} (F_p when d = 1).  A pure translation group (d = 1)
    takes its new map of order e about each coset of H; for d > 1 the
    fixed point stays at 0.  Each line is the span of H and a nonzero
    coset leader r, built once, in the order of its first r: the leaders
    of s*r for s in F_{p**o_d(p)}^* are marked, and a marked r skipped.
    """
    if S.b != 0:
        raise ValueError("supergroup enumeration requires b = 0; conjugate first")
    field, d, H = S.field, S.d, S.H
    h_prime = field.p ** H.stabilizing_degree()
    points = H.cosets() if d == 1 else (0,)
    out = [Subgroup(field, d * e, b, H)
           for e in prime_set((h_prime - 1) // d) for b in points]
    # the nonzero cosets of a line H + F*r are those of s*r, s in F^*
    g = field.pow(field.gamma, (field.q - 1) // (field.p ** S.odp - 1))
    units = [field.pow(g, t) for t in range(field.p ** S.odp - 1)]
    lines: list[Subspace] = []
    covered = set()
    for r in list(H.cosets())[1:]:
        if r in covered:
            continue
        lines.append(span(field, H.basis + (r,), S.odp))
        covered.update(H.reduce(field.mul(s, r)) for s in units)
    expected = (field.q // H.size - 1) // (field.p ** S.odp - 1)
    if len(lines) != expected:
        raise RuntimeError(f"found {len(lines)} lines of F_q/H, expected "
                           f"{expected}")
    out.extend(Subgroup(field, d, 0, line) for line in lines)
    return out


# kept for perfbench's wrap list (spans.FUNCTIONS) until ROADMAP item 24
def join(S: Subgroup, selection) -> Subgroup:
    """The subgroup generated by S and a selection of proper supergroups,
    one ``join_pair`` per selected group.  T is a supergroup of S iff
    ``join_pair(T, S)`` is T."""
    sel = list(selection)
    for T in sel:
        if T == S or join_pair(T, S) != T:
            raise ValueError(f"{T!r} is not a proper supergroup of {S!r}")
    return functools.reduce(join_pair, sel, S)


def fixed_point(S: Subgroup) -> int | None:
    """The point c = b/(1 - a) that S's multiplier fixes, a*c + b = c;
    None when d = 1."""
    if S.d == 1:
        return None
    field = S.field
    return field.div(S.b, field.sub(1, S.a))


# kept for perfbench's wrap list (spans.FUNCTIONS) until ROADMAP item 24
def join_pair(T1: Subgroup, T2: Subgroup) -> Subgroup:
    """The subgroup generated by two arbitrary subgroups, on descriptors.

    d = lcm(d1, d2), and H is the span over F_{p**o_d(p)}, o_d(p) =
    lcm(o_d1(p), o_d2(p)), of both H's and, when both groups have a
    multiplicative part, the difference of their fixed points.  b = (1 -
    a)*c for either fixed point c, reduced mod H; both candidates are
    computed and must agree.
    """
    field = T1.field
    if T2.field is not field and T2.field != field:
        raise ValueError("cannot join subgroups over different fields")
    d = math.lcm(T1.d, T2.d)
    c1, c2 = fixed_point(T1), fixed_point(T2)
    diff = () if c1 is None or c2 is None else (field.sub(c1, c2),)
    H = span(field, T1.H.basis + T2.H.basis + diff,
             math.lcm(T1.odp, T2.odp))
    if d == 1:
        return Subgroup(field, 1, 0, H)
    one_minus_a = field.sub(1, field.pow(field.gamma, (field.q - 1) // d))
    bs = {H.reduce(field.mul(one_minus_a, c)) for c in (c1, c2)
          if c is not None}
    if len(bs) > 1:
        raise RuntimeError("join must not depend on the chosen point, "
                           f"got b in {sorted(bs)}")
    return Subgroup(field, d, bs.pop(), H)


# ---------------------------------------------------------------------------
# concrete class representatives


def class_representative(field: Field, d: int, i: int, j: int) -> Subgroup:
    """A concrete subgroup S(gamma**((q-1)/d), 0, H) of class (d, i, j).

    H is an F_r-subspace of dimension j over r = p**(o_d(p)*i) whose
    stabilizing subfield is exactly F_r: the span of the first j-combination
    of nonzero elements, in lexicographic order, that is independent over
    F_r and spans such a space.  The search runs depth first and skips
    every x already in the span of its prefix, since every extension of
    a dependent prefix is dependent too; the first hit is the same.  The
    shape is checked by ``numtheory.check_shape``.  From q = 16 on a class
    can hold several conjugacy classes: the count routes check only this
    member of one of them, and a test checks a member of each other one.
    """
    rdeg = check_shape(field.p, field.alpha, d, i, j) * i

    def first(W: Subspace, start: int, depth: int) -> Subspace | None:
        if depth == j:
            return W if W.stabilizing_degree() == rdeg else None
        for x in range(start, field.q):
            if not W.contains(x):
                H = first(span(field, W.basis + (x,), rdeg), x + 1, depth + 1)
                if H is not None:
                    return H
        return None

    H = first(Subspace(field), 1, 0)
    if H is None:
        raise RuntimeError("no subspace with the requested class exists")
    return Subgroup(field, d, 0, H)
