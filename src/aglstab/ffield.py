"""Exact arithmetic in F_{p^alpha} with subspace and quotient machinery.

Field elements are encoded as integers in [0, q): the element with
polynomial-basis coordinates (c_0, ..., c_{alpha-1}) relative to a fixed
monic irreducible modulus is sum(c_i * p**i).  Every canonical choice in
this module -- the modulus, the multiplicative generator, subspace bases
and coset representatives -- is minimal in that integer order, so
independent runs produce identical output byte for byte.  A subset is an
int mask over these codes for every module, and ``translate_masks`` gives
its q translates by digit-wise addition.

The tables are built from one multiplication in F_p[X]/(X**alpha + tail),
done directly on that int encoding: a digit-wise c*x + y is
sum((c*(x//w) + y//w) % p * w) over w = p**t, a product is a Horner pass
over the digits of one factor, and powers use square-and-multiply.  The
modulus is the first tail that passes Rabin's irreducibility test, whose
gcd step becomes a unit check (see ``_Ring.is_field``).

Arithmetic is table-backed.  Multiplication uses discrete exp/log
tables over the generator.  Addition is XOR for p = 2 and mod p for prime
fields; for odd p with alpha > 1 it uses a Zech-logarithm table,
gamma**z(n) = 1 + gamma**n, so x + y = x * (1 + y/x) costs three lookups.
The tables cap usable fields at q <= 2**16; the closed-form counting in
:mod:`aglstab.counting` needs no field object and has no such cap.

Subspaces hold their reduced-echelon basis as plain ints: a row operation
is one scaled field addition, and a digit is read as x // p**t % p.  A
subfield is named by its degree m | alpha, as the paper names o_d(p) and
o_d(p)*i: ``Field.subfield(m)`` is its F_p-basis, ``span`` takes m, and
``Subspace.stabilizing_degree`` is the degree of H', the largest subfield
mapping H into itself.  ``Subspace`` builds a space over F_p (no vectors:
the zero space) and ``span`` one over F_{p**m}; nothing else builds one.
``cosets`` gives each coset of F_q/H as an int mask keyed by its least
element.  ``superspaces`` lists every subspace over a subfield above a
given one as an element mask and generators, without building a
``Subspace``.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from functools import lru_cache

from .numtheory import check_field, prime_set

#: largest field backed by exp/log tables
MAX_Q = 1 << 16


# ---------------------------------------------------------------------------
# construction: the ring F_p[X]/(X**alpha + tail) on the base-p int encoding


class _Ring:
    """F_p[X]/(X**alpha + tail), with sum(c_t * X**t) encoded as
    sum(c_t * p**t) like the field elements.  It only builds a field's
    tables, so it is short rather than fast."""

    def __init__(self, p: int, alpha: int, tail: int):
        self.p = p
        self.pows = tuple(p ** t for t in range(alpha))
        self.minus_tail = self.axpy(p - 1, tail, 0)
        self.x = self.times_x(1)

    def axpy(self, c: int, x: int, y: int) -> int:
        """Digit-wise c*x + y.  The digits of x // p**t above the lowest
        come in multiples of p, so no digit is extracted on its own."""
        p = self.p
        return sum((c * (x // w) + y // w) % p * w for w in self.pows)

    def times_x(self, r: int) -> int:
        """r*X: a shift by one digit, with X**alpha = -tail."""
        c, r = divmod(r, self.pows[-1])
        return self.axpy(c, self.minus_tail, r * self.p) if c else r * self.p

    def mul(self, x: int, y: int) -> int:
        """x*y by a Horner pass over the digits of y, most significant
        first, skipping zero digits."""
        p = self.p
        r = 0
        for w in reversed(self.pows):
            if r:
                r = self.times_x(r)
            c = y // w % p
            if c:
                r = self.axpy(c, x, r)
        return r

    def pow(self, x: int, e: int) -> int:
        r = 1
        while e:
            if e & 1:
                r = self.mul(r, x)
            x = self.mul(x, x)
            e >>= 1
        return r

    def is_field(self) -> bool:
        """Rabin's test that X**alpha + tail is irreducible, with its gcd
        step as a unit check: X**q = X, and X**(p**(alpha/e)) - X is a
        unit for each prime e | alpha.  Once X**q = X the modulus is
        squarefree and each of its factors has a degree dividing alpha, so
        the ring is a product of fields whose unit groups have orders
        dividing q - 1, and y is a unit iff y**(q - 1) = 1."""
        p, x = self.p, self.x
        alpha = len(self.pows)
        q = p ** alpha
        return self.pow(x, q) == x and all(
            self.pow(self.axpy(p - 1, x, self.pow(x, p ** (alpha // e))),
                     q - 1) == 1
            for e in prime_set(alpha))


class Field:
    """The finite field with p**alpha elements.

    The modulus is the first monic irreducible of degree alpha in the
    canonical integer order, and ``gamma`` is the first element of
    multiplicative order q - 1, so a (p, alpha) pair determines the
    field representation completely.
    """

    def __init__(self, p: int, alpha: int):
        check_field(p, alpha)
        q = p ** alpha
        if q > MAX_Q:
            raise ValueError(
                f"q = {q} exceeds the table-backed arithmetic cap {MAX_Q}")
        self.p = p
        self.alpha = alpha
        self.q = q
        tail = next(t for t in range(q) if _Ring(p, alpha, t).is_field())
        ring = _Ring(p, alpha, tail)
        self._pows = ring.pows
        self.gamma = next(x for x in range(1, q)
                          if all(ring.pow(x, (q - 1) // e) != 1
                                 for e in prime_set(q - 1)))
        self._exp, self._log = self._build_tables(ring)
        self._zech = self._build_zech() if p > 2 and alpha > 1 else None
        self._subfield_bases: dict[int, tuple[int, ...]] = {}
        self._stab_degrees: dict[tuple[int, ...], int] = {}

    # -- construction internals --------------------------------------------

    def _build_tables(self, ring: _Ring) -> tuple[list[int], list[int]]:
        """exp[t] = gamma**t, stored twice over (0 <= t < 2(q - 1)) so a
        sum of two logarithms needs no reduction mod q - 1; log[0] = -1."""
        exp = [1]
        for _ in range(self.q - 2):
            exp.append(ring.mul(exp[-1], self.gamma))
        if ring.mul(exp[-1], self.gamma) != 1:
            raise RuntimeError(f"gamma = {self.gamma} does not have order "
                               f"q - 1 = {self.q - 1}")
        log = [-1] * self.q
        for t, val in enumerate(exp):
            log[val] = t
        return exp + exp, log

    def _build_zech(self) -> list[int]:
        """z[n] = log(gamma**n + 1), or -1 where gamma**n = -1.  Adding 1
        changes digit 0 only, so the digit-wise sum is x + 1 or x + 1 - p."""
        p, log = self.p, self._log
        return [log[x + 1 if x % p != p - 1 else x + 1 - p]
                for x in self._exp[:self.q - 1]]

    # -- arithmetic ---------------------------------------------------------

    def add(self, x: int, y: int) -> int:
        zech = self._zech
        if zech is None:
            return x ^ y if self.p == 2 else (x + y) % self.p
        if not x:
            return y
        if not y:
            return x
        log = self._log
        lx = log[x]
        # x + y = gamma**lx * (1 + gamma**(ly - lx)); a negative index
        # into the q - 1 entries of zech is that index mod q - 1
        z = zech[log[y] - lx]
        return self._exp[lx + z] if z >= 0 else 0

    def neg(self, x: int) -> int:
        """-x = (p - 1)*x: the code p - 1 is -1 in F_p (1 when p = 2)."""
        return self._exp[self._log[x] + self._log[self.p - 1]] if x else 0

    def sub(self, x: int, y: int) -> int:
        if self.p == 2:
            return x ^ y
        return self.add(x, self.neg(y))

    def mul(self, x: int, y: int) -> int:
        if x == 0 or y == 0:
            return 0
        return self._exp[self._log[x] + self._log[y]]

    def inv(self, x: int) -> int:
        if x == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        return self._exp[(-self._log[x]) % (self.q - 1)]

    def div(self, x: int, y: int) -> int:
        return self.mul(x, self.inv(y))

    def pow(self, x: int, e: int) -> int:
        if x == 0:
            if e == 0:
                return 1
            if e < 0:
                raise ZeroDivisionError("0 has no negative powers")
            return 0
        return self._exp[(self._log[x] * e) % (self.q - 1)]

    # -- structure ----------------------------------------------------------

    def subfield(self, degree: int) -> tuple[int, ...]:
        """F_p-basis (1, g, ..., g**(degree-1)) of the subfield of order
        p**degree, g = gamma**((q-1)/(p**degree - 1)) its primitive
        element; built once per degree."""
        basis = self._subfield_bases.get(degree)
        if basis is None:
            if degree < 1 or self.alpha % degree:
                raise ValueError(f"subfield degree must divide alpha = "
                                 f"{self.alpha}, got {degree}")
            g = self.pow(self.gamma, (self.q - 1) // (self.p ** degree - 1))
            basis = self._subfield_bases[degree] = tuple(
                self.pow(g, t) for t in range(degree))
        return basis

    # -- identity -----------------------------------------------------------

    def __eq__(self, other) -> bool:
        return other is self or (isinstance(other, Field) and
                                 (self.p, self.alpha) == (other.p, other.alpha))

    def __hash__(self) -> int:
        return hash(("Field", self.p, self.alpha))

    def __repr__(self) -> str:
        return f"Field(p={self.p}, alpha={self.alpha})"


# ---------------------------------------------------------------------------
# subsets as int masks over the element codes


def subset_mask(elements) -> int:
    mask = 0
    for x in elements:
        mask |= 1 << x
    return mask


def mask_elements(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def mask_bits(mask: int, q: int) -> str:
    """The subset as q characters, least significant first: character x
    is ``1`` iff x is in the subset (a mask below 2**q)."""
    return format(mask, f"0{q}b")[::-1]


@lru_cache(maxsize=None)
def _digit_steps(p: int, alpha: int) -> tuple[tuple[int, int, int], ...]:
    """(p**t, low, top) for each base-p digit t: ``top`` masks the
    elements whose digit t is p - 1, ``low`` the other elements."""
    steps = []
    for t in range(alpha):
        step = p ** t
        top = 0
        for x in range(p ** alpha):
            if x // step % p == p - 1:
                top |= 1 << x
        steps.append((step, ((1 << p ** alpha) - 1) ^ top, top))
    return tuple(steps)


def translate_masks(field: Field, mask: int) -> list[int]:
    """``shifts[z]`` has bit b set iff z + b lies in the masked subset.

    Field addition is digit-wise mod p on the integer encoding, so adding
    the unit of digit t to b gives b + p**t, or b - (p-1)*p**t where digit
    t of b is p - 1.  One shift-and-mask step thus turns shifts[z - p**t]
    into shifts[z]: a rotation for prime q, a block swap for p = 2.
    """
    shifts = [mask]
    for step, low, top in _digit_steps(field.p, field.alpha):
        up = (field.p - 1) * step
        for z in range(step, field.p * step):
            m = shifts[z - step]
            shifts.append((m >> step) & low | (m << up) & top)
    return shifts


# ---------------------------------------------------------------------------


def _echelon(field: Field, vectors) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Reduced echelon basis (as element ints) and its pivot digits.

    Every row is monic at its pivot, which is its most significant
    nonzero digit, and every other row is 0 there; pivots come most
    significant first.  Reducing an element against the basis thus zeroes
    every pivot digit and returns the least element of its coset in the
    canonical integer order (any other coset member first differs at some
    pivot digit, where it is larger).  The reduced echelon form of a
    subspace is unique, so the basis does not depend on how the vectors
    are ordered or how many of them are dependent.
    """
    p, pows = field.p, field._pows
    add, mul = field.add, field.mul
    rows: dict[int, int] = {}           # pivot digit -> row
    for x in vectors:
        for t, row in rows.items():
            c = x // pows[t] % p
            if c:
                x = add(x, row if c == p - 1 else mul(p - c, row))
        if not x:
            continue
        t = bisect_right(pows, x) - 1   # most significant nonzero digit
        c = x // pows[t]
        if c != 1:
            x = mul(pow(c, -1, p), x)
        for s, row in rows.items():
            c = row // pows[t] % p
            if c:
                rows[s] = add(row, x if c == p - 1 else mul(p - c, x))
        rows[t] = x
        if len(rows) == field.alpha:
            break
    pivots = tuple(sorted(rows, reverse=True))
    return tuple(rows[t] for t in pivots), pivots


class Subspace:
    """An F_p-subspace of the ambient field, held as a reduced-echelon basis;
    two subspaces are equal iff they are the same set."""

    def __init__(self, field: Field, vectors=()):
        self.field = field
        self.basis, self.pivots = _echelon(field, vectors)
        self.dim = len(self.basis)
        self.size = field.p ** self.dim
        self._cosets: dict[int, int] | None = None

    def reduce(self, x: int) -> int:
        """Least element of the coset x + (this subspace): echelon reduction
        with most-significant pivots is coset-leader reduction."""
        field = self.field
        p, pows, add, mul = field.p, field._pows, field.add, field.mul
        for t, row in zip(self.pivots, self.basis):
            c = x // pows[t] % p
            if c:
                x = add(x, row if c == p - 1 else mul(p - c, row))
        return x

    def contains(self, x: int) -> bool:
        return self.reduce(x) == 0

    def cosets(self) -> dict[int, int]:
        """Each coset of F_q/(this subspace) as an int mask keyed by its
        least element, from one ``reduce`` per element, memoized.  A leader
        comes before the rest of its coset, so the keys ascend from 0,
        whose mask is the subspace itself."""
        if self._cosets is None:
            q, cosets = self.field.q, {}
            for x in range(q):
                r = self.reduce(x)
                cosets[r] = cosets.get(r, 0) | 1 << x
            size = cosets.get(0, 0).bit_count()
            if len(cosets) != q // self.size or size != self.size:
                raise RuntimeError(
                    f"{len(cosets)} coset leaders for {q // self.size} "
                    f"cosets, and {size} bits for |H| = {self.size} in the "
                    f"coset of 0")
            self._cosets = cosets
        return self._cosets

    def stabilizing_degree(self) -> int:
        """Degree m of the largest subfield F_{p**m} mapping this subspace
        into itself, memoized on the field per basis.

        Checked on the primitive element g of each candidate subfield,
        largest degree first: g*H <= H already forces F_p(g)*H <= H by
        F_p-linearity, and the prime field (m = 1) always qualifies.
        """
        field = self.field
        known = field._stab_degrees
        degree = known.get(self.basis)
        if degree is None:
            degree = known[self.basis] = next(
                (m for m in range(field.alpha, 1, -1)
                 if field.alpha % m == 0
                 and all(self.contains(field.mul(field.subfield(m)[1], v))
                         for v in self.basis)), 1)
        return degree

    def __eq__(self, other) -> bool:
        return (isinstance(other, Subspace)
                and self.field == other.field and self.basis == other.basis)

    def __hash__(self) -> int:
        return hash(("Subspace", self.field, self.basis))

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim}, basis={self.basis})"


def span(field: Field, elements, degree: int) -> Subspace:
    """Smallest F_{p**degree}-subspace of the field containing
    ``elements``: the F_p-span of each element times the subfield basis."""
    basis = field.subfield(degree)
    return Subspace(field, [field.mul(kb, x) for x in elements for kb in basis])


def _extend(field: Field, elems: list[int], v: int) -> list[int]:
    """The elements x + c*v, c in F_p^*, that v adds to the F_p-space
    ``elems`` (the code c is the constant c); v lies outside it."""
    add, mul = field.add, field.mul
    return [add(x, mul(c, v)) for c in range(1, field.p) for x in elems]


def superspaces(H: Subspace, degree: int):
    """Every F_{p**degree}-subspace W of the field that contains H, itself
    one, each exactly once, as (mask of its elements, F_p-generators): H's
    basis, then s*r for s in ``subfield(degree)`` and each row r that W
    adds.  H itself comes first.

    The complement C of H is spanned over F_{p**degree} by the digit units
    p**t, least first, that lie outside the span so far; for degree 1
    these are the digits that are no pivot of H.  W is H plus its meet
    with C, and the rows are that meet's one reduced echelon form in this
    basis of C: each row is 1 at its pivot unit and 0 at the others'.
    Rows are chosen by pivot, least first, so a row's free coefficients --
    at the units below its pivot that are no pivot -- are known when it is
    chosen, and each W grows from the one before by one row.
    """
    field = H.field
    add, mul = field.add, field.mul
    basis = field.subfield(degree)
    scalars = [0]
    for b in basis:
        scalars += _extend(field, scalars, b)

    def multiples(elems, v):
        new = []
        for b in basis:
            new += _extend(field, elems + new, mul(b, v))
        return new

    elems = [0]
    for v in H.basis:
        elems += _extend(field, elems, v)
    units, whole = [], list(elems)
    for w in field._pows:
        if w not in whole:
            units.append(w)
            whole += multiples(whole, w)

    def grow(elems, mask, gens, start, slots):
        yield mask, gens
        for idx in range(start, len(units)):
            lower = slots + units[start:idx]
            for coeffs in itertools.product(scalars, repeat=len(lower)):
                row = units[idx]
                for c, u in zip(coeffs, lower):
                    row = add(row, mul(c, u))
                new = multiples(elems, row)
                yield from grow(elems + new, mask | subset_mask(new),
                                gens + tuple(mul(b, row) for b in basis),
                                idx + 1, lower)

    yield from grow(elems, subset_mask(elems), H.basis, 0, [])
