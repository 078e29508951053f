"""Exact arithmetic in F_{p^alpha} with subspace and quotient machinery.

Field elements are encoded as integers in [0, q): the element with
polynomial-basis coordinates (c_0, ..., c_{alpha-1}) relative to a fixed
monic irreducible modulus is sum(c_i * p**i).  Every canonical choice in
this module -- the modulus, the multiplicative generator, subspace bases
and coset representatives -- is minimal in that integer order, so
independent runs produce identical output byte for byte.

Arithmetic is table-backed.  Multiplication uses discrete exp/log
tables over the generator.  Addition is XOR for p = 2 and mod p for prime
fields; for odd p with alpha > 1 it uses a Zech-logarithm table,
gamma**z(n) = 1 + gamma**n, so x + y = x * (1 + y/x) costs three lookups.
The tables cap usable fields at q <= 2**16; the closed-form counting in
:mod:`aglstab.counting` needs no field object and has no such cap.

Subspaces hold their reduced-echelon basis as plain ints: a row operation
is one scaled field addition, and a digit is read as x // p**t % p.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import cached_property

from .counting import check_field, prime_set

#: largest field backed by exp/log tables
MAX_Q = 1 << 16


# ---------------------------------------------------------------------------
# polynomial helpers over F_p (coefficient lists, ascending degree, trimmed)

def _ptrim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _pmod(a: list[int], f: list[int], p: int) -> list[int]:
    a = a[:]
    df = len(f) - 1
    inv_lead = pow(f[-1], -1, p)
    while len(a) - 1 >= df and a:
        shift = len(a) - 1 - df
        factor = (a[-1] * inv_lead) % p
        for t, cf in enumerate(f):
            a[shift + t] = (a[shift + t] - factor * cf) % p
        _ptrim(a)
    return a


def _pmulmod(a: list[int], b: list[int], f: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for s, ca in enumerate(a):
        if ca:
            for t, cb in enumerate(b):
                out[s + t] = (out[s + t] + ca * cb) % p
    return _pmod(out, f, p)


def _ppowmod(a: list[int], e: int, f: list[int], p: int) -> list[int]:
    result = [1]
    base = _pmod(a[:], f, p)
    while e:
        if e & 1:
            result = _pmulmod(result, base, f, p)
        base = _pmulmod(base, base, f, p)
        e >>= 1
    return result


def _pgcd(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = a[:], b[:]
    while b:
        a, b = b, _pmod(a, b, p)
    return a


def _is_irreducible(f: list[int], p: int) -> bool:
    """Rabin test: f (monic, degree n >= 1) is irreducible over F_p iff
    x**(p**n) == x mod f and gcd(x**(p**(n/e)) - x, f) = 1 for primes e | n."""
    n = len(f) - 1
    x = [0, 1]
    xq = _ppowmod(x, p ** n, f, p)
    diff = xq[:] + [0] * (2 - len(xq))
    diff[1] = (diff[1] - 1) % p
    if _ptrim(diff):
        return False
    for e in prime_set(n):
        xm = _ppowmod(x, p ** (n // e), f, p)
        diff = xm[:] + [0] * (2 - len(xm))
        diff[1] = (diff[1] - 1) % p
        g = _pgcd(f, _ptrim(diff), p)
        if len(g) - 1 > 0:
            return False
    return True


def _smallest_irreducible(p: int, alpha: int) -> tuple[int, ...]:
    if alpha == 1:
        return (0, 1)
    for tail in range(p ** alpha):
        coeffs, t = [], tail
        for _ in range(alpha):
            t, c = divmod(t, p)
            coeffs.append(c)
        poly = coeffs + [1]
        if _is_irreducible(poly, p):
            return tuple(poly)
    raise AssertionError("no irreducible polynomial found")  # unreachable


# ---------------------------------------------------------------------------


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
        self.modulus = _smallest_irreducible(p, alpha)
        self._pows = tuple(p ** t for t in range(alpha))
        self.gamma = self._find_generator()
        self._exp, self._log = self._build_tables()
        self._zech = self._build_zech() if p > 2 and alpha > 1 else None
        self._subfields: dict[int, Subfield] = {}
        self._stab_degrees: dict[tuple[int, ...], int] = {}

    # -- construction internals --------------------------------------------

    def _digits(self, x: int) -> list[int]:
        out = []
        for _ in range(self.alpha):
            x, c = divmod(x, self.p)
            out.append(c)
        return out

    def _mul_raw(self, x: int, y: int) -> int:
        prod = _pmulmod(self._digits(x), self._digits(y),
                        list(self.modulus), self.p)
        return sum(c * w for c, w in zip(prod, self._pows))

    def _pow_raw(self, x: int, e: int) -> int:
        result = 1
        while e:
            if e & 1:
                result = self._mul_raw(result, x)
            x = self._mul_raw(x, x)
            e >>= 1
        return result

    def _find_generator(self) -> int:
        n = self.q - 1
        primes = prime_set(n) if n > 1 else ()
        for x in range(1, self.q):
            if all(self._pow_raw(x, n // e) != 1 for e in primes):
                return x
        raise AssertionError("no generator found")  # unreachable

    def _build_tables(self) -> tuple[list[int], list[int]]:
        """exp[t] = gamma**t, stored twice over (0 <= t < 2(q - 1)) so a
        sum of two logarithms needs no reduction mod q - 1; log[0] = -1."""
        exp = [1]
        for _ in range(self.q - 2):
            exp.append(self._mul_raw(exp[-1], self.gamma))
        if self._mul_raw(exp[-1], self.gamma) != 1:
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
        """-x; for odd p, -1 = gamma**((q-1)/2)."""
        if self.p == 2:
            return x
        if self.alpha == 1:
            return (-x) % self.p
        return self._exp[self._log[x] + (self.q - 1) // 2] if x else 0

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

    def smul(self, c: int, x: int) -> int:
        """Integer scalar multiple c*x (c acting through F_p, whose
        elements are the integers 0..p-1)."""
        return self.mul(c % self.p, x)

    def log(self, x: int) -> int:
        """Discrete logarithm base gamma; defined for x != 0."""
        if x == 0:
            raise ValueError("0 has no discrete logarithm")
        return self._log[x]

    # -- structure ----------------------------------------------------------

    def elements(self) -> range:
        return range(self.q)

    def subfield(self, degree: int) -> "Subfield":
        try:
            return self._subfields[degree]
        except KeyError:
            sf = Subfield(self, degree)
            self._subfields[degree] = sf
            return sf

    @property
    def prime_subfield(self) -> "Subfield":
        return self.subfield(1)

    # -- identity -----------------------------------------------------------

    def __eq__(self, other) -> bool:
        return other is self or (isinstance(other, Field) and
                                 (self.p, self.alpha) == (other.p, other.alpha))

    def __hash__(self) -> int:
        return hash(("Field", self.p, self.alpha))

    def __repr__(self) -> str:
        return f"Field(p={self.p}, alpha={self.alpha})"


class Subfield:
    """The unique copy of F_{p**degree} inside an ambient field (degree | alpha)."""

    def __init__(self, field: Field, degree: int):
        if degree < 1 or field.alpha % degree:
            raise ValueError(
                f"subfield degree must divide alpha = {field.alpha}, got {degree}")
        self.field = field
        self.degree = degree
        self.size = field.p ** degree

    @cached_property
    def generator(self) -> int:
        """A primitive element: gamma**((q-1)/(size-1)); equals 1 for F_2."""
        return self.field.pow(self.field.gamma, (self.field.q - 1) // (self.size - 1))

    @cached_property
    def basis(self) -> tuple[int, ...]:
        """F_p-basis (1, g, ..., g**(degree-1)) with g the generator."""
        return tuple(self.field.pow(self.generator, t) for t in range(self.degree))

    @cached_property
    def elements(self) -> tuple[int, ...]:
        els = {0}
        els.update(self.field.pow(self.generator, t) for t in range(self.size - 1))
        if len(els) != self.size:
            raise RuntimeError(f"the generator of F_{self.size} spans "
                               f"{len(els)} elements")
        return tuple(sorted(els))

    def contains(self, x: int) -> bool:
        if x == 0:
            return True
        return self.field.log(x) % ((self.field.q - 1) // (self.size - 1)) == 0

    def __eq__(self, other) -> bool:
        return (isinstance(other, Subfield)
                and self.field == other.field and self.degree == other.degree)

    def __hash__(self) -> int:
        return hash(("Subfield", self.field, self.degree))

    def __repr__(self) -> str:
        return f"Subfield(p={self.field.p}, degree={self.degree} in alpha={self.field.alpha})"


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
        self._elements: tuple[int, ...] | None = None

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

    def issubspace_of(self, other: "Subspace") -> bool:
        return all(other.contains(v) for v in self.basis)

    def elements(self) -> tuple[int, ...]:
        if self._elements is None:
            field = self.field
            combs = [0]
            for v in self.basis:
                step = [field.smul(t, v) for t in range(field.p)]
                combs = [field.add(c, s) for c in combs for s in step]
            els = tuple(sorted(set(combs)))
            if len(els) != self.size:
                raise RuntimeError(f"a basis of {self.dim} vectors spans "
                                   f"{len(els)} elements")
            self._elements = els
        return self._elements

    def stabilizing_degree(self) -> int:
        """Degree of the largest subfield mapping this subspace into itself,
        memoized on the field per basis."""
        known = self.field._stab_degrees
        degree = known.get(self.basis)
        if degree is None:
            degree = known[self.basis] = subfield_stabilizer(self).degree
        return degree

    def __eq__(self, other) -> bool:
        return (isinstance(other, Subspace)
                and self.field == other.field and self.basis == other.basis)

    def __hash__(self) -> int:
        return hash(("Subspace", self.field, self.basis))

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim}, basis={self.basis})"


def zero_subspace(field: Field) -> Subspace:
    return Subspace(field, ())


def full_subspace(field: Field) -> Subspace:
    return Subspace(field, field._pows)


def span(elements, K: Subfield) -> Subspace:
    """Smallest K-subspace of the ambient field containing ``elements``."""
    field = K.field
    vectors = [field.mul(kb, x) for x in elements for kb in K.basis]
    return Subspace(field, vectors)


def subfield_stabilizer(H: Subspace) -> Subfield:
    """The largest subfield K of F_q with K*H inside H.

    Checked on a primitive element g of each candidate subfield, largest
    degree first: g*H <= H already forces K*H <= H by F_p-linearity.
    """
    field = H.field
    for m in range(field.alpha, 0, -1):
        if field.alpha % m:
            continue
        g = field.subfield(m).generator
        if all(H.contains(field.mul(g, v)) for v in H.basis):
            return field.subfield(m)
    raise AssertionError("prime subfield always stabilizes")  # unreachable


class QuotientSpace:
    """F_q / H with least-element coset representatives."""

    def __init__(self, field: Field, denominator: Subspace):
        if denominator.field != field:
            raise ValueError("denominator lives in a different field")
        self.field = field
        self.denominator = denominator
        self.transversal = tuple(sorted({denominator.reduce(x)
                                         for x in range(field.q)}))
        self.size = field.q // denominator.size
        if len(self.transversal) != self.size:
            raise RuntimeError(f"{len(self.transversal)} coset leaders for "
                               f"{self.size} cosets")

    def __repr__(self) -> str:
        return f"QuotientSpace(q={self.field.q}, |H|={self.denominator.size})"


def lines_of_quotient(Q: QuotientSpace, K: Subfield) -> list[Subspace]:
    """The 1-dimensional K-subspaces of F_q/H, each returned once as its
    full preimage in F_q (a K-subspace containing H)."""
    field, H = Q.field, Q.denominator
    if K.field != field:
        raise ValueError("subfield belongs to a different field")
    if H.stabilizing_degree() % K.degree:
        raise ValueError("denominator is not a K-subspace")
    expected, rem = divmod(Q.size - 1, K.size - 1)
    if rem:
        raise RuntimeError(f"|F_q/H| - 1 = {Q.size - 1} is not a multiple "
                           f"of |K| - 1 = {K.size - 1}")
    seen = set()
    out = []
    for r in Q.transversal[1:]:
        W = Subspace(field,
                     H.basis + tuple(field.mul(kb, r) for kb in K.basis))
        if W.basis not in seen:
            seen.add(W.basis)
            if W.dim != H.dim + K.degree:
                raise RuntimeError(f"a line over F_{K.size} raised dim "
                                   f"{H.dim} to {W.dim}")
            out.append(W)
    if len(out) != expected:
        raise RuntimeError(f"found {len(out)} lines, expected {expected}")
    return out
