"""The benchmark's five workloads.

Each workload turns ``(seed, pass index)`` into a list of items, runs one
item through the library or through ``cli.main`` in-process, and checks
the item's output.  Inputs are generated here with sympy and the
standard library only, so the program under test sees nothing but the
generated inputs.  Every call into ``aglstab`` goes through a module
attribute (``counting.count_N``, ``cli.main``), so the traced run's
wrappers see it.

Workloads and what one item is:

* ``table``     -- ``aglstab table --q Q --format csv``, one field per item;
* ``count_mix`` -- one ``count_N(ClassParams(...))`` query per item;
* ``verify``    -- closed form vs lattice vs brute force for one (class, k);
* ``lattice``   -- ``count_N_via_lattice`` for every k of one class;
* ``design``    -- ``aglstab design --format json``, one design per item.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import random
from functools import lru_cache
from pathlib import Path

from sympy import divisors, factorint, n_order, nextprime, primerange

from aglstab import agl, cli, counting, oracle

DATA = json.loads((Path(__file__).parent / "data.json").read_text())


# ---------------------------------------------------------------------------
# helpers independent of the library


def s_qk(q: int, k: int, u: int, v: int) -> int:
    """Number of k-subsets that are unions of orbits of a group with one
    orbit of size v and (q - v)/(u*v) orbits of size u*v; the upper bound
    every exact count must respect."""
    top, rem = divmod(q - v, u * v)
    if rem or top < 0:
        return 0
    total = 0
    for num in (k, k - v):
        sel, srem = divmod(num, u * v)
        if srem == 0 and sel >= 0:
            total += math.comb(top, sel)
    return total


def order_mod(p: int, d: int) -> int:
    return 1 if d == 1 else int(n_order(p, d))


@lru_cache(maxsize=None)
def shapes(p: int, alpha: int) -> tuple[tuple[int, int, int], ...]:
    """All class triples (d, i, j) of F_{p**alpha}, in the paper's order."""
    out = []
    for d in divisors(p ** alpha - 1):
        top = alpha // order_mod(p, d)
        for i in divisors(top):
            js = (0, 1) if i == top else range(1, top // i)
            out.extend((d, i, j) for j in js)
    return tuple(out)


def prime_power(q: int) -> tuple[int, int]:
    (p, alpha), = factorint(q).items()
    return int(p), int(alpha)


def classes(q: int) -> list[tuple[int, int, int, int, int]]:
    """(p, alpha, d, i, j) for every class of F_q."""
    p, alpha = prime_power(q)
    return [(p, alpha, d, i, j) for d, i, j in shapes(p, alpha)]


#: the cached lattice-term function as imported, before any tracing wrapper
LATTICE_TERMS = oracle.lattice_terms


class Workload:
    """Base: items come in passes; ``start_pass`` makes every pass cold.

    ``output_bytes`` counts what ``cli.main`` printed, ``cache_hits`` and
    ``cache_misses`` the lattice-term lookups of the passes started so far.
    """

    name = ""
    #: (p, alpha) of the fields built during set-up
    fields: tuple[tuple[int, int], ...] = ()
    #: how much of a run's --seconds one pass stands for (see run.pass_count)
    pass_seconds = 10.0

    def __init__(self):
        self.output_bytes = 0
        self.cache_hits = 0
        self.cache_misses = 0

    def warmup(self) -> list:
        """Inputs run during set-up and never measured."""
        return []

    def make_pass(self, seed: int, index: int) -> list:
        raise NotImplementedError

    def start_pass(self) -> None:
        if hasattr(LATTICE_TERMS, "cache_clear"):
            info = LATTICE_TERMS.cache_info()
            self.cache_hits += info.hits
            self.cache_misses += info.misses
            LATTICE_TERMS.cache_clear()

    def run_cli(self, argv: list[str]) -> tuple[int, str]:
        """``cli.main`` with stdout and stderr captured: (exit code, stdout)."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        text = out.getvalue()
        self.output_bytes += len(text.encode())
        return code, text

    def run(self, item):
        raise NotImplementedError

    def check(self, item, out) -> bool:
        raise NotImplementedError

    def encode(self, out) -> bytes:
        """Bytes of one output for the first-pass digest."""
        return repr(out).encode()


# ---------------------------------------------------------------------------
# table


class Table(Workload):
    """One field per stratum per pass; the 70 strata group the 175 prime
    powers 100 <= q <= 1100, in order of the table time measured on the
    seed commit, three and two at a time, so every seed asks for the same
    mix of cheap and dear fields and the median and tail barely move with
    the seed.  Pass n takes field n of each stratum in a seeded order
    (cyclically), so the fields of one pass are distinct."""

    name = "table"
    pass_seconds = 16.0

    def __init__(self, strata=None):
        super().__init__()
        self.strata = DATA["table_strata"] if strata is None else strata

    def warmup(self):
        return [prime_power(q) for q in (27, 49, 64, 81)]

    def make_pass(self, seed, index):
        rng = random.Random(f"table:{seed}")
        orders = [rng.sample(group, len(group)) for group in self.strata]
        picks = [prime_power(order[index % len(order)]) for order in orders]
        random.Random(f"table:{seed}:{index}").shuffle(picks)
        return picks

    def run(self, item):
        p, alpha = item
        return self.run_cli(["table", "--q", str(p ** alpha), "--format", "csv"])

    def check(self, item, out):
        code, text = out
        p, alpha = item
        q = p ** alpha
        rows = list(csv.reader(io.StringIO(text)))
        if code != 0 or rows[0] != list(counting.CSV_COLUMNS) or len(rows) < 2:
            return False
        for k, d, _odp, _i, _j, beta, n in (map(int, r) for r in rows[1:]):
            if not (0 <= k <= q // 2 and 0 <= n <= s_qk(q, k, d, p ** beta)):
                return False
        return True


# ---------------------------------------------------------------------------
# count_mix


@lru_cache(maxsize=None)
def _small_fields() -> tuple[tuple[tuple[int, int], ...], ...]:
    """(primes, proper prime powers) up to 1e5, as (p, alpha)."""
    primes = tuple((p, 1) for p in primerange(2, 10 ** 5 + 1))
    powers = tuple(sorted(
        (p, a) for p in primerange(2, 317) for a in range(2, 17)
        if p ** a <= 10 ** 5))
    return primes, powers


#: bignum fields no Field object can represent
BIG_FIELDS = ((2, 64), (3, 30), (2, 48), (5, 20))
#: a query's k is a union of at most this many orbits of size d*p**beta
#: (plus the fixed orbit), so no single binomial dwarfs the rest of the mix
MAX_ORBITS = 64


class CountMix(Workload):
    """Single closed-form queries: 50% prime fields and 30% proper prime
    powers up to 1e5, 20% bignum fields (half from BIG_FIELDS, half a
    prime 2**16 < p < 2**40).  k always satisfies the congruence and is
    at most MAX_ORBITS orbits of the class."""

    name = "count_mix"
    pass_seconds = 2.5

    def __init__(self, size: int = 5000):
        super().__init__()
        self.size = size

    def _query(self, rng: random.Random):
        roll = rng.random()
        primes, powers = _small_fields()
        if roll < 0.5:
            p, alpha = rng.choice(primes)
        elif roll < 0.8:
            p, alpha = rng.choice(powers)
        elif roll < 0.9:
            p, alpha = rng.choice(BIG_FIELDS)
        else:
            p, alpha = int(nextprime(rng.randrange(2 ** 16, 2 ** 40))), 1
        q = p ** alpha
        d, i, j = rng.choice(shapes(p, alpha))
        beta = order_mod(p, d) * i * j
        pb = p ** beta
        step = d * pb
        t_max = min(q // step, MAX_ORBITS)
        k = rng.randint(0, t_max) * step
        if rng.random() < 0.5 and k + pb <= q:
            k += pb
        return (p, alpha, k, d, i, j, beta)

    def warmup(self):
        rng = random.Random("count_mix:warmup")
        return [self._query(rng) for _ in range(20)]

    def make_pass(self, seed, index):
        rng = random.Random(f"count_mix:{seed}:{index}")
        return [self._query(rng) for _ in range(self.size)]

    def run(self, item):
        p, alpha, k, d, i, j, _beta = item
        return counting.count_N(counting.ClassParams(p, alpha, k, d, i, j))

    def check(self, item, out):
        p, alpha, k, d, _i, _j, beta = item
        return 0 <= out <= s_qk(p ** alpha, k, d, p ** beta)

    def encode(self, out):
        return hex(out).encode()


# ---------------------------------------------------------------------------
# verify


class Verify(Workload):
    """Every (class, k) of q in {11, 13, 16}: classes in a seeded order,
    and within a class k = 0..q, as ``cli._verify_class`` runs them.  The
    class representative and its lattice terms are built by the class's
    k = 0 item, so that cost always lands on the same item."""

    name = "verify"
    pass_seconds = 8.5
    fields = ((11, 1), (13, 1), (2, 4), (7, 1))

    def __init__(self, qs=(11, 13, 16)):
        super().__init__()
        self.qs = qs
        self._classes = {}

    def warmup(self):
        return [c + (k,) for c in classes(7) for k in range(8)]

    def make_pass(self, seed, index):
        order = [c for q in self.qs for c in classes(q)]
        random.Random(f"verify:{seed}:{index}").shuffle(order)
        return [c + (k,) for c in order for k in range(c[0] ** c[1] + 1)]

    def start_pass(self):
        super().start_pass()
        self._classes.clear()

    def run(self, item):
        p, alpha, d, i, j, k = item
        prepared = self._classes.get(item[:5])
        if prepared is None:
            S = agl.class_representative(cli._field(p, alpha), d, i, j)
            prepared = self._classes[item[:5]] = (S, oracle.lattice_terms(S))
        S, terms = prepared
        q = p ** alpha
        closed = counting.count_N(counting.ClassParams(p, alpha, k, d, i, j))
        lattice = sum(c * counting.s_qk(q, k, dd, h) for c, dd, h in terms)
        brute = oracle.count_N_bruteforce(S, k)
        return closed, lattice, brute

    def check(self, item, out):
        closed, lattice, brute = out
        return closed == lattice == brute


# ---------------------------------------------------------------------------
# lattice


class Lattice(Workload):
    """Every class of q in {25, 27, 32, 49}, in a seeded order; one item
    evaluates the class at every k by lattice inclusion-exclusion.  The
    lattice-term cache is cleared before each pass and the warm-up uses
    other fields, so each class starts cold."""

    name = "lattice"
    pass_seconds = 12.0
    fields = ((5, 2), (3, 3), (2, 5), (7, 2), (2, 3), (3, 2))

    def __init__(self, qs=(25, 27, 32, 49)):
        super().__init__()
        self.qs = qs

    def warmup(self):
        return classes(8) + classes(9)

    def make_pass(self, seed, index):
        items = [c for q in self.qs for c in classes(q)]
        random.Random(f"lattice:{seed}:{index}").shuffle(items)
        return items

    def run(self, item):
        p, alpha, d, i, j = item
        S = agl.class_representative(cli._field(p, alpha), d, i, j)
        return tuple(oracle.count_N_via_lattice(S, k)
                     for k in range(p ** alpha + 1))

    def check(self, item, out):
        p, alpha, d, i, j = item
        return out == tuple(
            counting.count_N(counting.ClassParams(p, alpha, k, d, i, j))
            for k in range(p ** alpha + 1))


# ---------------------------------------------------------------------------
# design


DESIGN_QS = (16, 17, 19, 23, 25, 27, 29, 31, 32, 37, 41, 43, 47, 49, 53, 59,
             61, 64)


class Design(Workload):
    """Three designs per field 16 <= q <= 64 per pass: one from a seeded
    random base subset of size max(3, q/4) (almost always a trivial
    stabilizer, so the largest design; a fixed size keeps its cost from
    swinging with the seed) and two ``--k/--d`` class witnesses
    (a large stabilizer, so a small design, with counting and the witness
    search on the path).  Witnesses are drawn from the pairs (k, d) in
    ``data.json``: those with a positive count whose d is the largest such
    d of the field, giving the small designs the witness path is for and a
    cost that does not swing with the seed."""

    name = "design"
    pass_seconds = 12.0
    fields = tuple(prime_power(q) for q in DESIGN_QS + (7, 8, 9, 11))

    def __init__(self, qs=DESIGN_QS):
        super().__init__()
        self.qs = qs

    @staticmethod
    def _inputs(q, rng):
        subset = sorted(rng.sample(range(q), max(3, q // 4)))
        witnesses = [rng.choice(DATA["design_witnesses"][str(q)])
                     for _ in range(2)]
        return [(q, "--subset", ",".join(map(str, subset)))] + [
            (q, "--k", str(k), "--d", str(d)) for k, d in witnesses]

    def warmup(self):
        rng = random.Random("design:warmup")
        return [it for q in (7, 8, 9, 11) for it in self._inputs(q, rng)]

    def make_pass(self, seed, index):
        rng = random.Random(f"design:{seed}:{index}")
        items = [it for q in self.qs for it in self._inputs(q, rng)]
        rng.shuffle(items)
        return items

    def run(self, item):
        q, *flags = item
        return self.run_cli(["design", "--q", str(q), *flags, "--format", "json"])

    def check(self, item, out):
        code, text = out
        if code != 0:
            return False
        rec = json.loads(text)
        q = item[0]
        par = rec["params"]
        v, b, r, k, lam = (par[x] for x in ("v", "b", "r", "k", "lambda"))
        words = rec["codewords"]
        return (rec["johnson_equality"] is True
                and rec["a2"]["value"] == q
                and v == q and b * k == v * r and r * (k - 1) == lam * (v - 1)
                and b * rec["stabilizer_order"] == q * (q - 1)
                and len(rec["blocks"]) == b
                and all(len(blk) == k for blk in rec["blocks"])
                and rec["code"] == {"n": b, "d": 2 * (r - lam), "w": r,
                                    "size": v}
                and len(words) == v
                and all(len(w) == b and w.count("1") == r for w in words)
                and (item[1] != "--subset"
                     or rec["subset"] == [int(x) for x in item[2].split(",")]))


WORKLOADS = {w.name: w for w in (Table, CountMix, Verify, Lattice, Design)}
