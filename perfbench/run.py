"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload table --seed 0 --seconds 10 --trace 0

Run from the root of a checkout: the library is imported from ``src/``
of that checkout, never from an installed copy.  One client, one thread,
closed loop: each item starts only after the previous one returned.  The
timed phase runs whole passes of the workload; ``--seconds`` sets how many
(see ``pass_count``).  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it are for people.

``--trace 0`` measures the passes in PARTS fresh interpreters, one after
another, each taking a slice of every pass (see ``run_parts``), and prints
the end-to-end metrics.  ``--trace 1`` runs the same passes untraced and
then traced in this process, prints the per-layer metrics and the tracing
overhead (traced minus untraced), and writes every span to
``.perfbench_out/spans-<workload>-<seed>.json.gz``.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import bisect  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SEED = 0
#: fresh processes that measure one run between them, one after another
PARTS = 3
#: seconds a part may take before the run is abandoned
PART_TIMEOUT_S = 55
#: loop count of each half of the host-speed probe
PROBE_LOOPS = 5_000
#: the probe's median duration on the reference host (2-vCPU x86-64 VM,
#: Python 3.11); every reported time is scaled to a host this fast
REFERENCE_S = 0.00168
#: interval of the timer that runs the probe, also in the middle of an item
PROBE_EVERY_S = 0.02
#: a probe due in the first this many seconds of an item waits for its end
PROBE_DEFER_S = 0.01
#: an item is scaled by the probes within this many seconds of it
PROBE_WINDOW_S = 0.25
#: Simpson steps per order statistic in hd_quantile
SIMPSON_STEPS = 8
#: span name of the probe in a traced run; it belongs to no layer
PROBE_SPAN = "perfbench.probe"


class _Point:
    __slots__ = ("x",)

    def __init__(self, x):
        self.x = x

    def shifted(self, y):
        return self.x + y


def probe() -> float:
    """Duration of one run of a fixed pure-Python task: a measure of how
    fast the host runs Python right now.  One half is integer arithmetic
    and dict stores, the other method calls and small allocations; an
    earlier probe of the first half alone tracked long items well but
    items of a tenth of a millisecond badly.  One run, not the fastest of
    several: the fastest would hide the very slow-downs the probe is there
    to see."""
    t0 = time.perf_counter()
    acc = 0
    table = {}
    for i in range(PROBE_LOOPS):
        acc += (i * i) % 7
        table[i & 255] = acc
    points = [_Point(i) for i in range(64)]
    for i in range(PROBE_LOOPS // 6):
        acc += points[i & 63].shifted(i)
        acc ^= len([j for j in range(4)])
    return time.perf_counter() - t0


class Sampler:
    """Host-speed probes, run by an interval timer every PROBE_EVERY_S
    while the sampler is entered, in the middle of an item too.

    A shared host's speed drifts by tens of percent within seconds, and
    over a long item as well as between items.  ``samples`` holds
    ``(start, end, duration)`` of every probe.  An interval of the main
    thread's work is then measured as its wall time less the probes that
    ran inside it, scaled to the reference host by REFERENCE_S over the
    mean duration of the probes within PROBE_WINDOW_S of it (``net``).
    A probe that falls due in the first PROBE_DEFER_S of an item runs when
    the item ends (``item_started``, ``after_item``): a probe evicts the
    item's data from the caches, which a short item would not make up.
    A traced run sets ``probe`` to a wrapped probe, so the probe's time is
    a child span and never any layer's self time."""

    def __init__(self):
        self.samples: list[tuple[float, float, float]] = []
        self.probe = probe
        self.item_started = None
        self._due = False
        self._busy = False
        self._saved = None

    def _alarm(self, *_signal) -> None:
        started = self.item_started
        if (started is not None
                and time.perf_counter() - started < PROBE_DEFER_S):
            self._due = True
        else:
            self.take()

    def after_item(self) -> None:
        self.item_started = None
        if self._due:
            self.take()

    def take(self) -> None:
        if self._busy:
            return
        self._busy = True
        self._due = False
        t0 = time.perf_counter()
        duration = self.probe()
        self.samples.append((t0, time.perf_counter(), duration))
        self._busy = False

    def __enter__(self):
        self.take()
        self._saved = signal.signal(signal.SIGALRM, self._alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._saved)
        self.take()

    def net(self, intervals) -> list[tuple[float, float]]:
        """(wall seconds less probes, reference-host seconds) of each
        ``(t0, t1)`` interval, scaled by the probes that started within
        PROBE_WINDOW_S of it; needs a probe before the first interval and
        one after the last."""
        samples = sorted(self.samples)
        starts = [s[0] for s in samples]
        out = []
        for t0, t1 in intervals:
            lo = bisect.bisect_left(starts, t0)
            hi = bisect.bisect_left(starts, t1)
            inside = math.fsum(end - start for start, end, _ in samples[lo:hi])
            first = bisect.bisect_left(starts, t0 - PROBE_WINDOW_S)
            last = bisect.bisect_right(starts, t1 + PROBE_WINDOW_S)
            window = [d for _, _, d in
                      samples[max(min(first, lo - 1), 0):max(last, hi + 1)]]
            wall = t1 - t0 - inside
            out.append((wall, wall * REFERENCE_S / statistics.fmean(window)))
        return out


def hd_quantile(values, p: float, width: float = 1.0) -> float:
    """Harrell-Davis estimate of the ``p``-quantile: a weighted mean of the
    order statistics, the i-th weighted by the mass that a Beta((n+1)p,
    (n+1)(1-p)) density puts on [i/n, (i+1)/n] (Simpson's rule,
    SIMPSON_STEPS steps), counting only its highest-density interval of
    ``width``.  Unlike a single order statistic it moves smoothly when one
    sample passes another: items cluster by cost (the designs of one
    field, the classes of one shape), and a plain median or tail jumps
    between clusters when noise or the seed moves one item across."""
    xs = sorted(values)
    n = len(xs)
    a, b = (n + 1) * p, (n + 1) * (1 - p)

    def log_density(t):
        if t <= 0.0 or t >= 1.0:
            return -math.inf
        return (a - 1) * math.log(t) + (b - 1) * math.log1p(-t)

    mode = (a - 1) / (a + b - 2) if a > 1 and b > 1 else 0.5
    peak = log_density(mode)  # subtracted to keep exp() in range
    lo, hi = 0.0, 1.0
    if width < 1:
        # the interval of this width whose ends have equal density
        left, right = max(0.0, mode - width), min(mode, 1.0 - width)
        for _ in range(60):
            mid = (left + right) / 2
            if log_density(mid) < log_density(mid + width):
                left = mid
            else:
                right = mid
        lo, hi = left, left + width

    weights = []
    for i in range(max(0, math.floor(lo * n)), min(n, math.ceil(hi * n))):
        left, right = max(i / n, lo), min((i + 1) / n, hi)
        h = (right - left) / SIMPSON_STEPS
        ys = [math.exp(log_density(left + k * h) - peak)
              for k in range(SIMPSON_STEPS + 1)]
        weights.append((i, h * (ys[0] + ys[-1] + 4 * math.fsum(ys[1:-1:2])
                                + 2 * math.fsum(ys[2:-1:2]))))
    return (math.fsum(w * xs[i] for i, w in weights)
            / math.fsum(w for _, w in weights))


def tail_percentile(values) -> tuple[float, float]:
    """(percentile, value) of the highest percentile with at least ten
    samples beyond it: percentile 100*(n-10)/n, whose plain estimate is
    the eleventh largest value; the value is its Harrell-Davis estimate.
    With ten samples or fewer no percentile qualifies and the maximum is
    returned at percentile 100."""
    values = list(values)
    n = len(values)
    if n <= 10:
        return 100.0, max(values)
    # trimmed to width 1/sqrt(n), which keeps the few huge items of a
    # heavy tail (the 4-second classes of lattice) out of it
    return 100.0 * (n - 10) / n, hd_quantile(values, (n - 10) / n, n ** -0.5)


class Phase:
    """Results of one timed phase: ``latencies`` in wall seconds less the
    probes inside each item, ``scaled`` the same in reference-host
    seconds (see Sampler), ``digests`` the SHA-256 of each output of the
    first pass."""

    def __init__(self):
        self.intervals: list[tuple[float, float]] = []
        self.latencies: list[float] = []
        self.scaled: list[float] = []
        self.digests: list[str] = []
        self.failed = 0
        self.passes = 0


def end_to_end(scaled) -> dict[str, float]:
    return {
        "items_per_s": len(scaled) / math.fsum(scaled),
        "latency_p50_ms": hd_quantile(scaled, 0.5) * 1e3,
        "latency_tail_ms": tail_percentile(scaled)[1] * 1e3,
    }


def digest(item_digests) -> str:
    """Digest of a run's first-pass outputs: SHA-256 over the SHA-256 of
    each output, in item order, whichever part measured it."""
    return hashlib.sha256(
        b"".join(bytes.fromhex(d) for d in item_digests)).hexdigest()


def pass_count(workload, seconds: float) -> int:
    """Passes in a run of ``seconds``: ``seconds / pass_seconds``, rounded,
    at least one.  The count depends on nothing measured, so every commit
    and every host measures the same inputs, and the tail percentile means
    the same thing in every run."""
    return max(1, round(seconds / workload.pass_seconds))


def measure(workload, seed, passes, sampler, tracer=None, part=(0, 1)):
    """Run ``passes`` passes inside the entered ``sampler``; each item is
    timed alone, then checked.  Part ``(j, k)`` runs the j-th of k
    contiguous slices of every pass.  Traced items are numbered from 0;
    set-up spans keep item id -1."""
    phase = Phase()
    item_id = 0
    j, k = part
    while phase.passes < passes:
        items = workload.make_pass(seed, phase.passes)
        items = items[j * len(items) // k:(j + 1) * len(items) // k]
        workload.start_pass()
        for item in items:
            if tracer is not None:
                tracer.item = item_id
                tracer.active = True
            t0 = sampler.item_started = time.perf_counter()
            try:
                out = workload.run(item)
            except (Exception, SystemExit) as exc:
                out = exc
            t1 = time.perf_counter()
            if tracer is not None:
                tracer.active = False
            sampler.after_item()
            phase.intervals.append((t0, t1))
            item_id += 1
            if isinstance(out, BaseException):
                phase.failed += 1
                print(f"item {item!r} raised {out!r}", file=sys.stderr)
                continue
            try:
                ok = workload.check(item, out)
            except Exception as exc:
                print(f"checking {item!r} raised {exc!r}", file=sys.stderr)
                ok = False
            if not ok:
                phase.failed += 1
                print(f"item {item!r} failed its output check", file=sys.stderr)
            if phase.passes == 0:
                phase.digests.append(
                    hashlib.sha256(workload.encode(out)).hexdigest())
        phase.passes += 1
    sampler.take()
    timed = sampler.net(phase.intervals)
    phase.latencies = [wall for wall, _ in timed]
    phase.scaled = [ref for _, ref in timed]
    return phase


def setup(workload, cli, sampler) -> float:
    """Build the workload's fields and run its warm-up inputs; returns the
    seconds since process start, less the time spent generating the
    warm-up inputs (the benchmark's work, not the program's), scaled to
    the reference host."""
    t0 = time.perf_counter()
    inputs = workload.warmup()
    generating = time.perf_counter() - t0
    for p, alpha in workload.fields:
        field = cli._field(p, alpha)
        # what a field builds on first use is part of its construction:
        # its tables and its subfields; left to the first item of the
        # field, it would land on whichever item the seed puts first
        getattr(field, "mul_table", None)
        getattr(field, "add_table", None)
        for degree in range(1, alpha + 1):
            if alpha % degree == 0 and hasattr(field, "subfield"):
                sub = field.subfield(degree)
                getattr(sub, "elements", None)
                getattr(sub, "basis", None)
    workload.start_pass()
    for item in inputs:
        workload.run(item)
    sampler.take()
    (wall, ref), = sampler.net([(START, time.perf_counter())])
    return (wall - generating) * ref / wall


def run_parts(args) -> list[dict]:
    """Measure the run in PARTS fresh interpreters, one after another, each
    taking its slice of every pass (see measure).  Each part builds its
    own set-up; the speed of a whole process shifts by several percent
    from one start to the next, and pooling the items of several processes
    averages that out."""
    results = []
    for j in range(PARTS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--part", f"{j}/{PARTS}"],
            cwd=ROOT, capture_output=True, text=True, timeout=PART_TIMEOUT_S)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise SystemExit(f"error: part {j} of {args.workload} exited "
                             f"with code {proc.returncode}")
        results.append(json.loads(proc.stdout.splitlines()[-1]))
    return results


def metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def per_layer(tracer, traced, untraced, workload) -> dict:
    """Per-layer metrics of the traced phase; the Field constructor is
    reported over set-up, where fields are built."""
    summary = tracer.summary(lambda item: item >= 0)
    setup_summary = tracer.summary(lambda item: item < 0)
    item_time = math.fsum(traced.latencies)
    counters = tracer.counters

    def rec(name):
        return summary.get(name, {"calls": 0, "self_s": 0.0})

    out = {"ffield.Field.self_s": metric(
        setup_summary.get("ffield.Field", {"self_s": 0.0})["self_s"], "s")}
    for name, fields in (
            ("ffield.span", ("calls", "self_s")),
            ("ffield.Subspace", ("calls", "self_s")),
            ("agl.immediate_supergroups", ("self_s",)),
            ("agl.join", ("calls", "self_s")),
            ("agl.join_pair", ("calls", "self_s")),
            ("agl.class_representative", ("self_s",)),
            ("agl.Subgroup.orbits", ("self_s",)),
            ("counting.count_N", ("calls", "self_s")),
            ("counting.mult_order", ("calls", "self_s")),
            ("counting.class_shapes", ("self_s",)),
            ("counting.enumerate_params", ("self_s",)),
            ("counting.ClassParams", ("calls",)),
            ("oracle.count_N_bruteforce", ("self_s",)),
            ("oracle.is_exact_stabilizer", ("calls", "self_s")),
            ("oracle.lattice_terms", ("self_s",)),
            ("oracle.stabilizer", ("calls", "self_s")),
            ("designs.orbit_design", ("self_s",)),
            ("designs.design_to_code", ("self_s",)),
            ("designs.a2_determinations", ("self_s",)),
            ("cli.main", ("self_s",))):
        for field in fields:
            unit = "count" if field == "calls" else "s"
            out[f"{name}.{field}"] = metric(rec(name)[field], unit)

    calls = rec("counting.mult_order")["calls"]
    out["counting.mult_order.distinct_ratio"] = metric(
        len(tracer.mult_order_args) / calls if calls else 0.0, "ratio")
    scans = rec("oracle.is_exact_stabilizer")["calls"]
    out["oracle.exact_hit_ratio"] = metric(
        counters["oracle.exact_hits"] / scans if scans else 0.0, "ratio")
    out["oracle.candidates"] = metric(counters["oracle.candidates"], "count")
    out["oracle.maps_tested"] = metric(
        counters["oracle.maps_tested"], "count_computed")
    lookups = workload.cache_hits + workload.cache_misses
    out["oracle.lattice_terms.cache_hit_ratio"] = metric(
        workload.cache_hits / lookups if lookups else 0.0, "ratio")
    out["designs.pair_row_ops"] = metric(
        counters["designs.pair_row_ops"], "count_computed")
    out["cli.output_bytes"] = metric(workload.output_bytes, "bytes")

    for layer in tracer.layers:
        busy = math.fsum(r["self_s"] for n, r in summary.items()
                         if n.startswith(layer + "."))
        out[f"layer.{layer}.share"] = metric(busy / item_time, "ratio")
    out["trace.spans"] = metric(
        sum(r["calls"] for n, r in summary.items() if n != PROBE_SPAN),
        "count")
    base, with_trace = end_to_end(untraced.scaled), end_to_end(traced.scaled)
    for name, unit in (("items_per_s", "items/s"), ("latency_p50_ms", "ms"),
                       ("latency_tail_ms", "ms")):
        out[f"trace.overhead.{name}"] = metric(
            with_trace[name] - base[name], unit)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--part", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "aglstab" / "__init__.py").is_file():
        print(f"error: no aglstab sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if not args.trace and args.part is None:
        return report(args, run_parts(args))

    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    with Sampler() as sampler:
        from perfbench import spans, workloads
        from aglstab import cli
        if args.workload not in workloads.WORKLOADS:
            parser.error(f"unknown workload {args.workload!r}; choose from "
                         f"{', '.join(workloads.WORKLOADS)}")
        workload = workloads.WORKLOADS[args.workload]()
        passes = pass_count(workload, args.seconds)

        if args.part is not None:
            setup_s = setup(workload, cli, sampler)
            j, k = map(int, args.part.split("/"))
            phase = measure(workload, args.seed, passes, sampler, part=(j, k))
        else:
            tracer = spans.Tracer()
            sampler.probe = tracer.wrap(PROBE_SPAN, probe)
            tracer.install()
            tracer.active = True
            setup(workload, cli, sampler)
            tracer.active = False
            tracer.uninstall()
            untraced = measure(workload, args.seed, passes, sampler)
            tracer.install()
            tracer.counters.clear()
            tracer.mult_order_args.clear()
            workload.output_bytes = 0
            workload.cache_hits = workload.cache_misses = 0
            traced = measure(workload, args.seed, passes, sampler,
                             tracer=tracer)
            workload.start_pass()  # adds the last pass's cache statistics
            tracer.uninstall()

    if args.part is not None:
        probes = [d for _, _, d in sampler.samples]
        print(json.dumps({
            "setup_s": setup_s, "latencies": phase.latencies,
            "scaled": phase.scaled, "failed": phase.failed,
            "passes": phase.passes, "digests": phase.digests,
            "probes": len(probes), "probe_median": statistics.median(probes)}))
        return 0

    out = ROOT / ".perfbench_out" / f"spans-{args.workload}-{args.seed}.json.gz"
    tracer.write(out)
    print(f"{len(tracer.starts)} spans written to {out.relative_to(ROOT)}")
    phases = (untraced, traced)
    return finish(args, untraced.passes, untraced.digests,
                  sum(len(p.latencies) for p in phases),
                  sum(p.failed for p in phases),
                  per_layer(tracer, traced, untraced, workload))


def report(args, parts) -> int:
    """Pool the parts of an untraced run and print its end-to-end metrics."""
    latencies = [x for part in parts for x in part["latencies"]]
    scaled = [x for part in parts for x in part["scaled"]]
    setups = [part["setup_s"] for part in parts]
    e2e = end_to_end(scaled)
    metrics = {
        "items_per_s": metric(e2e["items_per_s"], "items/s"),
        "latency_p50_ms": metric(e2e["latency_p50_ms"], "ms"),
        "latency_tail_ms": metric(e2e["latency_tail_ms"], "ms"),
        "setup_s": metric(statistics.median(setups), "s"),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
            "MiB"),
    }
    print(f"latency_tail_ms is p{tail_percentile(scaled)[0]:.2f} "
          f"of {len(scaled)} items in {len(parts)} processes; unscaled "
          f"items_per_s {len(latencies) / math.fsum(latencies):.4f}; "
          f"{sum(part['probes'] for part in parts)} probes, median "
          f"{statistics.median(p['probe_median'] for p in parts) * 1e3:.4f}"
          " ms; "
          f"set-up samples {', '.join(f'{s:.4f}' for s in setups)} s")
    return finish(args, parts[0]["passes"],
                  [d for part in parts for d in part["digests"]],
                  len(latencies), sum(part["failed"] for part in parts),
                  metrics)


def finish(args, passes, item_digests, attempted, failed, metrics) -> int:
    """Check the seed-0 digest and print the result line."""
    got = digest(item_digests)
    data = json.loads((Path(__file__).parent / "data.json").read_text())
    expected = data["digests"].get(args.workload)
    digest_ok = (args.seed != DEFAULT_SEED or expected is None
                 or got == expected)
    print(f"{args.workload} seed {args.seed}: {passes} passes, "
          f"digest of the first pass {got}"
          + ("" if digest_ok else f" != recorded {expected}"))
    print(f"failed_frac = {failed}/{attempted}")
    print(json.dumps({"correct": failed == 0 and digest_ok,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
