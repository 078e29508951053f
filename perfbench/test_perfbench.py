"""Tests of the benchmark's own helpers, plus a tiny run of every workload."""

import pytest

from perfbench import run, spans, workloads


def test_tail_percentile_keeps_ten_samples_beyond():
    pct, value = run.tail_percentile(range(1, 101))
    assert pct == 90.0 and value == pytest.approx(90.77, abs=0.01)
    pct, value = run.tail_percentile([5, 1, 4, 2, 3, 9, 8, 7, 6, 10, 11])
    assert pct == pytest.approx(100 / 11) and 1 < value < 2
    # too few samples for any percentile: the maximum, at 100
    assert run.tail_percentile([3, 1, 2]) == (100.0, 3)


def test_hd_quantile_is_exact_on_symmetric_samples_and_smooth():
    assert run.hd_quantile(range(1, 102), 0.5) == pytest.approx(51)
    assert run.hd_quantile([3.0], 0.5) == pytest.approx(3.0)
    # one sample crossing the middle moves the plain median from 1.5 to 2
    # but the estimate only a little
    even = run.hd_quantile([1] * 50 + [2] * 50, 0.5)
    moved = run.hd_quantile([1] * 49 + [2] * 51, 0.5)
    assert even == pytest.approx(1.5) and 0 < moved - even < 0.2
    # trimmed, a tail estimate keeps huge outliers out
    heavy = list(range(1, 59)) + [1000, 2000, 3000, 4000, 5000]
    assert 53 < run.tail_percentile(heavy)[1] < 55


def test_self_time_subtracts_nested_and_overlapping_children():
    # root [0, 100]; a [10, 40] holds g [15, 20]; b [30, 60] overlaps a;
    # c [90, 120] runs past the root and is clipped at 100.  Listed out of
    # start order on purpose.
    spans_ = {"root": (0, 100, None), "c": (90, 120, "root"),
              "a": (10, 40, "root"), "g": (15, 20, "a"),
              "b": (30, 60, "root")}
    names = list(spans_)
    starts = [spans_[n][0] for n in names]
    ends = [spans_[n][1] for n in names]
    parents = [-1 if spans_[n][2] is None else names.index(spans_[n][2])
               for n in names]
    got = dict(zip(names, spans.self_times(starts, ends, parents)))
    assert got == {"root": 100 - (50 + 10), "a": 25, "g": 5, "b": 30,
                   "c": 30}


def test_self_time_of_a_child_inside_an_earlier_sibling():
    got = list(spans.self_times([0, 10, 20], [100, 60, 30], [-1, 0, 0]))
    assert got == [50, 50, 10]


TINY = {
    "table": lambda: workloads.Table(strata=[[101, 103], [128, 131]]),
    "count_mix": lambda: workloads.CountMix(size=30),
    "verify": lambda: workloads.Verify(qs=(5, 7)),
    "lattice": lambda: workloads.Lattice(qs=(8, 9)),
    "design": lambda: workloads.Design(qs=(7, 8)),
}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generators_are_seed_deterministic(name):
    a, b = workloads.WORKLOADS[name](), workloads.WORKLOADS[name]()
    for index in (0, 1):
        assert a.make_pass(7, index) == b.make_pass(7, index)
    assert a.make_pass(7, 0) != a.make_pass(8, 0)


def test_tiny_workloads_cover_every_workload():
    assert set(TINY) == set(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_run_passes_its_output_checks(name):
    with run.Sampler() as sampler:
        phase = run.measure(TINY[name](), seed=1, passes=1, sampler=sampler)
    assert phase.passes == 1 and phase.latencies and phase.failed == 0
    e2e = run.end_to_end(phase.scaled)
    assert all(value > 0 for value in e2e.values())


def test_traced_tiny_run_records_spans_and_restores_the_library():
    from aglstab import counting, designs
    original = counting.count_N
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert designs.count_N is not original
        with run.Sampler() as sampler:
            phase = run.measure(TINY["verify"](), seed=1, passes=1,
                                sampler=sampler, tracer=tracer)
    finally:
        tracer.uninstall()
    assert designs.count_N is original and counting.count_N is original
    assert phase.failed == 0
    summary = tracer.summary(lambda item: item >= 0)
    assert summary["oracle.is_exact_stabilizer"]["calls"] > 0
    assert summary["counting.count_N"]["calls"] == len(phase.latencies)
    assert tracer.counters["oracle.maps_tested"] > 0
    assert all(rec["self_s"] >= 0 for rec in summary.values())
