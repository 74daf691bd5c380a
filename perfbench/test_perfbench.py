"""Tests of the benchmark's own oracle, tracer and op scoring."""

import importlib
import signal
import sys
import time

import pytest

import harness
import mobius
import refclock
import tracing
import workloads
from braidlex import automaton as am
from braidlex import cli
from braidlex import spectral as sp

KS = (0, 1, 5, 20, 60)


@pytest.mark.parametrize("n", range(1, 8))
def test_mobius_coefficients_equal_count_words(n):
    a = am.build(n)
    c = mobius.coefficients(n, max(KS))
    for k in KS:
        assert am.count_words(a, k)[1] == c[k], (n, k)


@pytest.mark.parametrize("n", range(2, 10))
def test_mobius_root_equals_perron(n):
    lam = sp.analyze(am.build(n)).result.lam
    assert abs(mobius.growth_rate(n) - lam) < 1e-11


def test_single_coefficient_equals_the_series():
    for n in (0, 1, 3, 9):
        c = mobius.coefficients(n, 300)
        assert [mobius.coefficient(n, k) for k in (0, 1, 7, 300)] == [c[0], c[1], c[7], c[300]]


def test_denominator_small_cases():
    assert mobius.denominator(1) == [1, -1]
    assert mobius.denominator(2) == [1, -2, 0, 1]       # (1 - t)(1 - t - t^2)
    assert abs(mobius.growth_rate(2) - (1 + 5 ** 0.5) / 2) < 1e-15


def _bindings():
    mods = [importlib.import_module(f"braidlex.{m}") for m in tracing.MODULES]
    return {(m.__name__, k): v for m in mods for k, v in vars(m).items() if callable(v)}


def test_wrappers_cover_by_name_imports_and_restore():
    before = _bindings()
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracing.installed(tracer):
            from braidlex import automaton, spectral
            for mod in (automaton, spectral):
                assert mod.recurrent_matrix.__wrapped__ is before[(mod.__name__, "recurrent_matrix")]
            assert cli.main(["table", "--from", "2", "--to", "3"]) == 0
            raise RuntimeError("leave the block early")
    assert _bindings() == before
    calls = tracer.calls()
    assert calls["cli.cmd_table"] == 1
    assert calls["spectral.analyze"] == 2
    assert calls["automaton.recurrent_states"] == 4     # proportions re-runs it
    assert tracer.counts["automaton.states"] == 5 + 18


def test_self_times_partition_the_root_span():
    tracer = tracing.Tracer()
    with tracer.span("root"):
        with tracer.span("child"):
            with tracer.span("leaf"):
                sum(range(10_000))
        with tracer.span("child"):
            pass
    _, start, end, _ = tracer.spans[0]
    self_s = tracer.self_times()
    assert set(self_s) == {"root", "child", "leaf"}
    assert min(self_s.values()) >= 0
    assert sum(self_s.values()) == pytest.approx(end - start)


def test_ops_are_scored():
    ops = [
        workloads.Op(("states", "3"), workloads.check_states(3)),
        workloads.Op(("states", "3"), workloads.check_states(4)),   # wrong expectation
        workloads.Op(("states", "0"), workloads.check_states(0)),   # exits 6
    ]
    res = harness.run_ops(ops, cli.main)
    assert (res.attempted, res.failed, res.wrong) == (3, 2, 1)
    assert "wrong output" in res.failures[0]
    assert "states 0: exit 6" in res.failures[1]


def test_count_check_reads_past_the_digit_cap():
    default = sys.get_int_max_str_digits()
    total = mobius.coefficients(3, 14000)[14000]
    with workloads.unlimited_int_digits():
        good = f"total {total}\nper-state {total}" + " 0" * 17 + "\n"
        bad = f"total {total + 1}\nper-state {total + 1}" + " 0" * 17 + "\n"
    check = workloads.check_count(3, 14000, False)
    check(good)
    with pytest.raises(workloads.CheckFailed):
        check(bad)
    assert sys.get_int_max_str_digits() == default


def test_rescaled_time_weights_each_stretch_by_its_warm_sample():
    clock = refclock.Sampler()
    clock.start, clock.stop = 0.0, 1.0
    ref = refclock.REF_S
    # (tick start, whole tick, warm sample); the last tick starts after stop
    clock.marks = [(0.4, 5 * ref, 2 * ref), (0.7, ref, ref / 2), (1.5, 2 * ref, ref)]
    want = 0.4 / 2 + (0.7 - (0.4 + 5 * ref)) * 2 + (1.0 - (0.7 + ref))
    assert clock.rescaled() == pytest.approx(want)
    assert clock.sampled_s == pytest.approx(6 * ref)
    assert clock.slowdown == pytest.approx(3.5 / 3)


def test_sampler_samples_and_restores_the_alarm_handler():
    before = signal.getsignal(signal.SIGALRM)
    with refclock.Sampler(interval=0.01) as clock:
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert len(clock.marks) >= 5
    assert all(tick > warm > 0 for _, tick, warm in clock.marks)
    assert 0 < clock.rescaled()


def test_span_cost_is_small_and_positive():
    assert 0 < tracing.span_cost() < 1e-3
