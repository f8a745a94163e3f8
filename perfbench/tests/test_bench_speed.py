import time

import pytest

import run
import speed


def spin(seconds=0.002):
    end = time.thread_time() + seconds
    while time.thread_time() < end:
        pass


def test_sample_runs_loops_for_its_share_of_the_measured_time():
    s = speed.Speed(0.1, spin)
    factor = s.sample(0.1)
    assert s.seconds >= 0.01
    assert s.loops == pytest.approx(5, abs=1)
    assert factor == pytest.approx(speed.REFERENCE_S / 0.002, rel=0.2)
    assert factor == pytest.approx(s.factor)


def test_no_loop_runs_while_none_is_owed():
    s = speed.Speed(0.1, spin)
    s.sample(0.1)
    loops = s.loops
    assert s.sample(0.0) is None
    assert s.loops == loops
    assert s.sample(0.0, at_least_one=True) > 0
    assert s.loops == loops + 1


def test_ticking_runs_loops_inside_a_long_measurement():
    s = speed.Speed(0.5, spin)  # a loop every 2 * REFERENCE_S of CPU time
    before = speed.Speed.spent
    with s.ticking():
        spin(0.1)
    assert s.loops >= 3
    assert speed.Speed.spent - before == pytest.approx(s.seconds)
    assert s.sample(0.0) == pytest.approx(s.factor)


def test_the_runner_clock_leaves_reference_loops_out():
    s = speed.Speed(0.1, lambda: spin(0.02))
    start = run.cpu_seconds()
    s.sample(0.0, at_least_one=True)
    assert run.cpu_seconds() - start < 0.01


def test_the_reference_loop_does_fixed_work():
    assert speed.reference_loop() == speed.reference_loop()
