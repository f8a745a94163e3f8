import statistics

import pytest

import run
from stats import percentile, quartile_spread


def test_percentile_interpolates_between_closest_ranks():
    xs = [4.0, 1.0, 3.0, 2.0]
    assert percentile(xs, 0.0) == 1.0
    assert percentile(xs, 1.0) == 4.0
    assert percentile(xs, 0.5) == 2.5
    assert percentile(xs, 0.9) == pytest.approx(3.7)
    assert percentile([5.0], 0.9) == 5.0


def test_percentile_matches_inclusive_quantiles():
    xs = [0.3, 9.1, 2.2, 7.7, 5.0, 1.4, 8.8, 6.1, 3.3, 4.9, 0.1]
    cuts = statistics.quantiles(xs, n=10, method="inclusive")
    assert percentile(xs, 0.9) == pytest.approx(cuts[8])
    assert percentile(xs, 0.5) == pytest.approx(statistics.median(xs))


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        percentile([], 0.5)
    with pytest.raises(ValueError):
        percentile([1.0], 1.5)


def test_quartile_spread_is_a_share_of_the_median():
    values = [float(v) for v in range(1, 11)]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert quartile_spread(values) == pytest.approx((q3 - q1) / 5.5)


def _pass(seconds, scenarios):
    # Pass times far above the decisions': throughput must read the decisions.
    return run.Pass([run.Record(f"i{k}", s, None, n) for k, (s, n) in
                     enumerate(zip(seconds, scenarios))], 1.0, 2.0)


def test_end_to_end_averages_per_pass_figures():
    passes = [
        _pass([0.001, 0.002, 0.010], [1, 1, 2]),
        _pass([0.002, 0.004, 0.020], [1, 1, 2]),
        _pass([0.003, 0.006, 0.030], [1, 1, 2]),
    ]
    m = run.end_to_end(passes, [0.5, 0.1, 0.3], cli_cold=False)
    assert m["verdict_ms_p50"] == pytest.approx((2.0 + 4.0 + 6.0) / 3)
    p90 = [percentile([k, 2 * k, 10 * k], 0.9) for k in (1.0, 2.0, 3.0)]
    assert m["verdict_ms_p90"] == pytest.approx(sum(p90) / 3)
    assert m["scenarios_per_s"] == pytest.approx(12 / 0.078)
    assert m["setup_s"] == pytest.approx(0.3)
    assert m["peak_rss_mb"] > 0


def test_failed_decisions_count_against_attempted(capsys):
    passes = [run.Pass([run.Record("a", 0.001, None, 3),
                        run.Record("b", None, "exit code 2", 0)], 0.01, 0.01)]
    env = {"workload": "w", "seed": 0, "trace": False}
    metrics = {name: 1.0 for name in run.END_TO_END}
    assert run.report(env, passes, metrics, run.END_TO_END, {}) is False
    lines = capsys.readouterr().out.strip().splitlines()
    assert "failed_share 0.5 share (1/2)" in lines
    last = run.json.loads(lines[-1])
    assert (last["correct"], last["attempted"], last["failed"]) == (False, 2, 1)
    assert set(last["metrics"]) == set(run.END_TO_END)
