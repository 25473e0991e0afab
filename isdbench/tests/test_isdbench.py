"""The benchmark's own tests: every workload runs to its end in short mode,
and every output check rejects a deliberately corrupted result.

    python3 -m pytest isdbench/tests
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import benchenv  # noqa: E402

benchenv.prepare()

import checks  # noqa: E402
import isdtest  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((benchenv.ROOT / "BENCHMARK.json").read_text())


def _run(cwd, *args):
    return subprocess.run([sys.executable, str(Path(cwd) / "isdbench" / "run.py"), *args],
                          capture_output=True, text=True, timeout=300, cwd=cwd)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_short_run_reports_every_metric(name, trace):
    proc = _run(benchenv.ROOT, "--workload", name, "--seed", "3", "--seconds", "0.2",
                "--trace", str(trace), "--short")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        k: v["unit"] for k, v in result["metrics"].items()}


def test_run_fails_without_the_package(tmp_path):
    shutil.copy(benchenv.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "isdbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "test_indep", "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.fixture(scope="module")
def indep_result():
    wl = workloads.IndepWorkload(5, True, None)
    s1, s2 = wl.ingest(wl.generate())
    cfg = wl.config("up", "sup", bootstrap=49, seed=1)
    res = isdtest.run_test(s1, s2, cfg)
    assert res.statistic > 0
    return res, s1.values, s2.values, cfg


def test_flipped_reject_is_caught(indep_result):
    res = indep_result[0]
    checks.check_decision(res, "intact")
    with pytest.raises(checks.CheckFailed):
        checks.check_decision(dataclasses.replace(res, reject=not res.reject), "flipped")


@pytest.mark.parametrize("direction", ["up", "down"])
@pytest.mark.parametrize("kind", ["sup", "int"])
def test_statistic_off_by_1e6_relative_is_caught(direction, kind):
    wl = workloads.IndepWorkload(7, True, None)
    s1, s2 = wl.ingest(wl.generate())
    cfg = wl.config(direction, kind, bootstrap=9, seed=1)
    res = isdtest.run_test(s1, s2, cfg)
    args = (s1.values, s2.values, 3, direction, kind, cfg.grid)
    checks.check_statistic(res, *args, "intact")
    for factor in (1 + 1e-6, 1 - 1e-6):
        bad = dataclasses.replace(res, statistic=res.statistic * factor)
        with pytest.raises(checks.CheckFailed):
            checks.check_statistic(bad, *args, "corrupted")


def test_nonzero_statistic_on_the_dominating_side_is_caught(indep_result):
    res = indep_result[0]
    with pytest.raises(checks.CheckFailed):
        checks.check_dominating_side(res, "not planted")
    with pytest.raises(checks.CheckFailed):
        checks.check_dominated_side(dataclasses.replace(res, reject=False), "not rejected")


def test_changed_rerun_is_caught(indep_result):
    res = indep_result[0]
    checks.check_repeat(res, dataclasses.replace(res, elapsed_ms=0.0), "wall time only")
    with pytest.raises(checks.CheckFailed):
        checks.check_repeat(res, dataclasses.replace(res, p_value=res.p_value + 0.001), "changed")


def test_rates_out_of_order_in_tau_are_caught():
    wl = workloads.SimulateWorkload(2, True, None)
    results = isdtest.run_table(wl.specs(11))
    series = {}
    for res in results:
        series.setdefault(wl._key(res.spec), []).append((res.spec.config.tau, res.rejection_rate))
    checks.check_tau_order(series, "intact")
    key, cells = next((k, sorted(v)) for k, v in series.items() if len({r for _, r in v}) > 1)
    reversed_rates = list(zip([t for t, _ in cells], [r for _, r in reversed(cells)]))
    with pytest.raises(checks.CheckFailed):
        checks.check_tau_order({**series, key: reversed_rates}, "out of order")


def test_rate_outside_the_binomial_tolerance_is_caught():
    low, high = checks.rate_bounds(0.878, 500, 1000)
    assert low < 0.878 < high
    checks.check_rate(0.878, 500, 0.878, 1000, "published")
    with pytest.raises(checks.CheckFailed):
        checks.check_rate(low - 0.002, 500, 0.878, 1000, "too low")
    with pytest.raises(checks.CheckFailed):
        checks.check_rate(0.2, 500, 0.05, None, "size far above nominal")


def test_swapped_rank_cell_is_caught(tmp_path):
    wl = workloads.RankWorkload(4, True, tmp_path)
    paths = wl.ingest(wl.generate())
    op = wl.round(paths, 0)[0]
    code, payload = op.collect(op.call())
    labels = [Path(p).stem for p in paths]
    assert code == 0
    checks.check_rank_report(payload, wl.expected_config(), labels, "intact")
    report = json.loads(payload)
    report["result"]["relation"][0][2] = ">"
    with pytest.raises(checks.CheckFailed):
        checks.check_rank_report(json.dumps(report).encode(), wl.expected_config(), labels,
                                 "swapped")
    report = json.loads(payload)
    report["config"]["bootstrap"] += 1
    with pytest.raises(checks.CheckFailed):
        checks.check_rank_report(json.dumps(report).encode(), wl.expected_config(), labels,
                                 "wrong echo")


def test_tracer_restores_the_package_and_accounts_for_op_time():
    original = isdtest.run_test
    wl = workloads.IndepWorkload(1, True, None)
    data = wl.ingest(wl.generate())
    op = wl.round(data, 0)[0]
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert isdtest.run_test is not original
        start = spans.perf_counter()
        op.call()
        ops = [(start, spans.perf_counter())]
    finally:
        tracer.uninstall()
    assert isdtest.run_test is original
    assert isdtest.inference.eval_on_grid is isdtest.curves.eval_on_grid
    stats = tracer.layer_stats(ops)
    assert stats["inference.calls"][0] >= 1 and stats["curves.calls"][0] >= 1
    assert stats["curves.points"][0] > 0 and stats["bootstrap.weights"][0] > 0
    self_total = sum(v for k, (v, _) in stats.items() if k.endswith(".self_ms"))
    assert 0.9 < stats["trace.coverage"][0] <= 1.0
    assert self_total == pytest.approx(stats["trace.coverage"][0] * (ops[0][1] - ops[0][0]) * 1e3)
