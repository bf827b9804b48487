"""Tests for repro.obs.bench and the ``repro bench`` CLI gate.

Timing *values* are machine-dependent, so these tests pin everything
else: the calibration protocol (warmup + inner loops + repeats), the
schema-versioned payload shape and its determinism across runs, and —
most importantly — the comparison gate's verdicts on constructed
payloads, where an injected 2x slowdown must flag and a clean self
comparison must not.
"""

import copy
import json

import pytest

from repro.cli import main
from repro.obs import bench


# ----------------------------------------------------------------------
# Measurement primitives
# ----------------------------------------------------------------------
class TestRobustStats:
    def test_known_population(self):
        stats = bench.robust_stats([1.0, 2.0, 3.0, 4.0, 100.0])
        assert stats["median_s"] == 3.0
        assert stats["min_s"] == 1.0
        assert stats["max_s"] == 100.0
        assert stats["mean_s"] == pytest.approx(22.0)
        assert stats["iqr_s"] == pytest.approx(2.0)  # q75=4, q25=2
        assert stats["mad_s"] == pytest.approx(1.0)

    def test_outlier_does_not_drag_median(self):
        clean = bench.robust_stats([1.0] * 9)
        spiked = bench.robust_stats([1.0] * 9 + [50.0])
        assert spiked["median_s"] == clean["median_s"] == 1.0

    def test_single_sample(self):
        stats = bench.robust_stats([2.5])
        assert stats["median_s"] == 2.5
        assert stats["iqr_s"] == 0.0
        assert stats["mad_s"] == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            bench.robust_stats([])


class TestMeasure:
    def test_calls_warmup_plus_calibration_plus_samples(self):
        calls = {"n": 0}

        def fn():
            """Count invocations."""
            calls["n"] += 1

        stats = bench.measure(
            fn, warmup=2, repeats=3, min_sample_s=0.0, max_total_s=0.01
        )
        # warmup + calibration sample (loops=1) + 2 more samples
        assert calls["n"] == 2 + stats["inner_loops"] * stats["repeats"]
        assert stats["repeats"] == 3
        assert stats["warmup"] == 2
        assert len(stats["samples_s"]) == 3
        assert stats["median_s"] >= 0.0

    def test_inner_loops_grow_for_fast_functions(self):
        stats = bench.measure(
            lambda: None, quick=True, repeats=3, min_sample_s=0.001
        )
        assert stats["inner_loops"] > 1

    def test_auto_repeats_within_bounds(self):
        stats = bench.measure(lambda: None, quick=True, min_sample_s=0.0005)
        assert 5 <= stats["repeats"] <= 9


class TestFingerprint:
    def test_fields(self):
        fp = bench.machine_fingerprint()
        assert set(fp) == {"python", "implementation", "platform",
                           "machine", "cpu_count", "numpy"}
        assert fp["cpu_count"] >= 1
        json.dumps(fp)  # must serialize


# ----------------------------------------------------------------------
# Suites and payload shape
# ----------------------------------------------------------------------
class TestRunSuite:
    def test_unknown_suite(self):
        with pytest.raises(KeyError, match="unknown bench suite"):
            bench.run_suite("nope", quick=True)

    def test_available_suites_cover_issue_floor(self):
        suites = bench.available_suites()
        assert {"layout", "aggregation", "render"} <= set(suites)
        assert {"signals", "sim", "server"} <= set(suites)

    def test_case_requires_exactly_one_of_make_or_runner(self):
        with pytest.raises(ValueError, match="exactly one"):
            bench.BenchCase("both", make=lambda: (lambda: None),
                            runner=lambda quick: {})
        with pytest.raises(ValueError, match="exactly one"):
            bench.BenchCase("neither")

    def test_runner_cases_bypass_measure(self, monkeypatch):
        """A runner case's stats dict lands in the payload verbatim;
        measure() is never consulted for it."""
        seen: list[bool] = []

        def fake_runner(quick):
            seen.append(quick)
            return {
                "median_s": 0.25, "iqr_s": 0.01, "mad_s": 0.005,
                "mean_s": 0.26, "min_s": 0.2, "max_s": 0.3,
                "repeats": 4, "inner_loops": 1, "warmup": 0,
                "samples_s": [0.2, 0.25, 0.26, 0.3],
            }

        def fake_suite(quick):
            return [bench.BenchCase("rt", runner=fake_runner,
                                    params={"sessions": 2})]

        monkeypatch.setitem(bench._SUITES, "fake", fake_suite)
        payload = bench.run_suite("fake", quick=True)
        assert seen == [True]
        stats = payload["cases"]["rt"]
        assert stats["median_s"] == 0.25
        assert stats["params"] == {"sessions": 2}

    def test_cases_are_sampled_round_robin(self, monkeypatch):
        """After each case's warmup and calibration, every round calls
        each case once per inner loop, in suite order."""
        calls: list[str] = []

        def fake_suite(quick):
            return [
                bench.BenchCase(name, lambda name=name: (
                    lambda: calls.append(name)))
                for name in ("a", "b")
            ]

        monkeypatch.setitem(bench._SUITES, "fake", fake_suite)
        payload = bench.run_suite(
            "fake", quick=True, warmup=1, repeats=4, min_sample_s=0.0
        )
        # warmup + calibration of a, then of b; then 3 alternating rounds.
        assert calls == ["a", "a", "b", "b"] + ["a", "b"] * 3
        assert payload["round_robin"] == ["a", "b"]
        for name in ("a", "b"):
            assert payload["cases"][name]["inner_loops"] == 1
            assert len(payload["cases"][name]["samples_s"]) == 4

    def test_quick_payload_shape_is_deterministic(self):
        """Two quick runs: same schema, same case names, same params —
        only the measured numbers may differ."""
        a = bench.run_suite("signals", quick=True, repeats=3,
                            min_sample_s=0.0002, max_total_s=0.01)
        b = bench.run_suite("signals", quick=True, repeats=3,
                            min_sample_s=0.0002, max_total_s=0.01)
        for payload in (a, b):
            assert payload["schema"] == bench.SCHEMA
            assert payload["suite"] == "signals"
            assert payload["quick"] is True
            assert payload["machine"] == bench.machine_fingerprint()
        assert sorted(a["cases"]) == sorted(b["cases"])
        for name in a["cases"]:
            assert a["cases"][name]["params"] == b["cases"][name]["params"]
            assert set(a["cases"][name]) == set(b["cases"][name])

    def test_case_stats_fields(self):
        payload = bench.run_suite("signals", quick=True, repeats=3,
                                  min_sample_s=0.0002, max_total_s=0.01)
        for stats in payload["cases"].values():
            assert {"median_s", "iqr_s", "mad_s", "mean_s", "min_s",
                    "max_s", "repeats", "inner_loops", "warmup",
                    "samples_s", "params"} <= set(stats)
            assert stats["median_s"] > 0.0

    def test_write_load_round_trip(self, tmp_path):
        payload = bench.run_suite("signals", quick=True, repeats=3,
                                  min_sample_s=0.0002, max_total_s=0.01)
        path = bench.write_result(payload, tmp_path)
        assert path.name == "BENCH_signals.json"
        again = bench.load_result(path)
        assert again == json.loads(json.dumps(payload))  # float-exact

    def test_load_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        path.write_text('{"kernels": {}}')
        with pytest.raises(ValueError, match="not a repro-bench result"):
            bench.load_result(path)


class TestSpeedup:
    @staticmethod
    def payload(slow, fast, paired=("slow", "fast")) -> dict:
        """A hand-built suite payload holding two cases' samples."""
        return {
            "cases": {
                "slow": {"samples_s": slow},
                "fast": {"samples_s": fast},
            },
            "round_robin": list(paired),
        }

    def test_median_of_per_round_ratios(self):
        # Per-round ratios 2, 5, 3: the median is 3, while the ratio
        # of the medians (4.0 / 1.0) would read 4.
        result = self.payload([4.0, 5.0, 3.0], [2.0, 1.0, 1.0])
        assert bench.speedup(result, "slow", "fast") == 3.0

    def test_even_round_count_interpolates(self):
        result = self.payload([2.0, 4.0], [1.0, 1.0])
        assert bench.speedup(result, "slow", "fast") == 3.0

    def test_runner_case_refused(self):
        result = self.payload([2.0, 4.0], [1.0, 1.0], paired=("slow",))
        with pytest.raises(ValueError, match="'fast'"):
            bench.speedup(result, "slow", "fast")

    def test_runner_case_of_a_suite_run_refused(self, monkeypatch):
        def runner(quick):
            return {"median_s": 1.0, "samples_s": [1.0, 1.0, 1.0]}

        def fake_suite(quick):
            return [
                bench.BenchCase("made", lambda: (lambda: None)),
                bench.BenchCase("storm", runner=runner),
            ]

        monkeypatch.setitem(bench._SUITES, "fake", fake_suite)
        result = bench.run_suite("fake", quick=True, repeats=3,
                                 min_sample_s=0.0)
        assert result["round_robin"] == ["made"]
        with pytest.raises(ValueError, match="rounds"):
            bench.speedup(result, "storm", "made")

    def test_unequal_sample_counts_refused(self):
        result = self.payload([2.0, 4.0, 3.0], [1.0, 1.0])
        with pytest.raises(ValueError, match="same rounds"):
            bench.speedup(result, "slow", "fast")


# ----------------------------------------------------------------------
# The comparison gate (constructed payloads: fully deterministic)
# ----------------------------------------------------------------------
def payload_with(cases: dict, quick: bool = True) -> dict:
    """A minimal bench payload holding *cases* (median/iqr pairs)."""
    return {
        "schema": bench.SCHEMA,
        "suite": "t",
        "quick": quick,
        "cases": {
            name: {"median_s": median, "iqr_s": iqr, "params": {}}
            for name, (median, iqr) in cases.items()
        },
    }


class TestCompare:
    def test_clean_self_comparison_passes(self):
        current = payload_with({"a": (0.100, 0.002), "b": (0.050, 0.001)})
        comps = bench.compare_results(current, copy.deepcopy(current))
        assert [c["status"] for c in comps] == ["ok", "ok"]
        assert not bench.has_regression(comps)

    def test_injected_2x_slowdown_flags(self):
        baseline = payload_with({"a": (0.100, 0.002)})
        slowed = payload_with({"a": (0.200, 0.002)})
        comps = bench.compare_results(slowed, baseline,
                                      rel_tol=0.5, iqr_k=3.0)
        (comp,) = comps
        assert comp["status"] == "regressed"
        assert comp["ratio"] == pytest.approx(2.0)
        assert bench.has_regression(comps)

    def test_noise_band_tolerates_jittery_small_excess(self):
        """A 60% median bump inside a huge jitter band is not flagged:
        the IQR term of max(rel_tol*base, k*IQR) dominates."""
        baseline = payload_with({"a": (0.100, 0.030)})
        jittery = payload_with({"a": (0.160, 0.030)})
        comps = bench.compare_results(jittery, baseline,
                                      rel_tol=0.5, iqr_k=3.0)
        assert comps[0]["status"] == "ok"  # 0.06 excess < 3*0.03

    def test_small_relative_change_passes(self):
        baseline = payload_with({"a": (0.100, 0.001)})
        wobble = payload_with({"a": (0.110, 0.001)})
        comps = bench.compare_results(wobble, baseline)
        assert comps[0]["status"] == "ok"

    def test_speedup_never_flags(self):
        baseline = payload_with({"a": (0.100, 0.001)})
        faster = payload_with({"a": (0.010, 0.001)})
        assert not bench.has_regression(
            bench.compare_results(faster, baseline)
        )

    def test_new_and_missing_cases_reported_not_failed(self):
        baseline = payload_with({"old": (0.1, 0.001), "both": (0.1, 0.001)})
        current = payload_with({"new": (0.1, 0.001), "both": (0.1, 0.001)})
        comps = {c["case"]: c for c in
                 bench.compare_results(current, baseline)}
        assert comps["old"]["status"] == "missing"
        assert comps["new"]["status"] == "new"
        assert comps["both"]["status"] == "ok"
        assert not bench.has_regression(list(comps.values()))

    def test_mode_mismatch_refused(self):
        with pytest.raises(ValueError, match="refusing to compare"):
            bench.compare_results(
                payload_with({}, quick=True), payload_with({}, quick=False)
            )

    def test_format_comparison_mentions_verdicts(self):
        baseline = payload_with({"a": (0.100, 0.002)})
        slowed = payload_with({"a": (0.300, 0.002)})
        text = bench.format_comparison(
            "layout", bench.compare_results(slowed, baseline)
        )
        assert "regressed" in text and "[layout]" in text


# ----------------------------------------------------------------------
# CLI end to end
# ----------------------------------------------------------------------
class TestBenchCli:
    def test_list(self, capsys):
        assert main(["bench", "--list"]) == 0
        out = capsys.readouterr().out.split()
        assert "layout" in out and "aggregation" in out and "render" in out

    def test_unknown_suite_exits_2(self, capsys):
        assert main(["bench", "--suites", "nope"]) == 2
        assert "unknown suite" in capsys.readouterr().err

    def test_quick_run_writes_schema_versioned_file(self, tmp_path, capsys):
        code = main(["bench", "--quick", "--suites", "signals",
                     "--out-dir", str(tmp_path)])
        assert code == 0
        payload = json.loads((tmp_path / "BENCH_signals.json").read_text())
        assert payload["schema"] == bench.SCHEMA
        assert payload["quick"] is True
        assert "BENCH_signals.json" in capsys.readouterr().out

    def test_env_quick_mode_respected(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_QUICK", "1")
        assert main(["bench", "--suites", "signals",
                     "--out-dir", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "BENCH_signals.json").read_text())
        assert payload["quick"] is True

    def test_compare_clean_rerun_exits_zero(self, tmp_path, capsys,
                                             monkeypatch):
        """A rerun whose every median drifted 1.4x stays inside
        ``--rel-tol 0.5``: the gate passes.  The rerun is the first
        run's payload so scaled, whatever the host's speed."""
        base_dir = tmp_path / "base"
        assert main(["bench", "--quick", "--suites", "signals",
                     "--out-dir", str(base_dir)]) == 0
        first = json.loads((base_dir / "BENCH_signals.json").read_text())
        drifted = copy.deepcopy(first)
        for stats in drifted["cases"].values():
            stats["median_s"] *= 1.4
        monkeypatch.setattr(bench, "run_suite", lambda name, quick: drifted)
        code = main(["bench", "--quick", "--suites", "signals",
                     "--out-dir", str(tmp_path / "fresh"),
                     "--compare", str(base_dir), "--rel-tol", "0.5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "compare [signals]" in out and "regressed" not in out

    def test_compare_flags_injected_10x_slowdown(self, tmp_path, capsys):
        """Scaling the baseline's medians by 0.1 makes the (unchanged)
        current run look 10x slower — the gate must exit 3.  The rerun
        trips it unless it is over 6x faster than the first run, far
        outside host drift."""
        base_dir = tmp_path / "base"
        assert main(["bench", "--quick", "--suites", "signals",
                     "--out-dir", str(base_dir)]) == 0
        path = base_dir / "BENCH_signals.json"
        doctored = json.loads(path.read_text())
        for stats in doctored["cases"].values():
            stats["median_s"] *= 0.1
            stats["iqr_s"] *= 0.1
        path.write_text(json.dumps(doctored))
        code = main(["bench", "--quick", "--suites", "signals",
                     "--out-dir", str(tmp_path / "fresh"),
                     "--compare", str(path)])
        assert code == 3
        captured = capsys.readouterr()
        assert "regressed" in captured.out
        assert "performance regression detected" in captured.err

    def test_compare_mode_mismatch_exits_2(self, tmp_path, capsys):
        base_dir = tmp_path / "base"
        assert main(["bench", "--quick", "--suites", "signals",
                     "--out-dir", str(base_dir)]) == 0
        path = base_dir / "BENCH_signals.json"
        doctored = json.loads(path.read_text())
        doctored["quick"] = False
        path.write_text(json.dumps(doctored))
        code = main(["bench", "--quick", "--suites", "signals",
                     "--out-dir", str(tmp_path / "fresh"),
                     "--compare", str(path)])
        assert code == 2
        assert "refusing to compare" in capsys.readouterr().err

    def test_compare_missing_baseline_warns_but_passes(self, tmp_path,
                                                       capsys):
        other = tmp_path / "other"
        other.mkdir()
        code = main(["bench", "--quick", "--suites", "signals",
                     "--out-dir", str(tmp_path / "fresh"),
                     "--compare", str(other)])
        assert code == 0
        assert "no BENCH_*.json" in capsys.readouterr().err
