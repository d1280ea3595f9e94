"""Tests for the performance subsystem (repro.perf + `python -m repro bench`).

Covers the harness edge cases the issue calls out — empty pattern match,
``--compare`` against a baseline missing a bench, non-finite timings
rejected — plus byte-equivalence of every vectorized hot path against its
row-loop reference twin, so a "faster" implementation can never drift from
the semantics it replaced.
"""

import json
import math

import numpy as np
import pytest

from repro.cli import main
from repro.perf import (
    BENCH_SCHEMA_VERSION,
    BENCHMARKS,
    BenchResult,
    Timer,
    compare_results,
    load_bench_report,
    make_result_frame,
    report_to_dict,
    run_benchmark,
    select_benchmarks,
)


def result(name, median=1.0, **overrides):
    kwargs = dict(name=name, reps=3, inner=1, warmup=1, median=median,
                  mean=median, std=0.0, min=median, max=median)
    kwargs.update(overrides)
    return BenchResult(**kwargs)


class TestHarness:
    def test_curated_suite_registered(self):
        names = BENCHMARKS.available()
        # one bench per documented hot path, plus the reference twins
        for expected in (
            "autograd_conv2d_forward", "autograd_conv2d_backward",
            "autograd_maxpool_backward", "autograd_maxpool_backward_addat",
            "nn_train_step", "pruning_mask_apply", "pruning_magnitude_scores",
            "experiment_cache_hit", "experiment_cache_miss",
            "experiment_queue_claim",
            "frame_filter_vectorized", "frame_filter_rowloop",
            "frame_group_by_vectorized", "frame_group_by_rowloop",
            "frame_join_baseline_vectorized", "frame_join_baseline_rowloop",
            "frame_curve_vectorized", "frame_curve_pergroup",
        ):
            assert expected in names

    def test_select_benchmarks_glob_substring_and_empty(self):
        assert [b.name for b in select_benchmarks("frame_group*")] == \
            ["frame_group_by_rowloop", "frame_group_by_vectorized"]
        assert {b.name for b in select_benchmarks("cache")} == \
            {"experiment_cache_hit", "experiment_cache_miss"}
        assert select_benchmarks("no-such-bench") == []

    def test_select_benchmarks_regex_alternative(self):
        # ``store_.*`` is regex intent — under pure fnmatch the literal
        # dot would match nothing
        names = {b.name for b in select_benchmarks("store_.*")}
        # re.search anchors nowhere, so the report benches match too
        assert names == {
            "store_ingest_1m", "store_load_1m", "store_load_1m_json_twin",
            "store_query_pushdown_1m", "store_query_fullscan_twin_1m",
            "report_from_store_1m", "report_from_store_1m_json_twin",
        }
        assert {b.name for b in
                select_benchmarks("store_.*|report_from_store_1m")} == names
        assert {b.name for b in select_benchmarks("^store_.*")} == {
            "store_ingest_1m", "store_load_1m", "store_load_1m_json_twin",
            "store_query_pushdown_1m", "store_query_fullscan_twin_1m",
        }
        # a broken regex alternative is ignored rather than raising
        assert select_benchmarks("[unclosed") == []

    def test_select_benchmarks_grouped_regex_alternatives(self):
        # the whole pattern is a regex before it is split on "|"
        pattern = "^(store_load|store_ingest|store_query_pushdown|report_from_store)_1m$"
        assert [b.name for b in select_benchmarks(pattern)] == [
            "report_from_store_1m", "store_ingest_1m", "store_load_1m",
            "store_query_pushdown_1m",
        ]
        # glob and substring alternatives still split on "|"
        assert [b.name for b in select_benchmarks("*_rowloop|cache")] == [
            "experiment_cache_hit", "experiment_cache_miss",
            "frame_filter_rowloop", "frame_group_by_rowloop",
            "frame_join_baseline_rowloop",
        ]

    def test_select_benchmarks_ci_patterns_unchanged(self):
        assert [b.name for b in select_benchmarks("kernel|conv|train_step")] == [
            "autograd_conv2d_backward", "autograd_conv2d_forward",
            "kernel_conv2d_backward_reference",
            "kernel_conv2d_forward_reference",
            "kernel_fused_conv_bias_relu_reference",
            "nn_train_step", "nn_train_step_reference",
        ]
        assert [b.name for b in
                select_benchmarks("store_.*|report_from_store")] == [
            "report_from_store_1m", "report_from_store_1m_json_twin",
            "store_ingest_1m", "store_load_1m", "store_load_1m_json_twin",
            "store_query_fullscan_twin_1m", "store_query_pushdown_1m",
        ]

    def test_timer_calibrates_inner_loops_for_fast_functions(self):
        timer = Timer(warmup=0, repeats=2, min_time=0.01)
        times, inner = timer.measure(lambda: None)
        assert inner > 1
        assert len(times) == 2
        assert all(t >= 0 for t in times)

    def test_timer_rejects_bad_config(self):
        with pytest.raises(ValueError):
            Timer(repeats=0)
        with pytest.raises(ValueError):
            Timer(warmup=-1)
        with pytest.raises(ValueError):
            Timer(min_time=-0.1)

    def test_non_finite_timings_rejected(self):
        for bad in (float("nan"), float("inf"), -1.0):
            with pytest.raises(ValueError, match="timing"):
                result("x", median=bad)
        with pytest.raises(ValueError):
            BenchResult.from_times("x", [], inner=1, warmup=0)

    def test_run_benchmark_executes_and_cleans_up(self, tmp_path):
        cleaned = []
        bench = next(iter(select_benchmarks("pruning_mask_apply")))
        res = run_benchmark(bench, Timer(warmup=0, repeats=2, min_time=0.001))
        assert res.name == "pruning_mask_apply"
        assert res.median > 0 and math.isfinite(res.median)
        # factories returning (fn, cleanup) have cleanup called exactly once
        from repro.perf.harness import Benchmark
        b = Benchmark("t", lambda: ((lambda: None), lambda: cleaned.append(1)))
        run_benchmark(b, Timer(warmup=0, repeats=1, min_time=0.0))
        assert cleaned == [1]

    def test_report_roundtrip_and_schema_guard(self, tmp_path):
        payload = report_to_dict([result("a"), result("b", median=2.0)], tag="t")
        assert payload["schema"] == BENCH_SCHEMA_VERSION
        assert payload["tag"] == "t"
        assert {"python", "numpy", "platform"} <= set(payload["environment"])
        path = tmp_path / "bench.json"
        path.write_text(json.dumps(payload))
        loaded = load_bench_report(path)
        assert [r.name for r in loaded["results"]] == ["a", "b"]
        path.write_text(json.dumps({"schema": 999}))
        with pytest.raises(ValueError, match="schema"):
            load_bench_report(path)

    def test_compare_statuses(self):
        current = [result("same"), result("slow", median=2.0),
                   result("fast", median=0.1), result("new")]
        baseline = [result("same"), result("slow"), result("fast"),
                    result("gone")]
        comps = {c.name: c for c in compare_results(current, baseline,
                                                    threshold_pct=20.0)}
        assert comps["same"].status == "ok"
        assert comps["slow"].status == "regression"
        assert comps["slow"].ratio == pytest.approx(2.0)
        assert comps["fast"].status == "faster"
        assert comps["new"].status == "no-baseline"
        assert comps["gone"].status == "missing"
        # benches on only one side never fail the comparison
        assert all(comps[n].status != "regression" for n in ("new", "gone"))
        with pytest.raises(ValueError):
            compare_results(current, baseline, threshold_pct=-1)


class TestFrameEquivalence:
    """The vectorized frame paths are byte-identical to their row loops."""

    @pytest.fixture(scope="class")
    def frame(self):
        return make_result_frame(rows=3000, seed=7)

    def assert_frames_equal(self, a, b):
        assert a.columns == b.columns
        for name in a.columns:
            ca, cb = a[name], b[name]
            assert ca.dtype == cb.dtype
            if ca.dtype.kind == "f":
                assert ca.tobytes() == cb.tobytes()
            else:
                assert list(ca) == list(cb)

    @pytest.mark.parametrize("keys,single", [
        (("strategy", "compression"), False),
        (("model", "dataset", "seed"), False),
        ("compression", True),
        ("seed", True),
    ])
    @pytest.mark.parametrize("sort", [True, False])
    def test_group_by_matches_rowloop(self, frame, keys, single, sort):
        names = (keys,) if single else tuple(keys)
        fast = frame.group_by(keys, sort=sort)
        ref = frame._group_by_rows(names, single=single, sort=sort)
        assert [k for k, _ in fast] == [k for k, _ in ref]
        for (_, fa), (_, fb) in zip(fast, ref):
            self.assert_frames_equal(fa, fb)

    def test_group_by_nan_keys_fall_back_to_rowloop_semantics(self):
        frame = make_result_frame(rows=50, seed=0).with_columns(
            compression=np.array([np.nan] * 3 + [2.0] * 47)
        )
        fast = frame.group_by("compression", sort=False)
        ref = frame._group_by_rows(("compression",), single=True, sort=False)
        assert len(fast) == len(ref)  # every NaN stays its own group
        for (_, fa), (_, fb) in zip(fast, ref):
            self.assert_frames_equal(fa, fb)

    def test_group_by_empty_frame_and_unknown_column(self, frame):
        empty = frame.take(np.zeros(0, dtype=np.int64))
        assert empty.group_by("strategy") == []
        with pytest.raises(KeyError):
            empty.group_by("nope")
        with pytest.raises(KeyError):
            frame.group_by("nope")

    def test_join_baseline_matches_rowloop(self, frame):
        on = ("model", "dataset", "seed")
        fast = frame._join_baseline_batched(on)
        ref = frame._join_baseline_rows(on)
        for col in ("control_top1", "control_top5"):
            assert fast[col].tobytes() == ref[col].tobytes()
        # and the public method routes to the batched result
        self.assert_frames_equal(frame.join_baseline(on), fast)

    def test_join_baseline_no_controls(self):
        frame = make_result_frame(rows=40, seed=1).filter(
            compression=lambda c: c > 1.0
        )
        joined = frame.join_baseline()
        assert np.isnan(joined["control_top1"]).all()
        ref = frame._join_baseline_rows(("model", "dataset", "seed"))
        assert joined["control_top1"].tobytes() == ref["control_top1"].tobytes()

    def test_filter_membership_matches_python_set(self, frame):
        fast = frame.mask(compression=[2.0, 8.0], seed=[0, 3])
        ref = np.fromiter(
            ((c in {2.0, 8.0}) and (s in {0, 3})
             for c, s in zip(frame["compression"], frame["seed"])),
            dtype=bool, count=len(frame),
        )
        assert (fast == ref).all()
        # NaN membership keeps the (always-False) set semantics
        nanframe = frame.with_columns(
            top1=np.where(frame["seed"] == 0, np.nan, frame["top1"])
        )
        assert not nanframe.mask(top1=[float("nan")]).any()


class TestBenchCLI:
    def run_bench(self, *argv):
        return main(["bench", *argv])

    def test_empty_pattern_exits_2(self, capsys):
        assert self.run_bench("no-such-bench") == 2
        assert "no benchmarks match" in capsys.readouterr().err

    def test_list_only(self, capsys):
        assert self.run_bench("frame_group*", "--list") == 0
        out = capsys.readouterr().out
        assert "frame_group_by_vectorized" in out
        assert "median" not in out

    def test_run_json_and_compare(self, tmp_path, capsys):
        out = tmp_path / "BENCH_a.json"
        argv = ["pruning_mask_apply", "--repeats", "2", "--warmup", "0",
                "--min-time", "0.001", "--no-mem"]
        assert self.run_bench(*argv, "--json", str(out)) == 0
        payload = json.loads(out.read_text())
        assert payload["schema"] == BENCH_SCHEMA_VERSION
        [entry] = payload["benchmarks"]
        assert entry["name"] == "pruning_mask_apply"
        assert math.isfinite(entry["median"]) and entry["median"] >= 0

        # same workload vs its own baseline: no regression.  A generous
        # threshold keeps this about the comparison plumbing, not
        # sub-microsecond scheduler jitter on a loaded test machine.
        assert self.run_bench(*argv, "--compare", str(out),
                              "--threshold", "300") == 0

        # injected regression: baseline claims 1000x faster -> exit 1
        for b in payload["benchmarks"]:
            for stat in ("median", "mean", "min", "max"):
                b[stat] /= 1000.0
        fast = tmp_path / "BENCH_fast.json"
        fast.write_text(json.dumps(payload))
        capsys.readouterr()
        assert self.run_bench(*argv, "--compare", str(fast)) == 1
        assert "regressed" in capsys.readouterr().err

    def test_compare_baseline_missing_bench_is_not_a_regression(
            self, tmp_path, capsys):
        baseline = tmp_path / "BENCH_other.json"
        baseline.write_text(json.dumps(report_to_dict([result("other")])))
        assert self.run_bench(
            "pruning_mask_apply", "--repeats", "2", "--warmup", "0",
            "--min-time", "0.001", "--no-mem", "--compare", str(baseline),
        ) == 0
        out = capsys.readouterr().out
        assert "no baseline entry" in out
        assert "in baseline but not in this run" in out

    def test_compare_corrupt_baseline_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": BENCH_SCHEMA_VERSION,
                                   "benchmarks": [{"name": "x", "reps": 1,
                                                   "inner": 1, "warmup": 0,
                                                   "median": float("nan"),
                                                   "mean": 0.0, "std": 0.0,
                                                   "min": 0.0, "max": 0.0}]}))
        assert self.run_bench(
            "pruning_mask_apply", "--repeats", "1", "--warmup", "0",
            "--min-time", "0.0", "--no-mem", "--compare", str(bad),
        ) == 2
        assert "cannot load baseline" in capsys.readouterr().err

    def test_compare_structurally_malformed_baseline_exits_2(
            self, tmp_path, capsys):
        bad = tmp_path / "malformed.json"
        bad.write_text(json.dumps({"schema": BENCH_SCHEMA_VERSION,
                                   "benchmarks": [{"median": 1.0}]}))
        assert self.run_bench(
            "pruning_mask_apply", "--repeats", "1", "--warmup", "0",
            "--min-time", "0.0", "--no-mem", "--compare", str(bad),
        ) == 2
        err = capsys.readouterr().err
        assert "cannot load baseline" in err and "missing required" in err

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "repro " in capsys.readouterr().out
