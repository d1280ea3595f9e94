"""Unit tests for the columnar analysis layer (repro.analysis.ResultFrame)."""

import math

import numpy as np
import pytest

from repro.analysis import ResultFrame, load_frame
from repro.experiment import PruningResult, ResultSet
from repro.experiment.prune import BASELINE_STRATEGY
from repro.plotting import export_frame_csv


def make_rows(strategies=("global_weight", "random"), seeds=(0, 1),
              comps=(1, 2, 4)):
    rows = []
    for strat in strategies:
        for seed in seeds:
            for c in comps:
                rows.append(PruningResult(
                    model="m", dataset="d", strategy=strat,
                    compression=float(c), seed=seed,
                    top1=0.9 - 0.02 * c + 0.01 * seed,
                    top5=0.95 - 0.01 * c,
                    baseline_top1=0.9 + 0.01 * seed,
                    baseline_top5=0.95,
                    actual_compression=float(c),
                    theoretical_speedup=float(c) ** 0.8,
                    dense_flops=100.0, effective_flops=100.0 / c,
                    total_params=1000, nonzero_params=int(1000 / c),
                ))
    return rows


class TestConstructionRoundTrip:
    def test_from_results_to_results_identity(self):
        rs = ResultSet(make_rows())
        frame = ResultFrame.from_results(rs)
        assert [r.to_dict() for r in frame.to_results()] == \
               [r.to_dict() for r in rs]

    def test_from_json_equals_from_results(self, tmp_path):
        rs = ResultSet(make_rows())
        path = tmp_path / "results.json"
        rs.save(path)
        a = ResultFrame.from_json(path)
        b = ResultFrame.from_results(rs)
        assert a.columns == b.columns
        assert a.to_records() == b.to_records()

    def test_save_roundtrip(self, tmp_path):
        frame = ResultFrame.from_results(make_rows())
        path = frame.save(tmp_path / "out.json")
        again = ResultFrame.from_json(path)
        assert again.to_records() == frame.to_records()

    def test_empty_frame_keeps_schema(self):
        frame = ResultFrame.from_results([])
        assert len(frame) == 0
        assert "top1" in frame and "delta_top1" in frame
        assert frame.curve() == []
        assert frame.tradeoff_curves() == {}

    def test_derived_columns(self):
        frame = ResultFrame.from_results(make_rows())
        np.testing.assert_allclose(
            frame["delta_top1"], frame["top1"] - frame["baseline_top1"]
        )
        np.testing.assert_allclose(frame["speedup"], frame["theoretical_speedup"])

    def test_from_records_missing_keys_become_nan(self):
        frame = ResultFrame.from_records(
            [{"a": 1.0, "b": "x"}, {"a": None, "c": 2}]
        )
        assert math.isnan(frame["a"][1])
        assert frame["b"][1] is None
        assert frame["c"].dtype == np.float64  # None upgraded int to float

    def test_all_none_column_is_float_and_filterable(self):
        # a metric no record reports must still answer isfinite filters
        frame = ResultFrame.from_records(
            [{"k": "a", "v": None}, {"k": "b", "v": None}]
        )
        assert frame["v"].dtype == np.float64
        assert len(frame.filter(v=np.isfinite)) == 0

    def test_column_errors_name_candidates(self):
        frame = ResultFrame.from_results(make_rows())
        with pytest.raises(KeyError, match="unknown column"):
            frame.column("not_a_column")

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError, match="rows"):
            ResultFrame({"a": np.arange(3), "b": np.arange(2)})


class TestFilter:
    @pytest.fixture
    def frame(self):
        return ResultFrame.from_results(make_rows())

    def test_scalar_equality(self, frame):
        sub = frame.filter(strategy="random", compression=2.0)
        assert len(sub) == 2
        assert set(sub["seed"]) == {0, 1}

    def test_sequence_membership(self, frame):
        assert len(frame.filter(compression=[2, 4])) == 8
        assert len(frame.filter(compression={2.0}, strategy=("random",))) == 2

    def test_vectorized_predicate(self, frame):
        assert len(frame.filter(compression=lambda c: c > 1)) == 8

    def test_elementwise_predicate(self, frame):
        sub = frame.filter(strategy=lambda s: s.startswith("g"))
        assert set(sub["strategy"]) == {"global_weight"}


class TestFilterOpSpecs:
    """The serializable {"op", "value"} comparison form (the query
    language's filter conditions — see repro.analysis.query)."""

    @pytest.fixture
    def frame(self):
        return ResultFrame.from_results(make_rows())

    def test_ordering_ops_match_predicates(self, frame):
        for op, fn in (("<", lambda c: c < 2), ("<=", lambda c: c <= 2),
                       (">", lambda c: c > 2), (">=", lambda c: c >= 2)):
            spec = frame.filter(compression={"op": op, "value": 2})
            ref = frame.filter(compression=fn)
            assert spec.to_records() == ref.to_records(), op

    def test_eq_ne_match_scalar_forms(self, frame):
        assert frame.filter(strategy={"op": "==", "value": "random"}) \
            .to_records() == frame.filter(strategy="random").to_records()
        ne = frame.filter(strategy={"op": "!=", "value": "random"})
        assert set(ne["strategy"]) == {"global_weight"}

    def test_in_not_in_match_sequence_forms(self, frame):
        spec = frame.filter(compression={"op": "in", "value": [2, 4]})
        assert spec.to_records() == frame.filter(compression=[2, 4]).to_records()
        out = frame.filter(compression={"op": "not-in", "value": [2, 4]})
        assert set(out["compression"]) == {1.0}

    def test_ordering_on_string_column(self, frame):
        sub = frame.filter(strategy={"op": ">=", "value": "random"})
        assert set(sub["strategy"]) == {"random"}

    def test_op_specs_compose_with_other_forms(self, frame):
        sub = frame.filter(strategy="global_weight",
                           compression={"op": ">", "value": 1},
                           seed=[0])
        assert len(sub) == 2
        assert set(sub["compression"]) == {2.0, 4.0}

    def test_unknown_op_rejected(self, frame):
        with pytest.raises(ValueError, match="unknown filter op"):
            frame.filter(compression={"op": "~=", "value": 2})

    def test_malformed_spec_rejected(self, frame):
        with pytest.raises(ValueError, match="filter spec for column"):
            frame.filter(compression={"op": ">="})
        with pytest.raises(ValueError, match="filter spec for column"):
            frame.filter(compression={"op": ">=", "value": 2, "extra": 1})

    def test_membership_op_needs_sequence(self, frame):
        with pytest.raises(ValueError, match="sequence"):
            frame.filter(compression={"op": "in", "value": 2.0})

    def test_incomparable_types_error_names_column(self, frame):
        with pytest.raises(ValueError, match="strategy"):
            frame.filter(strategy={"op": ">=", "value": 2.0})


class TestLoadFrameErrors:
    def test_missing_path(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="no results at"):
            load_frame(tmp_path / "nope.json")

    def test_non_json_file_names_path_and_expectation(self, tmp_path):
        bogus = tmp_path / "notes.txt"
        bogus.write_text("definitely: not json\n")
        with pytest.raises(ValueError, match="not a results file"):
            load_frame(bogus)
        with pytest.raises(ValueError, match="notes.txt"):
            load_frame(bogus)

    def test_wrong_json_shape_is_a_value_error(self, tmp_path):
        bogus = tmp_path / "scalar.json"
        bogus.write_text("42")
        with pytest.raises(ValueError, match="not a results file"):
            load_frame(bogus)

    def test_empty_directory_names_all_three_layouts(self, tmp_path):
        with pytest.raises(FileNotFoundError,
                           match="results file, a result-cache"):
            load_frame(tmp_path)

    def test_valid_sources_still_load(self, tmp_path):
        path = ResultFrame.from_results(make_rows()).save(tmp_path / "r.json")
        assert len(load_frame(path)) == len(make_rows())


class TestGroupAggregate:
    def test_group_by_sorted_and_first_appearance(self):
        frame = ResultFrame.from_records(
            [{"k": "b", "v": 1}, {"k": "a", "v": 2}, {"k": "b", "v": 3}]
        )
        assert [k for k, _ in frame.group_by("k")] == ["a", "b"]
        assert [k for k, _ in frame.group_by("k", sort=False)] == ["b", "a"]

    def test_aggregate_mean_std_n(self):
        frame = ResultFrame.from_results(make_rows())
        agg = frame.aggregate(by=("strategy", "compression"), values=("top1",))
        rec = next(r for r in agg.to_records()
                   if r["strategy"] == "random" and r["compression"] == 4.0)
        ys = [0.9 - 0.08, 0.9 - 0.08 + 0.01]
        assert rec["n"] == 2
        assert rec["top1_mean"] == pytest.approx(np.mean(ys))
        assert rec["top1_std"] == pytest.approx(np.std(ys, ddof=1))

    def test_aggregate_min_max(self):
        frame = ResultFrame.from_records([{"k": "a", "v": 1.0}, {"k": "a", "v": 3.0}])
        agg = frame.aggregate(by="k", values=("v",), stats=("min", "max"))
        rec = agg.to_records()[0]
        assert rec["v_min"] == 1.0 and rec["v_max"] == 3.0

    def test_aggregate_single_by_keeps_scalar_keys(self):
        # regression: a one-name `by` used to emit tuple-valued key columns
        frame = ResultFrame.from_results(make_rows())
        agg = frame.aggregate(by="strategy", values=("top1",))
        assert agg.unique("strategy") == ["global_weight", "random"]

    def test_fingerprint_tracks_content_not_identity(self):
        frame = ResultFrame.from_results(make_rows())
        same = ResultFrame.from_results(make_rows())
        assert frame.fingerprint() == same.fingerprint()
        other = frame.filter(strategy="random")
        assert frame.fingerprint() != other.fingerprint()

    def test_inf_propagates_without_corrupting_other_columns(self):
        """actual_compression can legitimately be inf (all-pruned masks)."""
        rows = make_rows(strategies=("global_weight",), seeds=(0, 1), comps=(4,))
        rows[0].actual_compression = float("inf")
        frame = ResultFrame.from_results(rows)
        agg = frame.aggregate(
            by=("strategy", "compression"),
            values=("actual_compression", "top1"),
        )
        rec = agg.to_records()[0]
        assert math.isinf(rec["actual_compression_mean"])
        # the poisoned column must not leak into its neighbors
        assert math.isfinite(rec["top1_mean"]) and math.isfinite(rec["top1_std"])
        assert rec["top1_mean"] == pytest.approx((0.82 + 0.83) / 2)

    def test_inf_renders_parseable_in_csv(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_ARTIFACTS", str(tmp_path))
        rows = make_rows(strategies=("global_weight",), seeds=(0,), comps=(4,))
        rows[0].actual_compression = float("inf")
        agg = ResultFrame.from_results(rows).aggregate(
            by="strategy", values=("actual_compression", "top1")
        )
        path = export_frame_csv(agg, "inf_regression")
        import csv

        table = list(csv.reader(open(path)))
        idx = table[0].index("actual_compression_mean")
        assert math.isinf(float(table[1][idx]))  # 'inf' parses back
        assert math.isfinite(float(table[1][table[0].index("top1_mean")]))


class TestBaselines:
    def test_join_baseline_attaches_control(self):
        rows = make_rows()
        frame = ResultFrame.from_results(rows).join_baseline()
        base_top1 = {  # the compression==1 row per seed
            seed: next(r.top1 for r in rows
                       if r.seed == seed and r.compression == 1.0)
            for seed in (0, 1)
        }
        for rec in frame.to_records():
            assert rec["control_top1"] == pytest.approx(base_top1[rec["seed"]])

    def test_replicate_baselines_expands_sentinels(self):
        rows = [
            PruningResult(model="m", dataset="d", strategy=BASELINE_STRATEGY,
                          compression=1.0, seed=0, top1=0.9),
            PruningResult(model="m", dataset="d", strategy="global_weight",
                          compression=2.0, seed=0, top1=0.8),
            PruningResult(model="m", dataset="d", strategy="random",
                          compression=2.0, seed=0, top1=0.7),
        ]
        frame = ResultFrame.from_results(rows).replicate_baselines()
        assert len(frame) == 4
        base = frame.filter(compression=1.0)
        assert sorted(base["strategy"]) == ["global_weight", "random"]
        assert not frame.mask(strategy=BASELINE_STRATEGY).any()

    def test_replicate_baselines_noop_when_already_replicated(self):
        frame = ResultFrame.from_results(make_rows())
        assert frame.replicate_baselines().to_records() == frame.to_records()


class TestParetoAndFailures:
    def test_pareto_frontier_drops_dominated(self):
        frame = ResultFrame.from_records([
            {"s": "a", "x": 2.0, "y": 0.9},
            {"s": "b", "x": 2.0, "y": 0.8},   # dominated by a
            {"s": "a", "x": 4.0, "y": 0.85},
            {"s": "b", "x": 4.0, "y": 0.85},  # tie with a@4: both survive
            {"s": "b", "x": 8.0, "y": 0.5},
        ])
        front = frame.pareto_frontier(x="x", y="y")
        assert [(r["x"], r["y"]) for r in front.to_records()] == [
            (2.0, 0.9), (4.0, 0.85), (4.0, 0.85), (8.0, 0.5)
        ]

    def test_failed_rows_separated(self):
        rows = make_rows(strategies=("global_weight",), seeds=(0,), comps=(2,))
        rows.append(PruningResult(
            model="m", dataset="d", strategy="random", compression=2.0,
            seed=0, extra={"failed": True, "error": "boom"},
        ))
        frame = ResultFrame.from_results(rows)
        assert len(frame.ok()) == 1
        assert len(frame.failures()) == 1
        assert frame.failures()["strategy"][0] == "random"


class TestLoadFrame:
    def test_load_frame_sniffs_json_file(self, tmp_path):
        rs = ResultSet(make_rows())
        path = tmp_path / "r.json"
        rs.save(path)
        assert len(load_frame(path)) == len(rs)

    def test_load_frame_missing_path(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_frame(tmp_path / "nope.json")
