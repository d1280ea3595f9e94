"""Utility modules + failure-injection tests across subsystems."""

import os
import sys
import threading
import time

import numpy as np
import pytest

from repro.analysis import ResultFrame
from repro.autograd import Tensor
from repro.data import ArrayDataset, DataLoader
from repro.metrics import evaluate
from repro.models import MODELS
from repro.nn import Linear
from repro.pruning import GlobalMagWeight, Pruner
from repro.utils import artifacts_dir, atomic_write_text, set_blas_threads
from repro.utils.threads import configure_blas_threads_from_env


class TestUtils:
    def test_artifacts_dir_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_ARTIFACTS", str(tmp_path / "zzz"))
        p = artifacts_dir("sub")
        assert p.exists()
        assert str(p).startswith(str(tmp_path))

    def test_set_blas_threads_no_crash(self):
        # returns True on Linux+OpenBLAS, must never raise anywhere
        set_blas_threads(1)

    def test_configure_from_env_invalid_value(self, monkeypatch):
        monkeypatch.setenv("REPRO_BLAS_THREADS", "not-a-number")
        configure_blas_threads_from_env()  # silently ignored

    def test_configure_from_env_disabled(self, monkeypatch):
        monkeypatch.setenv("REPRO_BLAS_THREADS", "0")
        configure_blas_threads_from_env()  # no-op

    def test_atomic_writes_from_many_threads_never_tear(self, tmp_path):
        """Threads of one process replacing the same file (two queue-worker
        threads caching one baseline row) each publish a whole file."""
        target = tmp_path / "row.json"
        n_writers = 2 * (os.cpu_count() or 1) + 2
        payloads = [f"{i:03d}" * 10_000 for i in range(n_writers)]
        whole = set(payloads)
        errors, torn = [], []
        stop = threading.Event()
        deadline = time.monotonic() + 5.0

        def writer(payload):
            try:
                for _ in range(100):
                    if time.monotonic() > deadline:
                        break
                    atomic_write_text(target, payload)
            except Exception as exc:  # noqa: BLE001 - asserted below
                errors.append(exc)

        def reader():
            while not stop.is_set():
                try:
                    text = target.read_text()
                except FileNotFoundError:
                    continue  # nothing published yet
                if text not in whole:
                    torn.append(len(text))

        readers = [threading.Thread(target=reader) for _ in range(2)]
        writers = [threading.Thread(target=writer, args=(p,)) for p in payloads]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in readers + writers:
                t.start()
            for t in writers:
                t.join(timeout=30.0)
        finally:
            stop.set()
            for t in readers:
                t.join(timeout=30.0)
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in readers + writers)
        assert not errors, errors[:3]
        assert not torn, torn[:10]
        assert target.read_text() in whole
        assert [p.name for p in tmp_path.iterdir()] == ["row.json"]


class TestFailureInjection:
    def test_evaluate_empty_loader(self):
        ds = ArrayDataset(np.zeros((0, 1, 4, 4)), np.zeros(0))
        loader = DataLoader.__new__(DataLoader)  # bypass init validation
        loader.dataset = ds
        loader._x, loader._y = ds.x, ds.y
        loader.batch_size = 4
        loader.shuffle = False
        loader.transform = None
        loader.drop_last = False
        loader.rng = np.random.default_rng(0)
        m = MODELS.create("lenet-300-100", input_size=4, in_channels=1)
        with pytest.raises(ValueError):
            evaluate(m, loader)

    def test_aggregate_empty_results(self):
        assert ResultFrame.from_results([]).curve() == []

    def test_pruner_rejects_sub_unity_compression(self):
        m = MODELS.create("lenet-300-100", input_size=8, in_channels=1)
        with pytest.raises(ValueError):
            Pruner(m, GlobalMagWeight()).prune(0.5)

    def test_corrupted_checkpoint_shape_rejected(self):
        m = MODELS.create("lenet-300-100", input_size=8, in_channels=1)
        state = m.state_dict()
        state["fc1.weight"] = state["fc1.weight"][:, :-1]
        fresh = MODELS.create("lenet-300-100", input_size=8, in_channels=1)
        with pytest.raises(ValueError):
            fresh.load_state_dict(state)

    def test_model_with_nan_weights_detected_by_eval(self, tiny_cifar):
        m = MODELS.create("lenet-300-100", input_size=8, in_channels=3)
        m.fc1.weight.data[:] = np.nan
        loader = DataLoader(tiny_cifar.val, batch_size=32)
        out = evaluate(m, loader)
        assert np.isnan(out["loss"])  # surfaced, not hidden

    def test_masked_model_survives_forward_backward(self):
        # fully functional after heavy pruning: no NaN/shape corruption
        from repro.autograd import cross_entropy

        m = MODELS.create("resnet-20", width_scale=0.25, seed=0)
        Pruner(m, GlobalMagWeight()).prune(10)
        x = Tensor(np.random.default_rng(0).normal(size=(4, 3, 8, 8)).astype(np.float32))
        loss = cross_entropy(m(x), np.zeros(4, dtype=np.int64))
        loss.backward()
        assert np.isfinite(loss.item())

    def test_double_prune_is_monotone(self):
        """Iterative pruning can only remove more weights, never revive."""
        m = MODELS.create("lenet-300-100", input_size=8, in_channels=1)
        pruner = Pruner(m, GlobalMagWeight())
        pruner.prune(2)
        kept_2 = pruner.registry.total_kept()
        pruner.prune(4)
        kept_4 = pruner.registry.total_kept()
        assert kept_4 < kept_2
        pruner.registry.validate()

    def test_linear_layer_zero_input_dim_rejected_by_numpy(self):
        # degenerate-geometry guard: conv output shape must stay positive
        from repro.autograd import conv_output_shape

        with pytest.raises(ValueError):
            conv_output_shape((1, 1), (3, 3), 1, 0)
