"""Tests for the pretrained-checkpoint cache (models.pretrained)."""

import json

import numpy as np
import pytest

from repro.experiment import OptimizerConfig, TrainConfig
from repro.models import MODELS, create_model
from repro.models.pretrained import (
    get_pretrained_state,
    load_checkpoint,
    pretrained_key,
    restored_epoch,
    save_checkpoint,
)


def _cfg():
    return TrainConfig(epochs=1, batch_size=16,
                       optimizer=OptimizerConfig("adam", 1e-3),
                       early_stop_patience=None)


class TestKeying:
    def test_key_stable(self):
        a = pretrained_key("m", {"w": 1}, "d", {"n": 2}, _cfg().to_dict(), 0)
        b = pretrained_key("m", {"w": 1}, "d", {"n": 2}, _cfg().to_dict(), 0)
        assert a == b

    def test_key_sensitive_to_every_field(self):
        base = pretrained_key("m", {}, "d", {}, _cfg().to_dict(), 0)
        assert pretrained_key("m2", {}, "d", {}, _cfg().to_dict(), 0) != base
        assert pretrained_key("m", {"w": 2}, "d", {}, _cfg().to_dict(), 0) != base
        assert pretrained_key("m", {}, "d2", {}, _cfg().to_dict(), 0) != base
        assert pretrained_key("m", {}, "d", {"n": 1}, _cfg().to_dict(), 0) != base
        assert pretrained_key("m", {}, "d", {}, _cfg().to_dict(), 1) != base

    def test_lr_changes_key(self):
        """Figure 8 depends on this: Weights A (lr 1e-3) and Weights B
        (lr 1e-4) must map to distinct checkpoints."""
        cfg_a = TrainConfig(optimizer=OptimizerConfig("adam", 1e-3)).to_dict()
        cfg_b = TrainConfig(optimizer=OptimizerConfig("adam", 1e-4)).to_dict()
        assert (pretrained_key("m", {}, "d", {}, cfg_a, 0)
                != pretrained_key("m", {}, "d", {}, cfg_b, 0))

    def test_json_native_key_is_pinned(self):
        # computed by earlier releases: existing checkpoints keep their key
        cfg = TrainConfig(epochs=2, batch_size=32,
                          optimizer=OptimizerConfig("adam", 0.002),
                          early_stop_patience=None)
        key = pretrained_key(
            "lenet-300-100", {"input_size": 8, "in_channels": 3}, "cifar10",
            {"n_train": 128, "n_val": 64, "size": 8, "noise": 0.5},
            cfg.to_dict(), 0)
        assert key == "2539fa11d5e5df79"

    def test_tuple_kwarg_fails_naming_its_path(self):
        # str((3, 8)) would alias the string "(3, 8)"; refuse instead
        with pytest.raises(TypeError, match=r"model_kwargs\.shape"):
            pretrained_key("m", {"shape": (3, 8)}, "d", {}, _cfg().to_dict(), 0)


class TestStore:
    def test_save_load_roundtrip(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_ARTIFACTS", str(tmp_path))
        m = create_model("lenet-300-100", input_size=8, in_channels=1)
        state = m.state_dict()
        save_checkpoint("unittest-key", state, meta={"note": "x"})
        loaded = load_checkpoint("unittest-key")
        assert set(loaded) == set(state)
        np.testing.assert_array_equal(loaded["fc1.weight"], state["fc1.weight"])

    def test_load_missing_returns_none(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_ARTIFACTS", str(tmp_path))
        assert load_checkpoint("no-such-key") is None

    def test_get_pretrained_trains_once(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_ARTIFACTS", str(tmp_path))
        calls = []

        def factory():
            calls.append(1)
            m = create_model("lenet-300-100", input_size=8, in_channels=1)
            return m, [{"val_top1": 0.5}]

        args = ("m", {}, "d", {}, _cfg(), 0, factory)
        state1, key1 = get_pretrained_state(*args)
        state2, key2 = get_pretrained_state(*args)
        assert key1 == key2
        assert len(calls) == 1  # second call is a cache hit
        np.testing.assert_array_equal(state1["fc1.weight"], state2["fc1.weight"])

    def test_meta_names_the_restored_epoch(self, tmp_path, monkeypatch):
        # the best epoch is not the last, and epochs 1 and 3 tie for best:
        # the saved weights are epoch 1's (Trainer.run replaces on a strict >)
        monkeypatch.setenv("REPRO_ARTIFACTS", str(tmp_path))
        history = [{"epoch": i, "val_top1": top1}
                   for i, top1 in enumerate([0.30, 0.62, 0.41, 0.62, 0.50])]

        def factory():
            model = MODELS.create("lenet-300-100", input_size=8, in_channels=1)
            return model, history

        _, key = get_pretrained_state("m", {}, "d", {}, _cfg(), 0, factory)
        meta = json.loads((tmp_path / "pretrained" / f"{key}.json").read_text())
        assert meta["final_val_top1"] == 0.50
        assert meta["restored_epoch"] == 1
        assert meta["restored_val_top1"] == 0.62
        assert meta["epochs_ran"] == 5

    def test_restored_epoch_without_restore_best_is_the_last(self):
        history = [{"val_top1": 0.9}, {"val_top1": 0.1}]
        assert restored_epoch(history, restore_best=True) == 0
        assert restored_epoch(history, restore_best=False) == 1
        assert restored_epoch([], restore_best=True) is None
