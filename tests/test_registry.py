"""Tests for the shared component Registry and its six instances."""

import pytest

from repro.registry import Registry


class TestRegistryBasics:
    def test_register_direct_and_create(self):
        reg = Registry("widget")
        reg.register("a", lambda x=1: x * 2)
        assert reg.get("a")(3) == 6
        assert reg.create("a", x=5) == 10

    def test_register_as_decorator_with_name(self):
        reg = Registry("widget")

        @reg.register("my-widget")
        def factory():
            return 42

        assert reg.create("my-widget") == 42
        assert factory() == 42  # decorator returns the component unchanged

    def test_register_bare_decorator_uses_name_attribute(self):
        reg = Registry("widget")

        @reg.register
        class Thing:
            name = "thing-v1"

        assert reg.get("thing-v1") is Thing

    def test_register_bare_decorator_falls_back_to_dunder_name(self):
        reg = Registry("widget")

        @reg.register
        def some_factory():
            return 1

        assert reg.get("some_factory") is some_factory

    def test_available_sorted(self):
        reg = Registry("widget", {"b": 1, "a": 2, "c": 3})
        assert reg.available() == ["a", "b", "c"]

    def test_invalid_key_rejected(self):
        reg = Registry("widget")
        with pytest.raises(TypeError):
            reg.register("", object())
        with pytest.raises(TypeError):
            reg.register(123, object())


class TestOverrideProtection:
    def test_duplicate_rejected(self):
        reg = Registry("widget")
        reg.register("a", 1)
        with pytest.raises(ValueError, match="already registered"):
            reg.register("a", 2)
        assert reg.get("a") == 1

    def test_override_flag_replaces(self):
        reg = Registry("widget")
        reg.register("a", 1)
        reg.register("a", 2, override=True)
        assert reg.get("a") == 2

    def test_unregister(self):
        reg = Registry("widget", {"a": 1})
        assert reg.unregister("a") == 1
        assert "a" not in reg
        with pytest.raises(KeyError):
            reg.unregister("a")


class TestUnknownNameErrors:
    def test_keyerror_lists_available(self):
        reg = Registry("widget", {"alpha": 1, "beta": 2})
        with pytest.raises(KeyError) as err:
            reg.get("gamma")
        assert "unknown widget 'gamma'" in str(err.value)
        assert "alpha" in str(err.value) and "beta" in str(err.value)

    def test_close_match_suggested(self):
        reg = Registry("widget", {"global_weight": 1, "layer_weight": 2})
        with pytest.raises(KeyError, match="did you mean"):
            reg.get("globel_weight")
        with pytest.raises(KeyError, match="global_weight"):
            reg.get("global_wieght")


class TestMappingProtocol:
    """The old dict registries are now Registry aliases; dict idioms hold."""

    def test_getitem_contains_len_iter(self):
        reg = Registry("widget", {"a": 1, "b": 2})
        assert reg["a"] == 1
        assert "a" in reg and "z" not in reg
        assert len(reg) == 2
        assert sorted(reg) == ["a", "b"]
        assert sorted(reg.keys()) == ["a", "b"]
        assert sorted(reg.values()) == [1, 2]
        assert dict(reg.items()) == {"a": 1, "b": 2}

    def test_setitem_replaces_silently(self):
        reg = Registry("widget", {"a": 1})
        reg["a"] = 9
        assert reg["a"] == 9

    def test_setdefault(self):
        reg = Registry("widget", {"a": 1})
        assert reg.setdefault("a", 9) == 1
        assert reg.setdefault("b", 9) == 9
        assert reg["b"] == 9


class TestSharedInstances:
    """All component families go through the one Registry class."""

    def test_models(self):
        from repro.models import MODELS

        assert isinstance(MODELS, Registry)
        assert "resnet-20" in MODELS and "lenet-5" in MODELS

    def test_datasets(self):
        from repro.experiment import DATASETS

        assert isinstance(DATASETS, Registry)
        assert {"cifar10", "imagenet", "mnist"} <= set(DATASETS)

    def test_strategies(self):
        from repro.pruning import STRATEGIES

        assert isinstance(STRATEGIES, Registry)
        assert {"global_weight", "layer_weight", "global_gradient",
                "layer_gradient", "random", "layer_random",
                "global_filter_l1", "layer_filter_l1"} <= set(STRATEGIES)

    def test_schedules(self):
        from repro.pruning import SCHEDULES, schedule_targets

        assert isinstance(SCHEDULES, Registry)
        assert {"one_shot", "iterative", "polynomial"} <= set(SCHEDULES)
        assert schedule_targets("one_shot", 8.0, 5) == [8.0]
        targets = schedule_targets("iterative", 8.0, 4)
        assert len(targets) == 4 and targets[-1] == pytest.approx(8.0)
        with pytest.raises(ValueError):
            schedule_targets("one_shot", 8.0, 0)

    def test_optimizers(self):
        from repro.optim import OPTIMIZERS

        assert isinstance(OPTIMIZERS, Registry)
        assert {"adam", "sgd"} <= set(OPTIMIZERS)

    def test_executors(self):
        from repro.experiment import EXECUTORS, ParallelExecutor, SerialExecutor

        assert isinstance(EXECUTORS, Registry)
        assert EXECUTORS.get("serial") is SerialExecutor
        assert EXECUTORS.get("parallel") is ParallelExecutor

    def test_optimizer_config_validates_against_registry(self):
        from repro.experiment import OptimizerConfig

        with pytest.raises(ValueError, match="unknown optimizer"):
            OptimizerConfig(name="rmsprop")
