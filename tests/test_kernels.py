"""The kernels backend layer: registry/selection, backend propagation, and
each primitive of the one backend against a plain-NumPy oracle.

``reference`` is the only registered backend; selection and propagation
are exercised with a probe backend (a ``ReferenceKernels`` subclass under
its own name) that a fixture registers and removes.  The conv kernels are
checked byte-for-byte against the NCHW oracle composition of
``test_kernel_properties.py`` at fixed odd geometries; that module holds
the generated-geometry property tests.
"""

import json

import numpy as np
import pytest

from repro.autograd import (
    Tensor,
    conv2d,
    conv2d_bias_relu,
    cross_entropy,
    gradcheck,
    linear,
    max_pool2d,
)
from repro import kernels
from repro.kernels import (
    DEFAULT_BACKEND,
    ENV_VAR,
    KERNELS,
    ReferenceKernels,
    active_backend_name,
    resolve_backend,
    set_backend,
    use_backend,
)
from test_kernel_properties import oracle_conv2d_backward, oracle_conv2d_forward

RNG = np.random.default_rng(20260807)

#: tolerance for float32 results vs the same computation in float64
F32_TOL = dict(rtol=1e-4, atol=1e-5)

PROBE = "probe"


@pytest.fixture(autouse=True)
def _clean_backend_state(monkeypatch):
    """Each test starts from the documented default selection state."""
    monkeypatch.delenv(ENV_VAR, raising=False)
    set_backend(None)
    yield
    set_backend(None)


@pytest.fixture
def probe():
    """A second registered backend; removed again, singleton included."""

    class ProbeKernels(ReferenceKernels):
        pass

    KERNELS.register(PROBE, lambda: ProbeKernels(PROBE))
    yield PROBE
    KERNELS.unregister(PROBE)
    kernels._INSTANCES.pop(PROBE, None)


def conv_case(shape=(4, 5, 13, 11), c_out=7, k=3, bias=True, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(shape)
    w = rng.standard_normal((c_out, shape[1], k, k))
    b = rng.standard_normal(c_out) if bias else None
    return x, w, b


def assert_bytes_equal(a, b):
    __tracebackhide__ = True
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


# --------------------------------------------------------------------------
# registry + selection precedence
# --------------------------------------------------------------------------

class TestRegistryAndSelection:
    def test_reference_is_the_only_backend(self):
        assert KERNELS.available() == ["reference"]

    def test_default_is_reference(self):
        assert active_backend_name() == DEFAULT_BACKEND == "reference"

    def test_resolve_backend_is_singleton(self, probe):
        assert resolve_backend(probe) is resolve_backend(probe)
        # but the registry itself mints fresh instances
        assert KERNELS.create(probe) is not KERNELS.create(probe)

    def test_resolve_backend_passes_instances_through(self, probe):
        kb = resolve_backend(probe)
        assert resolve_backend(kb) is kb

    def test_unknown_backend_fails_loudly(self):
        # names of deleted backends included: rows may still carry them
        for name in ("fastt", "fast", "reference-f32"):
            with pytest.raises(KeyError):
                resolve_backend(name)
        with pytest.raises(KeyError):
            set_backend("nope")
        with pytest.raises(KeyError):
            use_backend("nope").__enter__()

    def test_env_var_selects(self, monkeypatch, probe):
        monkeypatch.setenv(ENV_VAR, probe)
        assert active_backend_name() == probe

    def test_set_backend_beats_env(self, monkeypatch, probe):
        monkeypatch.setenv(ENV_VAR, probe)
        set_backend("reference")
        assert active_backend_name() == "reference"
        set_backend(None)  # clearing falls back to the env var
        assert active_backend_name() == probe

    def test_use_backend_beats_everything_and_nests(self, monkeypatch, probe):
        monkeypatch.setenv(ENV_VAR, probe)
        set_backend("reference")
        with use_backend(probe) as kb:
            assert kb.name == probe
            with use_backend("reference"):
                assert active_backend_name() == "reference"
            assert active_backend_name() == probe
        assert active_backend_name() == "reference"

    def test_use_backend_none_is_passthrough(self, probe):
        with use_backend(probe):
            with use_backend(None) as kb:
                assert kb.name == probe


# --------------------------------------------------------------------------
# byte equivalence: the conv kernels against the NCHW oracle composition
# --------------------------------------------------------------------------

GEOMETRIES = [
    # (stride, padding, bias) over an odd-shaped input so BLAS-path
    # differences can't hide behind power-of-two sizes
    (1, 1, True),
    (1, 0, True),
    (2, 1, False),
    (2, 2, True),
    (3, 0, False),
    (1, 2, True),
]


def conv_oracle_case(kb, x, w, b, stride, padding, g_seed):
    """Run ``kb``'s conv forward/backward and the oracle on the same input;
    returns both sides as flat lists of arrays."""
    out, ctx = kb.conv2d_forward(x, w, b, stride, padding, True)
    want, cols, w_mat = oracle_conv2d_forward(x, w, b, stride, padding)
    g = np.random.default_rng(g_seed).standard_normal(out.shape).astype(x.dtype)
    got = [out, *kb.conv2d_backward(g, ctx)]
    expected = [want, *oracle_conv2d_backward(
        g, cols, w_mat, x.shape, w.shape, stride, padding, b is not None
    )]
    return got, expected


class TestConvEquivalence:
    @pytest.mark.parametrize("stride,padding,bias", GEOMETRIES)
    def test_conv2d_forward_backward_byte_equal(self, stride, padding, bias):
        x, w, b = conv_case(bias=bias)
        got, expected = conv_oracle_case(
            resolve_backend("reference"), x, w, b, stride, padding, 1
        )
        assert len(got) == len(expected) == (4 if bias else 3)
        for a, e in zip(got, expected):
            assert_bytes_equal(a, e)

    def test_conv2d_forward_without_ctx(self):
        kb = resolve_backend("reference")
        x, w, b = conv_case()
        out, ctx = kb.conv2d_forward(x, w, b, 1, 1, False)
        assert ctx is None
        assert_bytes_equal(out, kb.conv2d_forward(x, w, b, 1, 1, True)[0])

    def test_repeated_backward_on_retained_ctx_is_stable(self):
        # the ctx owns its cols: a second backward over the same tape reads
        # intact data even after other conv calls have run in between
        kb = resolve_backend("reference")
        x, w, b = conv_case()
        out, ctx = kb.conv2d_forward(x, w, b, 1, 1, True)
        g = np.random.default_rng(2).standard_normal(out.shape)
        first = [a.copy() for a in kb.conv2d_backward(g, ctx)]
        x2, w2, b2 = conv_case(seed=9)
        kb.conv2d_forward(x2, w2, b2, 1, 1, True)
        for a, bb in zip(first, kb.conv2d_backward(g, ctx)):
            assert_bytes_equal(a, bb)

    @pytest.mark.parametrize("pair", [
        (np.float64, np.float64),
        (np.float32, np.float32),
        (np.float64, np.float32),  # float64 input, float32 parameters
    ])
    def test_fused_conv_bias_relu_byte_equal(self, pair):
        # (input dtype, parameter dtype) against the oracle composition
        kb = resolve_backend("reference")
        x, w, b = conv_case()
        x, w, b = x.astype(pair[0]), w.astype(pair[1]), b.astype(pair[1])
        out, ctx = kb.fused_conv_bias_relu_forward(x, w, b, 1, 1, True)
        pre, cols, w_mat = oracle_conv2d_forward(x, w, b, 1, 1)
        assert_bytes_equal(out, np.maximum(pre, 0))
        assert (out >= 0).all()
        g = np.random.default_rng(3).standard_normal(out.shape).astype(out.dtype)
        expected = oracle_conv2d_backward(
            g * (pre > 0), cols, w_mat, x.shape, w.shape, 1, 1, True
        )
        for got, want in zip(kb.fused_conv_bias_relu_backward(g, ctx), expected):
            assert_bytes_equal(got, want)

    def test_fused_equals_composed_conv_relu(self):
        # through autograd: one fused tape node == conv2d().relu(), bytes
        # and gradients both
        x, w, b = conv_case(shape=(2, 3, 8, 8), c_out=4)
        xt = Tensor(x, requires_grad=True)
        wt = Tensor(w, requires_grad=True)
        bt = Tensor(b, requires_grad=True)
        fused = conv2d_bias_relu(xt, wt, bt, padding=1)
        fused.sum().backward()
        xt2 = Tensor(x, requires_grad=True)
        wt2 = Tensor(w, requires_grad=True)
        bt2 = Tensor(b, requires_grad=True)
        composed = conv2d(xt2, wt2, bt2, padding=1).relu()
        composed.sum().backward()
        assert_bytes_equal(fused.data, composed.data)
        assert_bytes_equal(xt.grad, xt2.grad)
        assert_bytes_equal(wt.grad, wt2.grad)
        assert_bytes_equal(bt.grad, bt2.grad)

    @pytest.mark.parametrize("stride,padding,bias", GEOMETRIES[:3])
    def test_f32_twins_byte_equal(self, stride, padding, bias):
        # float32, the dtype every production cell computes in
        x, w, b = (None if a is None else a.astype(np.float32)
                   for a in conv_case(bias=bias))
        got, expected = conv_oracle_case(
            resolve_backend("reference"), x, w, b, stride, padding, 4
        )
        assert got[0].dtype == np.float32
        for a, e in zip(got, expected):
            assert_bytes_equal(a, e)

    def test_f32_within_tolerance_of_f64_reference(self):
        kb = resolve_backend("reference")
        x, w, b = conv_case()
        out32, _ = kb.conv2d_forward(
            x.astype(np.float32), w.astype(np.float32), b.astype(np.float32),
            1, 1, False,
        )
        out64, _ = kb.conv2d_forward(x, w, b, 1, 1, False)
        assert out32.dtype == np.float32
        np.testing.assert_allclose(out32, out64, **F32_TOL)


class TestOtherKernelEquivalence:
    """Each remaining primitive against its plain-NumPy formula."""

    @pytest.mark.parametrize("kernel,stride", [(2, 2), (3, 3), (3, 2)])
    def test_maxpool_byte_equal(self, kernel, stride):
        # stride < kernel exercises the overlapping add.at path too
        kb = resolve_backend("reference")
        x = RNG.standard_normal((3, 4, 12, 12))
        out, arg = kb.maxpool_forward(x, kernel, stride)
        oh = (12 - kernel) // stride + 1
        windows = np.stack([
            x[:, :, i:i + stride * oh:stride, j:j + stride * oh:stride]
            for i in range(kernel) for j in range(kernel)
        ], axis=-1)
        assert_bytes_equal(out, windows.max(axis=-1))
        assert (arg == windows.argmax(axis=-1)).all()
        g = RNG.standard_normal(out.shape)
        want = np.zeros_like(x)
        ki, kj = np.divmod(arg, kernel)
        ni, ci, oi, oj = np.indices(arg.shape)
        np.add.at(want, (ni, ci, oi * stride + ki, oj * stride + kj), g)
        assert_bytes_equal(
            kb.maxpool_backward(x.shape, arg, g, kernel, stride, x.dtype), want
        )

    def test_linear_byte_equal(self):
        kb = resolve_backend("reference")
        x = RNG.standard_normal((9, 7))
        w = RNG.standard_normal((5, 7))
        b = RNG.standard_normal(5)
        out, ctx = kb.linear_forward(x, w, b, True)
        assert_bytes_equal(out, x @ w.T + b)
        g = RNG.standard_normal(out.shape)
        for got, want in zip(kb.linear_backward(g, ctx),
                             (g @ w, g.T @ x, g.sum(axis=0))):
            assert_bytes_equal(got, want)

    def test_gemm_byte_equal(self):
        kb = resolve_backend("reference")
        a = RNG.standard_normal((11, 7))
        b = RNG.standard_normal((7, 13))
        assert_bytes_equal(kb.gemm(a, b), a @ b)
        out = np.empty((11, 13))
        assert kb.gemm(a, b, out=out) is out

    def test_relu_preserves_negative_zero_bytes(self):
        # backward keeps g * (x > 0): a -0.0 gradient must stay -0.0, as the
        # pre-kernels code produced (np.where would flip the sign bit)
        kb = resolve_backend("reference")
        x = np.array([1.0, -1.0, 2.0])
        g = np.array([-0.0, -0.0, 3.0])
        out = kb.relu_backward(g, x)
        assert_bytes_equal(out, g * (x > 0))
        assert np.signbit(out[0])

    def test_sgd_update_byte_equal_and_dtype_preserving(self):
        kb = resolve_backend("reference")
        p1 = RNG.standard_normal(10).astype(np.float32)
        p2 = p1.copy()
        grad = RNG.standard_normal(10).astype(np.float32)
        v1 = kb.sgd_update(p1, grad, None, 0.1, 0.9, True, 1e-4)
        # the textbook Nesterov step, spelled out
        g = grad + 1e-4 * p2
        v2 = np.zeros_like(p2) * 0.9 + g
        p2 -= 0.1 * (g + 0.9 * v2)
        # optimizer state stays in the parameter dtype
        assert p1.dtype == v1.dtype == np.float32
        assert_bytes_equal(p1, p2)
        assert_bytes_equal(v1, v2)


# --------------------------------------------------------------------------
# gradcheck
# --------------------------------------------------------------------------

TOL = dict(eps=1e-5, atol=1e-5, rtol=1e-4)


def T(shape, scale=1.0, seed=0):
    return Tensor(
        np.random.default_rng(seed).normal(size=shape) * scale,
        requires_grad=True,
    )


# parametrized by backend name, so a new backend joins by adding its name
@pytest.mark.parametrize("backend", ["reference"])
class TestGradcheckBothBackends:
    @pytest.mark.parametrize("stride,padding", [(1, 1), (2, 0)])
    def test_conv2d(self, backend, stride, padding):
        with use_backend(backend):
            gradcheck(
                lambda x, w, b: conv2d(
                    x, w, b, stride=stride, padding=padding
                ).sum(),
                [T((2, 3, 6, 6)), T((4, 3, 3, 3), 0.5, 1), T((4,), 0.1, 2)],
                **TOL,
            )

    def test_fused_conv_bias_relu(self, backend):
        with use_backend(backend):
            gradcheck(
                lambda x, w, b: conv2d_bias_relu(x, w, b, padding=1).sum(),
                [T((2, 3, 6, 6)), T((4, 3, 3, 3), 0.5, 1), T((4,), 0.1, 2)],
                **TOL,
            )

    def test_maxpool(self, backend):
        # margin between window values keeps the finite-difference stencil
        # away from argmax ties
        rng = np.random.default_rng(5)
        x = Tensor(
            rng.permutation(64).reshape(1, 4, 4, 4) * 0.1, requires_grad=True
        )
        with use_backend(backend):
            gradcheck(lambda x: max_pool2d(x, 2, 2).sum(), [x], **TOL)

    def test_linear(self, backend):
        with use_backend(backend):
            gradcheck(
                lambda x, w, b: linear(x, w, b).sum(),
                [T((5, 4)), T((3, 4), 0.5, 1), T((3,), 0.1, 2)],
                **TOL,
            )

    def test_relu(self, backend):
        # keep activations away from the kink
        x = Tensor(
            np.random.default_rng(6).normal(size=(4, 4)) + 3.0,
            requires_grad=True,
        )
        with use_backend(backend):
            gradcheck(lambda x: x.relu().sum(), [x], **TOL)


# --------------------------------------------------------------------------
# dtypes: float32 in, float32 through; float64 in, float64 through
# --------------------------------------------------------------------------

class TestFloat32Mode:
    def _train_step(self, dtype):
        from repro import nn
        from repro.optim import SGD

        rng = np.random.default_rng(0)
        model = nn.Sequential(
            nn.Conv2d(3, 4, 3, padding=1, rng=rng, activation="relu"),
            nn.MaxPool2d(2),
            nn.Flatten(),
            nn.Linear(4 * 4 * 4, 5, rng=rng),
        )
        model.train()
        opt = SGD(list(model.parameters()), lr=0.01, momentum=0.9)
        param_dtypes = [p.data.dtype for p in model.parameters()]
        xb = rng.standard_normal((8, 3, 8, 8)).astype(dtype)
        out = model(Tensor(xb))
        loss = cross_entropy(out, rng.integers(0, 5, 8))
        model.zero_grad()
        loss.backward()
        opt.step()
        return model, out, loss, param_dtypes

    def test_f32_dtype_propagates_through_train_step(self):
        model, out, loss, param_dtypes = self._train_step(np.float32)
        # activations run in float32...
        assert out.data.dtype == np.float32
        # ...and every parameter keeps its own dtype: gradient accumulation
        # casts grads to the parameter dtype, and sgd_update never recasts
        for p, dtype in zip(model.parameters(), param_dtypes):
            assert p.data.dtype == dtype
            assert p.grad is None or p.grad.dtype == dtype
        assert np.isfinite(loss.data)

    def test_f64_train_step_unaffected(self):
        _, out, _, _ = self._train_step(np.float64)
        assert out.data.dtype == np.float64

    def test_f32_and_f64_training_agree_to_tolerance(self):
        _, out32, loss32, _ = self._train_step(np.float32)
        _, out64, loss64, _ = self._train_step(np.float64)
        np.testing.assert_allclose(
            out32.data, out64.data, rtol=1e-3, atol=1e-4
        )
        np.testing.assert_allclose(
            float(loss32.data), float(loss64.data), rtol=1e-3
        )


# --------------------------------------------------------------------------
# propagation: executors, queue workers, result metadata, cache round-trip
# --------------------------------------------------------------------------

class TestBackendPropagation:
    def test_executor_rejects_unknown_backend_eagerly(self):
        from repro.experiment import SerialExecutor

        with pytest.raises(KeyError):
            SerialExecutor(kernel_backend="not-a-backend")

    def test_serial_executor_tags_rows_with_backend(self, tmp_path, probe):
        import exp_fixtures  # registers the crashy dataset
        from repro.experiment import SerialExecutor
        from repro.experiment.cache import ResultCache

        spec = exp_fixtures.crashy_spec(cell="kb-serial")
        rows = SerialExecutor(
            cache=ResultCache(tmp_path / "c"), kernel_backend=probe
        ).run([spec])
        assert rows[0].extra["kernel_backend"] == probe

    def test_default_executor_records_ambient_backend(self, tmp_path):
        import exp_fixtures
        from repro.experiment import SerialExecutor
        from repro.experiment.cache import ResultCache

        spec = exp_fixtures.crashy_spec(cell="kb-default")
        rows = SerialExecutor(cache=ResultCache(tmp_path / "c")).run([spec])
        assert rows[0].extra["kernel_backend"] == "reference"

    def test_queue_persists_backend_for_remote_workers(self, tmp_path, probe):
        from repro.experiment.queue import QueueWorker, WorkQueue
        from repro.experiment.cache import ResultCache

        WorkQueue(tmp_path / "q", kernel_backend=probe)
        stored = json.loads((tmp_path / "q" / "queue.json").read_text())
        assert stored["kernel_backend"] == probe
        # a worker attaching from another machine sees only the directory
        adopted = WorkQueue(tmp_path / "q")
        assert adopted.kernel_backend == probe
        worker = QueueWorker(adopted, ResultCache(tmp_path / "q" / "cache"))
        assert worker.kernel_backend == probe

    def test_queue_rejects_unknown_backend_before_writing(self, tmp_path):
        from repro.experiment.queue import WorkQueue

        with pytest.raises(KeyError, match=r'queue.json "kernel_backend".*fastt'):
            WorkQueue(tmp_path / "q", kernel_backend="fastt")
        assert not (tmp_path / "q" / "queue.json").exists()

    def test_stored_unknown_backend_fails_at_worker_construction(self, tmp_path):
        # a queue planned under a since-deleted backend: the worker refuses
        # before claiming, so the cell keeps its whole retry budget
        import exp_fixtures
        from repro.experiment.queue import QueueWorker, WorkQueue
        from repro.experiment.cache import ResultCache

        queue = WorkQueue(tmp_path / "q")
        queue.submit(exp_fixtures.crashy_spec(cell="kb-stale"))
        settings = tmp_path / "q" / "queue.json"
        stored = json.loads(settings.read_text())
        settings.write_text(json.dumps({**stored, "kernel_backend": "fast"}))
        adopted = WorkQueue(tmp_path / "q")  # stats and reports still open it
        assert adopted.kernel_backend == "fast"
        with pytest.raises(KeyError) as err:
            QueueWorker(adopted, ResultCache(tmp_path / "q" / "cache"))
        message = err.value.args[0]
        assert message.startswith(f'{settings} "kernel_backend": ')
        assert "'fast'" in message
        assert adopted.counts()["pending"] == 1
        (payload,) = (tmp_path / "q" / "pending").glob("*.json")
        assert json.loads(payload.read_text())["attempts"] == 0
        # an explicit, known backend still overrides the stored one
        worker = QueueWorker(adopted, ResultCache(tmp_path / "q" / "cache"),
                             kernel_backend="reference")
        assert worker.kernel_backend == "reference"

    def test_queue_worker_executes_under_stored_backend(self, tmp_path, probe):
        import exp_fixtures
        from repro.experiment.queue import QueueWorker, WorkQueue
        from repro.experiment.cache import ResultCache

        queue = WorkQueue(tmp_path / "q", kernel_backend=probe)
        spec = exp_fixtures.crashy_spec(cell="kb-queue")
        queue.submit(spec)
        cache = ResultCache(tmp_path / "q" / "cache")
        QueueWorker(queue, cache).run(max_cells=1, idle_timeout=0.0)
        row = cache.get(spec)
        assert row is not None
        assert row.extra["kernel_backend"] == probe

    def test_cache_round_trip_preserves_backend_tag(self, tmp_path):
        # a tag written by an older run under a since-deleted backend
        import exp_fixtures
        from repro.experiment.cache import ResultCache
        from repro.experiment.results import PruningResult

        spec = exp_fixtures.crashy_spec(cell="kb-cache")
        row = PruningResult(
            model=spec.model, dataset=spec.dataset, strategy=spec.strategy,
            compression=spec.compression, seed=spec.seed,
            extra={"kernel_backend": "fast-f32"},
        )
        cache = ResultCache(tmp_path / "c")
        cache.put(spec, row)
        assert cache.get(spec).extra["kernel_backend"] == "fast-f32"

    def test_report_surfaces_backends(self):
        # "fast" rows come from older runs; they still read and still warn
        from repro.analysis import build_report, render_report
        from repro.analysis.frame import ResultFrame
        from repro.experiment.results import PruningResult

        rows = [
            PruningResult(
                model="m", dataset="d", strategy="global_weight",
                compression=2.0, seed=i, top1=0.5, top5=0.9,
                baseline_top1=0.6, baseline_top5=0.95,
                actual_compression=2.0, theoretical_speedup=1.5,
                extra={"kernel_backend": backend},
            )
            for i, backend in enumerate(["reference", "fast"])
        ]
        report = build_report(ResultFrame.from_results(rows))
        assert report.kernel_backends == ["fast", "reference"]
        text = render_report(report)
        assert "kernel backends: fast, reference" in text
        assert "mixed" in text
