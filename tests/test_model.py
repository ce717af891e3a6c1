import json
import math
import re
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    adam_state,
    adam_step_with,
    combined_objective,
    f64_model,
    gradient_check_instance,
    load_checkpoint,
    make_dataset,
    profiles_of,
    random_batch,
    random_small_spec,
    reference_adam_step,
    reference_head_gradient,
    reference_lazy_adam_step,
    worst_gradient_error,
)
from sociolens.batcher import Batch
from sociolens.errors import ConfigError, DataError, NumericError
from sociolens.features import MISSING, SocioSchema, VectorTable
from sociolens.model import (
    WEIGHT_DTYPE,
    ModelSpec,
    adam_step,
    backward,
    extract_socio_reps,
    forward,
    init_params,
    save_checkpoint,
    sigmoid,
)
from sociolens.trainer import predict

VARIANTS = ("simple", "multitask", "socio_multihot", "socio_embedding", "socio_contrastive")


def small_spec(variant="simple", **kw):
    defaults = dict(text_dim=3, hidden_dims=(4, 3), dropout_rate=0.0)
    if variant in ("socio_multihot", "socio_embedding", "socio_contrastive"):
        defaults["socio_width"] = 4
    if variant == "socio_contrastive":
        defaults["projection_dims"] = (3, 4)
    if variant == "multitask":
        defaults["annotator_count"] = 3
    defaults.update(kw)
    return ModelSpec(variant=variant, **defaults)


class TestInitParams:
    def test_same_seed_identical_bytes(self):
        spec = small_spec()
        a = init_params(spec, 7)
        b = init_params(spec, 7)
        for name in a.tensors:
            assert a.tensors[name].tobytes() == b.tensors[name].tobytes()

    def test_biases_zero_moments_zero(self):
        params = init_params(small_spec("socio_contrastive"), 0)
        # a model is its weights: Adam's moments exist only once training starts, and start at zero
        assert params.moments is None and params.work is None
        for name, tensor in params.tensors.items():
            if name.endswith("bias"):
                assert not tensor.any()
        params.gradient_views()
        assert params.moments.shape == (2, params.flat.size)
        assert not params.moments.any()
        assert params.step == 0

    def test_glorot_bound_512_to_256(self):
        bound = math.sqrt(6.0 / (512 + 256))
        assert bound == pytest.approx(0.0884, abs=5e-5)
        spec = ModelSpec(variant="simple", text_dim=8, hidden_dims=(512, 256))
        weights = init_params(spec, 0).tensors["layer.1.weight"]
        assert np.abs(weights).max() <= bound
        assert np.abs(weights).max() > 0.95 * bound  # 131k draws get close to the edge


class TestForward:
    def test_zero_weights_give_half(self):
        spec = small_spec()
        params = init_params(spec, 0)
        for t in params.tensors.values():
            t[:] = 0.0
        batch = random_batch(np.random.default_rng(0), spec, 5, 2)
        probs, _ = forward(params, batch, mode="eval")
        assert np.allclose(probs, 0.5, atol=1e-15)

    def test_eval_mode_deterministic(self):
        spec = small_spec(dropout_rate=0.3)
        params = init_params(spec, 1)
        batch = random_batch(np.random.default_rng(1), spec, 4, 2)
        p1, _ = forward(params, batch, mode="eval")
        p2, _ = forward(params, batch, mode="eval")
        assert np.array_equal(p1, p2)

    def test_single_unit_network_hand_computed(self):
        spec = ModelSpec(variant="simple", text_dim=1, hidden_dims=(1, 1), dropout_rate=0.0)
        params = init_params(spec, 0)
        params.tensors["layer.0.weight"][:] = 0.5
        params.tensors["layer.0.bias"][:] = 0.1
        params.tensors["layer.1.weight"][:] = -2.0
        params.tensors["layer.1.bias"][:] = 0.3
        params.tensors["layer.2.weight"][:] = 1.5
        params.tensors["layer.2.bias"][:] = -0.2
        # the hand computation runs in the model's dtype, on the constants as its weights hold them;
        # the sigmoid of the logit is f64 in both
        f = params.flat.dtype.type
        x = 0.8
        h1 = max(f(0.5) * f(x) + f(0.1), f(0.0))          # 0.5
        h2 = max(f(-2.0) * h1 + f(0.3), f(0.0))           # relu(-0.7) = 0
        logit = f(1.5) * h2 + f(-0.2)                      # -0.2
        expected = 1.0 / (1.0 + math.exp(-float(logit)))
        batch = Batch(text=np.array([[x]]), labels=np.array([1.0]), text_ids=["t"])
        probs, _ = forward(params, batch, mode="eval")
        assert probs[0] == pytest.approx(expected, abs=1e-12)

    def test_dropout_expectation_matches_eval(self):
        # inverted dropout: expectations over masks reproduce the eval
        # activations at the points where the mask enters linearly (the
        # dropped activation itself and the next pre-activation);
        # nonlinearities downstream break the identity by design
        spec = small_spec(dropout_rate=0.4, text_dim=4, hidden_dims=(6, 5))
        params = init_params(spec, 3)
        batch = random_batch(np.random.default_rng(3), spec, 3, 2)
        rng = np.random.default_rng(99)
        rounds = 4000
        h1_acc = None
        z2_acc = None
        for _ in range(rounds):
            _, trace = forward(params, batch, mode="train", rng=rng)
            # layer 1 reads the dropped first activation and holds the second pre-activation
            h1_acc = trace.inputs[1] if h1_acc is None else h1_acc + trace.inputs[1]
            z2_acc = trace.pre[1] if z2_acc is None else z2_acc + trace.pre[1]
        _, eval_trace = forward(params, batch, mode="eval")
        assert np.allclose(h1_acc / rounds, eval_trace.inputs[1], atol=0.05)
        assert np.allclose(z2_acc / rounds, eval_trace.pre[1], atol=0.05)

    def test_train_mode_needs_rng_when_dropout_on(self):
        spec = small_spec(dropout_rate=0.2)
        params = init_params(spec, 0)
        batch = random_batch(np.random.default_rng(0), spec, 3, 2)
        with pytest.raises(ConfigError):
            forward(params, batch, mode="train")

    def test_fused_width_checked(self):
        spec = small_spec("socio_multihot")
        params = init_params(spec, 0)
        batch = random_batch(np.random.default_rng(0), spec, 3, 2)
        batch.socio = batch.socio[:, :2]
        with pytest.raises(DataError):
            forward(params, batch, mode="eval")


class TestMultitask:
    def test_head_isolation(self):
        spec = small_spec("multitask", annotator_count=4)
        params = init_params(spec, 5)
        batch = random_batch(np.random.default_rng(5), spec, 6, 2)
        batch.annotator_index = np.array([0, 1, 2, 3, 0, 1])
        base, _ = forward(params, batch, mode="eval")
        params.tensors["layer.2.weight"][:, 2] += 1.0
        bumped, _ = forward(params, batch, mode="eval")
        changed = ~np.isclose(base, bumped, atol=1e-15)
        assert changed.tolist() == [False, False, True, False, False, False]

    def test_unknown_annotator_uses_mean_head(self):
        spec = small_spec("multitask", annotator_count=3, dropout_rate=0.0)
        params = init_params(spec, 6)
        batch = random_batch(np.random.default_rng(6), spec, 1, 1)
        batch.annotator_index = np.array([-1])
        probs, trace = forward(params, batch, mode="eval")
        w = params.tensors["layer.2.weight"]
        b = params.tensors["layer.2.bias"]
        expected_logit = trace.inputs[2][0] @ w.mean(axis=1) + b.mean()
        assert trace.logits[0] == pytest.approx(expected_logit, abs=1e-12)

    def test_untouched_head_gets_zero_gradient(self):
        spec = small_spec("multitask", annotator_count=4, dropout_rate=0.0)
        params = init_params(spec, 7)
        batch = random_batch(np.random.default_rng(7), spec, 3, 2)
        batch.annotator_index = np.array([0, 1, 1])
        _, trace = forward(params, batch, mode="train")
        grads = backward(params, trace, np.array([0.2, -0.1, 0.4]))
        assert not grads["layer.2.weight"][:, 2].any()
        assert not grads["layer.2.weight"][:, 3].any()


    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_gathered_logits_within_ulps_of_dense_head(self, seed):
        rng = np.random.default_rng(seed)
        heads, rows = int(rng.integers(1, 60)), int(rng.integers(1, 40))
        spec = small_spec("multitask", annotator_count=heads, hidden_dims=(8, int(rng.integers(1, 65))))
        params = init_params(spec, seed)
        params.tensors["layer.2.bias"][:] = rng.standard_normal(heads)
        batch = random_batch(rng, spec, rows, 3)
        batch.annotator_index = rng.integers(0, heads, size=rows)
        _, trace = forward(params, batch, mode="eval")
        h, w, b = trace.inputs[2], params.tensors["layer.2.weight"], params.tensors["layer.2.bias"]
        at = (np.arange(rows), batch.annotator_index)
        dense = (h @ w + b)[at]
        # a dot product's rounding scales with the sum of its terms' magnitudes, not with its value
        scale = (np.abs(h) @ np.abs(w) + np.abs(b))[at]
        assert np.all(np.abs(trace.logits - dense) <= 4 * np.spacing(scale))

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_logit_of_a_row_ignores_the_rest_of_the_batch(self, seed):
        # trunk weights and inputs on a grid of quarters keep every trunk sum exact,
        # so h is the same in any batch and only the head's readout is under test
        rng = np.random.default_rng(seed)
        heads, rows = int(rng.integers(1, 20)), int(rng.integers(1, 30))
        spec = small_spec("multitask", annotator_count=heads, hidden_dims=(6, int(rng.integers(1, 40))))
        params = init_params(spec, seed)
        for name in ("layer.0.weight", "layer.0.bias", "layer.1.weight", "layer.1.bias"):
            params.tensors[name][...] = rng.integers(-4, 5, size=params.tensors[name].shape) / 4.0
        params.tensors["layer.2.bias"][:] = rng.standard_normal(heads)
        text = rng.integers(-4, 5, size=(rows, spec.text_dim)).astype(np.float64)
        index = rng.integers(-1, heads, size=rows)

        def logits_of(order):
            batch = Batch(text=text[order], labels=np.zeros(len(order)), text_ids=np.zeros(len(order)),
                          annotator_index=index[order])
            return forward(params, batch, mode="eval")[1].logits

        full = logits_of(np.arange(rows))
        known = index >= 0
        permuted = rng.permutation(rows)
        assert logits_of(permuted)[known[permuted]].tobytes() == full[permuted][known[permuted]].tobytes()
        grown = np.concatenate([np.arange(rows), rng.integers(0, rows, size=int(rng.integers(1, 20)))])
        assert logits_of(grown)[:rows][known].tobytes() == full[known].tobytes()
        subset = np.flatnonzero(rng.random(rows) < 0.5)
        assert logits_of(subset)[known[subset]].tobytes() == full[subset][known[subset]].tobytes()
        for row in np.flatnonzero(known):
            assert logits_of(np.array([row]))[0] == full[row]

    def test_finite_difference_with_unseen_and_repeated_annotators(self):
        spec = small_spec("multitask", annotator_count=4, dropout_rate=0.2)
        for seed in range(3):
            rng = np.random.default_rng(seed)
            params = init_params(spec, seed)
            for tensor in params.tensors.values():
                tensor += 0.05 * rng.standard_normal(tensor.shape)
            batch = random_batch(rng, spec, 7, 3)
            batch.annotator_index = np.array([2, -1, 2, 0, -1, 2, 3])
            assert worst_gradient_error(params, batch, dropout_seed=seed) < 1e-4

    def test_gradients_land_in_the_flat_gradient_row(self):
        spec = small_spec("multitask", annotator_count=4)
        params, twin = init_params(spec, 3), init_params(spec, 3)
        batch = random_batch(np.random.default_rng(3), spec, 6, 2)
        _, trace = forward(params, batch, mode="train")
        grads = backward(params, trace, np.linspace(-0.5, 0.5, 6))
        assert all(np.shares_memory(g, params.work[0]) for g in grads.values())
        adam_step_with(twin, {name: g.copy() for name, g in grads.items()}, lr=0.01)
        adam_step(params, lr=0.01)
        assert params.flat.tobytes() == twin.flat.tobytes()
        assert params.moments.tobytes() == twin.moments.tobytes()


class TestBackward:
    def test_zero_upstream_gives_zero_gradients(self):
        spec = small_spec("socio_contrastive", dropout_rate=0.0)
        params = init_params(spec, 8)
        batch = random_batch(np.random.default_rng(8), spec, 4, 2)
        _, trace = forward(params, batch, mode="train")
        grads = backward(params, trace, np.zeros(4), np.zeros((4, spec.projection_dims[1])))
        assert all(not g.any() for g in grads.values())

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_finite_difference_small_sample(self, variant):
        worst = max(gradient_check_instance(variant, seed) for seed in range(3))
        assert worst < 1e-4

    def test_eval_trace_rejected(self):
        spec = small_spec()
        params = init_params(spec, 0)
        batch = random_batch(np.random.default_rng(0), spec, 3, 2)
        _, trace = forward(params, batch, mode="eval")
        with pytest.raises(DataError):
            backward(params, trace, np.zeros(3))

    def test_normalized_loss_embedding_has_unit_rows(self):
        spec = small_spec("socio_contrastive", dropout_rate=0.0)
        params = init_params(spec, 9)
        batch = random_batch(np.random.default_rng(9), spec, 5, 2)
        _, trace = forward(params, batch, mode="train")
        norms = np.linalg.norm(trace.E_normalized, axis=1)
        live = np.linalg.norm(trace.E, axis=1) > 1e-12
        assert np.allclose(norms[live], 1.0, atol=1e-12)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_only_projected_wiring_traces_normalized_rows(self, variant):
        spec = small_spec(variant)
        params = init_params(spec, 4)
        batch = random_batch(np.random.default_rng(4), spec, 4, 2)
        _, trace = forward(params, batch, mode="train")
        if spec.wiring.projected:
            assert np.array_equal(trace.E_normalized, trace.E / trace.E_norms)
        else:
            assert trace.E is None and trace.E_normalized is None


class TestAdamStep:
    def scalar_params(self, value=1.0):
        spec = ModelSpec(variant="simple", text_dim=1, hidden_dims=(1, 1))
        params = init_params(spec, 0)
        for t in params.tensors.values():
            t[:] = value
        return spec, params

    def zero_grads(self, params):
        return {k: np.zeros_like(t) for k, t in params.tensors.items()}

    def test_first_step_is_signed_lr(self):
        spec, params = self.scalar_params()
        grads = self.zero_grads(params)
        grads["layer.0.weight"][:] = 0.37
        grads["layer.2.bias"][:] = -4.2
        adam_step_with(params, grads, lr=0.01)
        delta_w = params.tensors["layer.0.weight"][0, 0] - 1.0
        delta_b = params.tensors["layer.2.bias"][0] - 1.0
        assert -0.01 <= delta_w < -0.00999
        assert 0.00999 < delta_b <= 0.01

    def test_zero_gradient_leaves_parameters(self):
        spec, params = self.scalar_params()
        before = {k: t.copy() for k, t in params.tensors.items()}
        adam_step_with(params, self.zero_grads(params), lr=0.1)
        for k in before:
            assert np.array_equal(params.tensors[k], before[k])
        assert params.step == 1

    def test_two_steps_match_hand_recurrence(self):
        spec, params = self.scalar_params(value=0.5)
        # the recurrence runs in the model's dtype, its constants Python floats as in `adam_step`
        f = params.flat.dtype.type
        g = f(0.3)
        lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
        theta, m, v = f(0.5), f(0.0), f(0.0)
        for t in (1, 2):
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * (g * g)
            theta -= lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
        grads = self.zero_grads(params)
        grads["layer.1.weight"][:] = g
        adam_step_with(params, grads, lr=lr)
        adam_step_with(params, grads, lr=lr)
        assert params.tensors["layer.1.weight"][0, 0] == pytest.approx(theta, abs=1e-12)

    def test_a_model_without_a_gradient_row_is_refused(self):
        _, params = self.scalar_params()
        with pytest.raises(DataError, match="adam_step needs a gradient row"):
            adam_step(params, lr=0.01)
        assert params.step == 0 and params.work is None and params.moments is None

    def test_nonfinite_gradient_refused_without_mutation(self):
        spec, params = self.scalar_params()
        grads = {k: np.full_like(t, 0.3) for k, t in params.tensors.items()}
        adam_step_with(params, grads, lr=0.01)  # nonzero moments, so an overwrite would show
        before = {role: {k: t.copy() for k, t in views.items()} for role, views in adam_state(params).items()}
        grads["layer.1.bias"][:] = np.nan
        with pytest.raises(NumericError, match=r"non-finite gradient for layer\.1\.bias; update refused at step 2"):
            adam_step_with(params, grads, lr=0.01)
        assert params.step == 1
        for role, tensors in before.items():
            for k, t in tensors.items():
                assert adam_state(params)[role][k].tobytes() == t.tobytes()

    @settings(max_examples=150, deadline=None)
    @given(
        variant=st.sampled_from(VARIANTS),
        seed=st.integers(0, 2**32 - 1),
        lr=st.floats(1e-6, 1.0),
        steps=st.integers(1, 4),
        poison=st.none() | st.tuples(st.integers(0, 3), st.sampled_from([np.nan, np.inf, -np.inf])),
    )
    def test_flat_step_matches_per_tensor_reference(self, variant, seed, lr, steps, poison):
        rng = np.random.default_rng(seed)
        params = init_params(random_small_spec(rng, variant), seed)
        roles = adam_state(params)
        ref = SimpleNamespace(step=0, **{r: {k: t.copy() for k, t in views.items()} for r, views in roles.items()})
        names = list(params.tensors)
        for step in range(steps):
            # any dict order, gradients from 1e-4 to 1e4 so m, v and the update span many exponents,
            # in the model's dtype, as `backward` writes them
            grads = {
                names[i]: (rng.standard_normal(params.tensors[names[i]].shape) * 10.0 ** rng.uniform(-4, 4))
                .astype(params.flat.dtype)
                for i in rng.permutation(len(names))
            }
            if poison is not None and poison[0] == step:
                bad = names[rng.integers(len(names))]
                grads[bad].flat[rng.integers(grads[bad].size)] = poison[1]
                for state, update in ((params, adam_step_with), (ref, reference_adam_step)):
                    with pytest.raises(NumericError, match=f"non-finite gradient for {re.escape(bad)};"):
                        update(state, grads, lr)
            else:
                adam_step_with(params, grads, lr)
                reference_adam_step(ref, grads, lr)
            assert params.step == ref.step
            for role, views in roles.items():
                for name in names:
                    assert views[name].tobytes() == getattr(ref, role)[name].tobytes()


class TestPerAnnotatorHeadUpdate:
    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        cases=st.lists(
            st.sampled_from(["views", "copied", "edited", "unseen", "poisoned", "twice"]), min_size=1, max_size=4
        ),
    )
    def test_matches_dense_gradient_and_lazy_adam(self, seed, cases):
        # backward re-zeroes only live head columns, and adam_step updates only them: the gradient
        # bytes must be a dense gradient's, the update's those of the lazy reference, whoever wrote
        # the gradient
        rng = np.random.default_rng(seed)
        heads = int(rng.integers(1, 40))
        spec = small_spec(
            "multitask", annotator_count=heads, dropout_rate=float(rng.choice([0.2, 0.35])),
            hidden_dims=(int(rng.integers(2, 6)), int(rng.integers(1, 6))),
        )
        params = init_params(spec, seed)
        roles = adam_state(params)
        ref = SimpleNamespace(step=0, **{r: {k: t.copy() for k, t in views.items()} for r, views in roles.items()})
        w_name, b_name = "layer.2.weight", "layer.2.bias"
        lr = float(rng.choice([1e-3, 0.05, 0.5]))
        for case in cases:
            rows = int(rng.integers(1, 20))
            batch = random_batch(rng, spec, rows, 3)
            # a few annotators per batch, so columns repeat; -1 is an annotator unseen in training
            drawn = rng.choice(heads, size=min(heads, int(rng.integers(1, 5))), replace=False)
            batch.annotator_index = rng.choice(drawn, size=rows)
            if case == "unseen":
                batch.annotator_index[rng.random(rows) < 0.4] = -1
            if case == "twice":
                # a backward whose gradient no update reads: the next backward must clear its columns too
                other = random_batch(rng, spec, rows, 3)
                backward(params, *combined_objective(params, other, spec, int(rng.integers(2**31)))[1:3])
            _, trace, d_logits, _ = combined_objective(params, batch, spec, int(rng.integers(2**31)))
            grads = backward(params, trace, d_logits)
            dense = {name: g.copy() for name, g in grads.items()}
            dense[w_name], dense[b_name] = reference_head_gradient(
                trace.inputs[2], batch.annotator_index, d_logits, heads
            )
            for name in (w_name, b_name):
                assert grads[name].tobytes() == dense[name].tobytes()
            outside = np.setdiff1d(np.arange(heads), batch.annotator_index)
            if case == "edited" and outside.size:
                # a column the batch did not touch, written in place; zero factors give -0 as well as +0
                col = rng.choice(outside)
                edit = rng.standard_normal(spec.hidden_dims[1]) * rng.choice([0.0, 1.0])
                grads[w_name][:, col] = dense[w_name][:, col] = edit
                if rng.random() < 0.5:
                    grads[b_name][col] = dense[b_name][col] = rng.standard_normal()
            if case == "poisoned" and outside.size:
                col, row = rng.choice(outside), rng.integers(spec.hidden_dims[1])
                grads[w_name][row, col] = dense[w_name][row, col] = rng.choice([np.nan, np.inf, -np.inf])
                refused = rf"non-finite gradient for layer\.2\.weight; update refused at step {ref.step + 1}$"
                for state, update, g in ((params, adam_step_with, grads), (ref, reference_lazy_adam_step, dense)):
                    with pytest.raises(NumericError, match=refused):
                        update(state, g, lr)
            elif case == "copied":
                adam_step_with(params, {name: grads[name].copy() for name in reversed(list(grads))}, lr)
                reference_lazy_adam_step(ref, dense, lr)
            else:
                adam_step(params, lr)
                reference_lazy_adam_step(ref, dense, lr)
            assert params.step == ref.step
            for role, views in roles.items():
                for name in params.tensors:
                    assert views[name].tobytes() == getattr(ref, role)[name].tobytes()

    def test_absent_column_keeps_its_state_then_steps_at_the_global_step(self):
        # column 0 is in the first batch, absent from the next three, and back in the fifth
        rng = np.random.default_rng(3)
        spec = small_spec("multitask", annotator_count=4, dropout_rate=0.0)
        params = init_params(spec, 3)
        w, m, v = (views["layer.2.weight"] for views in adam_state(params).values())
        lr, b1, b2, eps = 0.05, 0.9, 0.999, 1e-8
        for step, columns in enumerate(([0, 1], [1, 2], [3], [2, 3], [0, 3]), start=1):
            batch = random_batch(rng, spec, 6, 3)
            batch.annotator_index = np.resize(columns, 6)
            grads = backward(params, *combined_objective(params, batch, spec, step)[1:3])
            g = grads["layer.2.weight"][:, 0].copy()
            before = [t[:, 0].copy() for t in (w, m, v)]
            adam_step(params, lr)
            if 0 not in columns:
                assert not g.any()
                assert [t[:, 0].tobytes() for t in (w, m, v)] == [t.tobytes() for t in before]
        assert step == params.step == 5 and g.any() and before[1].any()
        # one textbook update from the state step 1 left, bias-corrected at step 5
        w0, m0, v0 = before
        m1 = m0 * b1 + (1 - b1) * g
        v1 = v0 * b2 + (1 - b2) * (g * g)
        w1 = w0 - lr * (m1 / (1 - b1**5)) / (np.sqrt(v1 / (1 - b2**5)) + eps)
        assert [t[:, 0].tobytes() for t in (w, m, v)] == [t.tobytes() for t in (w1, m1, v1)]


class TestRowDtype:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_a_train_step_stays_in_the_row_dtype(self, variant):
        # an f64 operand, a NumPy f64 scalar among them, promotes an f32 array without a word (NEP 50):
        # the step would run, only in f64
        spec = small_spec(variant, dropout_rate=0.2)
        params = init_params(spec, 0)
        dtype = params.flat.dtype
        assert dtype == np.dtype(WEIGHT_DTYPE) == np.float32
        batch = random_batch(np.random.default_rng(0), spec, 6, 2)
        _, trace, d_logits, dE = combined_objective(params, batch, spec, 1)
        backward(params, trace, d_logits, dE)
        adam_step(params, lr=0.01)
        arrays = [*trace.inputs, *trace.pre, *trace.masks, trace.logits, trace.E, trace.E_norms, trace.E_normalized]
        assert {a.dtype for a in arrays if a is not None} == {dtype}
        assert {g.dtype for g in params.gradient_views().values()} == {dtype}
        assert params.moments.shape == (2, params.flat.size) and params.moments.dtype == dtype
        assert params.work.dtype == dtype

    # Bound on the gap between f32 and f64 analytic gradients of one model, as a fraction of the
    # largest f64 gradient entry, stated before the test runs (eps = f32's machine epsilon, 2**-23).
    # Both models hold the same weights (f32 values, exact in f64) and read the same batch rows,
    # rounded to f32 first, so they differ only by f32's rounding, u = eps/2 an operation. An
    # entry passes at most 12 rounded stages (five layers forward and back, the normalization
    # Jacobian and the weight-gradient product), each a sum of at most 16 products, whose error
    # is at most gamma_16 = 16u = 8 eps of the sum of its terms' magnitudes (Higham 2002, §3.1):
    # 96 eps. The contrastive loss reads E through E·Eᵀ/τ, which scales an error in E by up to
    # 2/τ = 20 at τ = 0.1: 1920 eps, rounded up to 2**11 eps, about 2.4e-4.
    F32_GRADIENT_BOUND = 2**11 * np.finfo(np.float32).eps

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_f32_gradients_agree_with_f64_gradients_of_the_same_weights(self, variant):
        # widths of 8 and 16 and batches of 8, so no exact gradient is 0 throughout, as a dead
        # layer's is: there the comparison would be between two roundings of 0
        spec = small_spec(variant, text_dim=8, hidden_dims=(16, 8), dropout_rate=0.2,
                          **({"projection_dims": (8, 8)} if variant == "socio_contrastive" else {}))
        for seed in range(20):
            params = init_params(spec, seed)
            batch = random_batch(np.random.default_rng(seed), spec, 8, 3)
            batch.text = batch.text.astype(params.flat.dtype)
            if batch.socio is not None:
                batch.socio = batch.socio.astype(params.flat.dtype)
            twin = f64_model(params)
            traces = []
            for model in (params, twin):
                _, trace, d_logits, dE = combined_objective(model, batch, spec, seed)
                backward(model, trace, d_logits, dE)
                traces.append(trace)
            # a pre-activation on the other side of 0 is another function, not a rounding error
            assert all(np.array_equal(a > 0, b > 0) for a, b in zip(traces[0].pre, traces[1].pre))
            gap = np.abs(params.work[0] - twin.work[0]).max()
            assert gap <= self.F32_GRADIENT_BOUND * np.abs(twin.work[0]).max(), (seed, gap)

    def test_a_negative_zero_head_gradient_marks_its_column_live(self):
        # -0.0 in f32 is the bit pattern 0x80000000: the column scan must read the row's own width
        spec = small_spec("multitask", annotator_count=4)
        params = init_params(spec, 2)
        grads = params.gradient_views()
        for g in grads.values():
            g[...] = 0.0
        grads["layer.2.weight"][1, 2] = -0.0
        adam_step(params, lr=0.01)
        assert params._live_columns.tolist() == [2]
        # so the next backward re-zeroes that column: +0.0, not the -0.0 left in it
        batch = random_batch(np.random.default_rng(2), spec, 3, 2)
        batch.annotator_index = np.array([0, 1, 0])
        _, trace = forward(params, batch, mode="train")
        column = backward(params, trace, np.array([0.2, -0.1, 0.4]))["layer.2.weight"][:, 2]
        assert column.tobytes() == np.zeros_like(column).tobytes()


class TestSocioReps:
    schema = SocioSchema([("g", ["a", "b", MISSING]), ("r", ["x", "y", MISSING])])

    def make_params(self):
        spec = small_spec("socio_contrastive", socio_width=self.schema.total_width)
        return init_params(spec, 10, self.schema)

    def test_identical_profiles_identical_vectors(self):
        params = self.make_params()
        reps = extract_socio_reps(
            params,
            profiles_of({"a1": {"g": "a", "r": "x"}, "a2": {"g": "a", "r": "x"}, "a3": {"g": "b", "r": "y"}}),
        )
        a1, a2, a3 = reps.rows(["a1", "a2", "a3"])
        assert reps.keys == ["a1", "a2", "a3"]
        assert np.array_equal(a1, a2)
        assert not np.array_equal(a1, a3)

    def test_dimension_is_second_projection_width(self):
        params = self.make_params()
        reps = extract_socio_reps(params, profiles_of({"a": {"g": "a"}}))
        assert reps.matrix.shape == (1, params.spec.projection_dims[1])

    def test_one_vector_per_unique_annotator(self):
        params = self.make_params()
        profiles = profiles_of({f"a{i}": {"g": "a"} for i in range(37)})
        assert len(extract_socio_reps(params, profiles)) == 37

    def test_wrong_variant_rejected(self):
        params = init_params(small_spec("simple"), 0, self.schema)
        with pytest.raises(ConfigError):
            extract_socio_reps(params, profiles_of({"a": {"g": "a"}}))


class TestCheckpoints:
    def test_roundtrip_bytes(self, tmp_path):
        spec = small_spec("socio_contrastive")
        # a multi-hot checkpoint carries a schema of the spec's socio width, 4
        schema = SocioSchema([("g", ["a", MISSING]), ("h", ["x", MISSING])])
        params = init_params(spec, 11, schema)
        grads = {k: np.full_like(t, 0.01) for k, t in params.tensors.items()}
        adam_step_with(params, grads, lr=0.01)
        save_checkpoint(params, str(tmp_path / "ck"), seed=11)
        loaded, seed = load_checkpoint(str(tmp_path / "ck"))
        assert loaded.spec == spec
        assert loaded.step == 1
        assert seed == 11
        assert loaded.schema.to_dict() == schema.to_dict()
        assert loaded.annotators is None
        assert loaded.flat.tobytes() == params.flat.tobytes()
        # params.bin is the weights bytes only, 4·n of f32; a loaded model holds no moments
        assert (tmp_path / "ck" / "params.bin").stat().st_size == 4 * params.flat.size
        assert loaded.moments is None and loaded.work is None

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(DataError):
            load_checkpoint(str(tmp_path / "nope"))

    def edit_manifest(self, tmp_path, edit, variant="multitask"):
        directory = tmp_path / "ck"
        spec = small_spec(variant)
        schema = SocioSchema([("g", ["a", "b", "c", MISSING])]) if spec.socio_width else None
        heads = [f"a{i}" for i in range(spec.annotator_count)] if spec.annotator_count else None
        save_checkpoint(init_params(spec, 0, schema, heads), str(directory), seed=0)
        manifest = json.loads((directory / "manifest.json").read_text())
        edit(manifest)
        (directory / "manifest.json").write_text(json.dumps(manifest))
        return str(directory)

    def test_unknown_variant_in_manifest(self, tmp_path):
        directory = self.edit_manifest(tmp_path, lambda m: m["spec"].update(variant="bogus"))
        with pytest.raises(DataError, match="unknown variant"):
            load_checkpoint(directory)

    def test_tensor_shapes_must_match_spec(self, tmp_path):
        # (3, 4) read as (4, 3): every blob still has the size the manifest states
        directory = self.edit_manifest(tmp_path, lambda m: m["tensors"].update({"layer.0.weight": [4, 3]}))
        with pytest.raises(DataError, match="tensor shapes"):
            load_checkpoint(directory)

    def test_negative_width_is_a_malformed_manifest(self, tmp_path):
        # tensor shapes edited to match, so only building the model finds the width
        def edit(manifest):
            manifest["spec"]["text_dim"] = -2
            manifest["tensors"]["layer.0.weight"] = [-2, 4]

        with pytest.raises(DataError, match="malformed manifest"):
            load_checkpoint(self.edit_manifest(tmp_path, edit))

    def test_socio_embedding_manifest_with_a_schema_loads_and_predicts_alike(self, tmp_path):
        # a socio_embedding model has no schema, but older checkpoints of one carry a schema nothing reads
        directory = tmp_path / "ck"
        save_checkpoint(init_params(small_spec("socio_embedding"), 4), str(directory), seed=4)
        manifest = json.loads((directory / "manifest.json").read_text())
        assert "schema" not in manifest
        rng = np.random.default_rng(4)
        dataset = make_dataset([("t0", "a0", 1), ("t0", "a1", 0), ("t1", "a1", 2), ("t1", "a2", 0)])
        tables = (VectorTable(["t0", "t1"], rng.normal(size=(2, 3))),
                  VectorTable(["a0", "a1", "a2"], rng.normal(size=(3, 4))))
        expected = predict(load_checkpoint(str(directory))[0], dataset, *tables)[0]
        manifest["schema"] = SocioSchema([("g", ["a", "b", MISSING])]).to_dict()
        (directory / "manifest.json").write_text(json.dumps(manifest))
        loaded, seed = load_checkpoint(str(directory))
        assert seed == 4 and loaded.schema.to_dict() == manifest["schema"]
        assert predict(loaded, dataset, *tables)[0].tobytes() == expected.tobytes()

    def test_heads_index_follows_manifest_order(self, tmp_path):
        loaded, _ = load_checkpoint(self.edit_manifest(tmp_path, lambda m: m["annotators"].reverse()))
        heads = loaded.annotators
        assert loaded.schema is None
        # head unit i scores heads[i]
        assert heads == [f"a{i}" for i in reversed(range(len(heads)))]
        assert [heads.index(a) for a in heads] == list(range(len(heads)))

    @pytest.mark.parametrize("edit", [
        lambda m: m.update(schema={"attributes": [["g", 3]]}),
        lambda m: m.update(schema={"attributes": [["g", "abcd"]]}),  # four one-letter categories, width 4
        lambda m: m.update(schema={"attributes": [[0, ["a", "b", "c", "d"]]]}),
        lambda m: m.pop("schema"),
        lambda m: m["schema"]["attributes"].append(["h", ["c"]]),
    ], ids=["categories-not-a-list", "categories-a-string", "name-not-a-string", "missing", "width-mismatch"])
    def test_malformed_or_misfit_schema(self, tmp_path, edit):
        directory = self.edit_manifest(tmp_path, edit, variant="socio_multihot")
        with pytest.raises(DataError, match="malformed manifest|must be a name and a list|needs a schema of width"):
            load_checkpoint(directory)

    @pytest.mark.parametrize("edit", [
        lambda m: m.pop("annotators"),
        lambda m: m["annotators"].pop(),
        lambda m: m["annotators"].__setitem__(1, m["annotators"][0]),
        lambda m: m["annotators"].__setitem__(0, 7),
    ], ids=["missing", "one-short", "duplicate", "not-a-string"])
    def test_head_ids_must_match_annotator_count(self, tmp_path, edit):
        directory = self.edit_manifest(tmp_path, edit)
        with pytest.raises(DataError, match="malformed manifest|head units"):
            load_checkpoint(directory)

    def test_params_file_is_the_rows_in_layer_order(self, tmp_path):
        schema = SocioSchema([("g", ["a", MISSING]), ("h", ["x", MISSING])])
        params = init_params(small_spec("socio_contrastive"), 4, schema)
        adam_step_with(params, {k: np.full_like(t, 0.02) for k, t in params.tensors.items()}, lr=0.01)
        save_checkpoint(params, str(tmp_path / "ck"), seed=4)
        assert sorted(p.name for p in (tmp_path / "ck").iterdir()) == ["manifest.json", "params.bin"]
        data = (tmp_path / "ck" / "params.bin").read_bytes()
        assert data == b"".join(view.tobytes() for view in params.tensors.values())
        assert len(data) == 4 * sum(t.size for t in params.tensors.values())

    @pytest.mark.parametrize("tensor", ["layer.0.weight", "layer.1.bias", "layer.2.weight"], ids="weights-{}".format)
    @pytest.mark.parametrize("at", ["first", "last"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_value_rejected(self, tmp_path, tensor, at, value):
        directory = self.edit_manifest(tmp_path, lambda m: None)
        # the value's offset from the layout alone: the tensors before it in layer order
        sizes = {name: math.prod(shape) for name, shape in small_spec("multitask").tensor_shapes().items()}
        names = list(sizes)
        start = sum(sizes[n] for n in names[: names.index(tensor)])
        data = np.fromfile(Path(directory) / "params.bin", dtype="<f4")
        data[start if at == "first" else start + sizes[tensor] - 1] = value
        data.tofile(Path(directory) / "params.bin")
        with pytest.raises(DataError, match=re.escape(f"params.bin holds non-finite values in the weights of {tensor}")):
            load_checkpoint(directory)

    def test_short_params_file_rejected(self, tmp_path):
        directory = self.edit_manifest(tmp_path, lambda m: None)
        path = Path(directory) / "params.bin"
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(DataError, match="params.bin is .* bytes, not"):
            load_checkpoint(directory)

    def test_missing_params_file_rejected(self, tmp_path):
        directory = self.edit_manifest(tmp_path, lambda m: None)
        (Path(directory) / "params.bin").unlink()
        with pytest.raises(DataError, match="no params.bin; checkpoints with one .bin per tensor are no longer"):
            load_checkpoint(directory)


def test_sigmoid_stable_at_extremes():
    x = np.array([-800.0, -30.0, 0.0, 30.0, 800.0])
    s = sigmoid(x)
    assert np.all(np.isfinite(s))
    assert s[0] == 0.0 and s[-1] == 1.0
    assert s[2] == 0.5
