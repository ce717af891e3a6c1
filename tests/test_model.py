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
    combined_objective,
    gradient_check_instance,
    random_batch,
    random_small_spec,
    reference_adam_step,
)
from sociolens.batcher import Batch
from sociolens.errors import ConfigError, DataError, NumericError
from sociolens.features import MISSING, AnnotatorProfile, SocioSchema
from sociolens.model import (
    ModelSpec,
    adam_step,
    backward,
    extract_socio_reps,
    forward,
    init_params,
    load_checkpoint,
    save_checkpoint,
    sigmoid,
)

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
        for name, tensor in params.tensors.items():
            if name.endswith("bias"):
                assert not tensor.any()
            assert not params.m[name].any()
            assert not params.v[name].any()
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
        x = 0.8
        h1 = max(0.5 * x + 0.1, 0.0)          # 0.5
        h2 = max(-2.0 * h1 + 0.3, 0.0)        # relu(-0.7) = 0
        logit = 1.5 * h2 - 0.2                # -0.2
        expected = 1.0 / (1.0 + math.exp(-logit))
        batch = Batch(text=np.array([[x]]), labels=np.array([1.0]), text_ids=["t"], annotator_ids=["a"])
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
        batch.socio_multihot = batch.socio_multihot[:, :2]
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
        norms = np.linalg.norm(trace.loss_embedding, axis=1)
        live = np.linalg.norm(trace.E, axis=1) > 1e-12
        assert np.allclose(norms[live], 1.0, atol=1e-12)


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
        adam_step(params, grads, lr=0.01)
        delta_w = params.tensors["layer.0.weight"][0, 0] - 1.0
        delta_b = params.tensors["layer.2.bias"][0] - 1.0
        assert -0.01 <= delta_w < -0.00999
        assert 0.00999 < delta_b <= 0.01

    def test_zero_gradient_leaves_parameters(self):
        spec, params = self.scalar_params()
        before = {k: t.copy() for k, t in params.tensors.items()}
        adam_step(params, self.zero_grads(params), lr=0.1)
        for k in before:
            assert np.array_equal(params.tensors[k], before[k])
        assert params.step == 1

    def test_two_steps_match_hand_recurrence(self):
        spec, params = self.scalar_params(value=0.5)
        g = 0.3
        lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
        theta, m, v = 0.5, 0.0, 0.0
        for t in (1, 2):
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            theta -= lr * (m / (1 - b1**t)) / (math.sqrt(v / (1 - b2**t)) + eps)
        grads = self.zero_grads(params)
        grads["layer.1.weight"][:] = g
        adam_step(params, grads, lr=lr)
        adam_step(params, grads, lr=lr)
        assert params.tensors["layer.1.weight"][0, 0] == pytest.approx(theta, abs=1e-12)

    def test_nonfinite_gradient_refused_without_mutation(self):
        spec, params = self.scalar_params()
        grads = {k: np.full_like(t, 0.3) for k, t in params.tensors.items()}
        adam_step(params, grads, lr=0.01)  # nonzero moments, so an overwrite would show
        before = {role: {k: t.copy() for k, t in getattr(params, role).items()} for role in ("tensors", "m", "v")}
        grads["layer.1.bias"][:] = np.nan
        with pytest.raises(NumericError, match=r"non-finite gradient for layer\.1\.bias; update refused at step 2"):
            adam_step(params, grads, lr=0.01)
        assert params.step == 1
        for role, tensors in before.items():
            for k, t in tensors.items():
                assert getattr(params, role)[k].tobytes() == t.tobytes()

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
        roles = ("tensors", "m", "v")
        ref = SimpleNamespace(step=0, **{r: {k: t.copy() for k, t in getattr(params, r).items()} for r in roles})
        names = list(params.tensors)
        for step in range(steps):
            # any dict order, gradients from 1e-4 to 1e4 so m, v and the update span many exponents
            grads = {
                names[i]: rng.standard_normal(params.tensors[names[i]].shape) * 10.0 ** rng.uniform(-4, 4)
                for i in rng.permutation(len(names))
            }
            if poison is not None and poison[0] == step:
                bad = names[rng.integers(len(names))]
                grads[bad].flat[rng.integers(grads[bad].size)] = poison[1]
                for state, update in ((params, adam_step), (ref, reference_adam_step)):
                    with pytest.raises(NumericError, match=f"non-finite gradient for {re.escape(bad)};"):
                        update(state, grads, lr)
            else:
                adam_step(params, grads, lr)
                reference_adam_step(ref, grads, lr)
            assert params.step == ref.step
            for role in roles:
                for name in names:
                    assert getattr(params, role)[name].tobytes() == getattr(ref, role)[name].tobytes()


class TestSocioReps:
    schema = SocioSchema([("g", ["a", "b", MISSING]), ("r", ["x", "y", MISSING])])

    def make_params(self):
        spec = small_spec("socio_contrastive", socio_width=self.schema.total_width)
        return init_params(spec, 10)

    def test_identical_profiles_identical_vectors(self):
        params = self.make_params()
        reps = extract_socio_reps(
            params,
            {
                "a1": AnnotatorProfile("a1", {"g": "a", "r": "x"}),
                "a2": AnnotatorProfile("a2", {"g": "a", "r": "x"}),
                "a3": AnnotatorProfile("a3", {"g": "b", "r": "y"}),
            },
            self.schema,
        )
        assert np.array_equal(reps["a1"], reps["a2"])
        assert not np.array_equal(reps["a1"], reps["a3"])

    def test_dimension_is_second_projection_width(self):
        params = self.make_params()
        reps = extract_socio_reps(params, {"a": AnnotatorProfile("a", {"g": "a"})}, self.schema)
        assert reps["a"].shape == (params.spec.projection_dims[1],)

    def test_one_vector_per_unique_annotator(self):
        params = self.make_params()
        profiles = {f"a{i}": AnnotatorProfile(f"a{i}", {"g": "a"}) for i in range(37)}
        assert len(extract_socio_reps(params, profiles, self.schema)) == 37

    def test_wrong_variant_rejected(self):
        params = init_params(small_spec("simple"), 0)
        with pytest.raises(ConfigError):
            extract_socio_reps(params, {}, self.schema)


class TestCheckpoints:
    def test_roundtrip_bytes(self, tmp_path):
        spec = small_spec("socio_contrastive")
        params = init_params(spec, 11)
        grads = {k: np.full_like(t, 0.01) for k, t in params.tensors.items()}
        adam_step(params, grads, lr=0.01)
        # a multi-hot checkpoint carries a schema of the spec's socio width, 4
        schema = SocioSchema([("g", ["a", MISSING]), ("h", ["x", MISSING])])
        save_checkpoint(params, str(tmp_path / "ck"), seed=11, schema=schema)
        loaded, seed, loaded_schema, heads = load_checkpoint(str(tmp_path / "ck"))
        assert loaded.spec == spec
        assert loaded.step == 1
        assert seed == 11
        assert loaded_schema.to_dict() == schema.to_dict()
        assert heads is None
        for name in params.tensors:
            assert loaded.tensors[name].tobytes() == params.tensors[name].tobytes()
            assert loaded.m[name].tobytes() == params.m[name].tobytes()
            assert loaded.v[name].tobytes() == params.v[name].tobytes()

    def test_resume_from_checkpoint_is_exact(self, tmp_path):
        spec = small_spec("socio_contrastive")

        def train(params, steps):
            for i in steps:
                batch = random_batch(np.random.default_rng(i), spec, 6, n_texts=3)
                _, trace, d_logits, dE = combined_objective(params, batch, spec, dropout_seed=i)
                adam_step(params, backward(params, trace, d_logits, dE), lr=0.05)
            return params

        straight = train(init_params(spec, 3), range(6))
        # a multi-hot checkpoint carries a schema of the spec's socio width, 4
        schema = SocioSchema([("g", ["a", MISSING]), ("h", ["x", MISSING])])
        save_checkpoint(train(init_params(spec, 3), range(2)), str(tmp_path / "ck"), seed=3, schema=schema)
        resumed, *_ = load_checkpoint(str(tmp_path / "ck"))
        train(resumed, range(2, 6))
        assert resumed.step == straight.step == 6
        for row, role in enumerate(("tensors", "m", "v")):
            for name, tensor in getattr(straight, role).items():
                view = getattr(resumed, role)[name]
                assert view.tobytes() == tensor.tobytes()
                # every tensor stays a view into its role's one buffer
                assert np.shares_memory(view, resumed.flat[row])

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(DataError):
            load_checkpoint(str(tmp_path / "nope"))

    def edit_manifest(self, tmp_path, edit, variant="multitask"):
        directory = tmp_path / "ck"
        spec = small_spec(variant)
        schema = SocioSchema([("g", ["a", "b", "c", MISSING])]) if spec.socio_width else None
        heads = [f"a{i}" for i in range(spec.annotator_count)] if spec.annotator_count else None
        save_checkpoint(init_params(spec, 0), str(directory), seed=0, annotators=heads, schema=schema)
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

    def test_heads_index_follows_manifest_order(self, tmp_path):
        _, _, schema, heads = load_checkpoint(self.edit_manifest(tmp_path, lambda m: m["annotators"].reverse()))
        assert schema is None
        assert list(heads) == [f"a{i}" for i in reversed(range(len(heads)))]
        assert list(heads.values()) == list(range(len(heads)))

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

    @pytest.mark.parametrize("blob", ["layer.0.weight.bin", "layer.1.bias.m.bin", "layer.2.weight.v.bin"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_blob_rejected(self, tmp_path, blob, value):
        directory = self.edit_manifest(tmp_path, lambda m: None)
        data = np.fromfile(Path(directory) / blob, dtype="<f8")
        data[-1] = value
        data.tofile(Path(directory) / blob)
        with pytest.raises(DataError, match=f"{re.escape(blob)} holds non-finite values"):
            load_checkpoint(directory)


def test_sigmoid_stable_at_extremes():
    x = np.array([-800.0, -30.0, 0.0, 30.0, 800.0])
    s = sigmoid(x)
    assert np.all(np.isfinite(s))
    assert s[0] == 0.0 and s[-1] == 1.0
    assert s[2] == 0.5
