"""The five classifier variants as one layer stack: forward, analytic gradients, Adam.

Every variant is the same trunk, two ``Dense → ReLU → dropout`` layers
and a Dense head read through a sigmoid. The variants differ only in
what is concatenated to the text vector before the trunk, and in the
head; `WIRING` is the one table that says which:

* ``simple`` / ``multitask``: nothing; multitask has one head unit per
  annotator, and annotators unseen in training score under the mean of
  all trained heads. ``simple`` trains on one majority-vote sample per
  text.
* ``socio_multihot`` / ``socio_embedding``: the batch's multi-hot rows,
  or its externally encoded socio rows.
* ``socio_contrastive``: the multi-hot rows passed through a projection
  stack of two ``Dense → ReLU`` layers (no dropout). Its output E is
  concatenated, and an L2-normalized copy of E feeds the contrastive
  objective.

Layers are numbered along the main path, projection stack first and
head last (``layer.{i}.weight`` / ``layer.{i}.bias``), so `forward`,
`backward` and `init_params` are loops over the same index ranges.
Gradients are hand-derived and verified against central finite
differences in the test suite. Dropout is inverted (activations scaled
by 1/(1-p) at train time) so evaluation is a pure pass-through.

Memory and cost: the weights and Adam's moments m and v of all n
parameters live in the three contiguous little-endian f64 rows of
`ModelParams.flat`, each tensor a view into its row. While a run
trains, `ModelParams.work` adds a flat gradient and a scratch vector of
n each, and `adam_step` is fifteen whole-buffer passes and two
finiteness scans, whatever the layer count.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field

import numpy as np

from .batcher import Batch
from .errors import ConfigError, DataError, NumericError
from .features import AnnotatorProfile, SocioSchema, encode_multihot


@dataclass(frozen=True)
class Wiring:
    """What a variant concatenates to the text, and how its head reads out."""

    socio: str | None = None     # "multihot" or "embedding": the batch's socio_<kind> rows join the text
    projected: bool = False      # socio rows pass the projection stack; E feeds the contrastive loss
    per_annotator: bool = False  # one head unit per annotator instead of one unit
    majority_vote: bool = False  # trains on one majority-vote sample per text


WIRING = {
    "simple": Wiring(majority_vote=True),
    "multitask": Wiring(per_annotator=True),
    "socio_multihot": Wiring(socio="multihot"),
    "socio_embedding": Wiring(socio="embedding"),
    "socio_contrastive": Wiring(socio="multihot", projected=True),
}
VARIANTS = tuple(WIRING)
NORM_EPS = 1e-12


@dataclass(frozen=True)
class ModelSpec:
    variant: str
    text_dim: int
    socio_width: int = 0
    hidden_dims: tuple[int, int] = (512, 256)
    projection_dims: tuple[int, int] = (64, 128)
    dropout_rate: float = 0.2
    temperature: float = 0.1
    contrastive_weight: float = 1.0
    annotator_count: int = 0
    normalize_embeddings: bool = True

    @property
    def wiring(self) -> Wiring:
        return WIRING[self.variant]

    @property
    def trunk_start(self) -> int:
        """Index of the first trunk layer; the projection stack, if any, comes before it."""
        return len(self.projection_dims) if self.wiring.projected else 0

    @property
    def fused_dim(self) -> int:
        if self.wiring.projected:
            return self.text_dim + self.projection_dims[-1]
        return self.text_dim + (self.socio_width if self.wiring.socio else 0)

    @property
    def head_width(self) -> int:
        return self.annotator_count if self.wiring.per_annotator else 1

    def layer_shapes(self) -> list[tuple[int, int]]:
        """(fan_in, fan_out) per layer, input to output along the main path."""
        stacks = [[self.fused_dim, *self.hidden_dims, self.head_width]]
        if self.wiring.projected:
            stacks.insert(0, [self.socio_width, *self.projection_dims])
        return [shape for dims in stacks for shape in zip(dims[:-1], dims[1:])]

    def tensor_shapes(self) -> dict[str, tuple[int, ...]]:
        """Shape of every parameter tensor by name, in layer order: the layout of `ModelParams.flat`."""
        shapes = {}
        for i, (fan_in, fan_out) in enumerate(self.layer_shapes()):
            shapes[f"layer.{i}.weight"], shapes[f"layer.{i}.bias"] = (fan_in, fan_out), (fan_out,)
        return shapes

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "ModelSpec":
        payload = dict(payload)
        payload["hidden_dims"] = tuple(payload["hidden_dims"])
        payload["projection_dims"] = tuple(payload["projection_dims"])
        return cls(**payload)


@dataclass
class ModelParams:
    """Weights and Adam moments, zeroed; `tensors`, `m`, `v` are views into `flat`'s rows: never rebind them."""

    spec: ModelSpec
    step: int = 0
    flat: np.ndarray = field(init=False, repr=False)
    tensors: dict[str, np.ndarray] = field(init=False, repr=False)
    m: dict[str, np.ndarray] = field(init=False, repr=False)
    v: dict[str, np.ndarray] = field(init=False, repr=False)
    work: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        shapes = self.spec.tensor_shapes()
        ends = np.cumsum([np.prod(shape) for shape in shapes.values()])
        self.flat = np.zeros((3, ends[-1]), dtype="<f8")
        self.tensors, self.m, self.v = (
            {name: part.reshape(shape) for (name, shape), part in zip(shapes.items(), np.split(row, ends[:-1]))}
            for row in self.flat
        )


@dataclass
class ForwardTrace:
    """Everything the backward pass needs; produced by train-mode forward.

    The lists run in layer order: the rows each layer reads, then the
    pre-activation and the inverted-dropout mask (None where dropout is
    off) of each ReLU layer, which is every layer but the head.
    """

    mode: str
    inputs: list[np.ndarray] = field(default_factory=list)
    pre: list[np.ndarray] = field(default_factory=list)
    masks: list[np.ndarray | None] = field(default_factory=list)
    logits: np.ndarray | None = None
    annotator_index: np.ndarray | None = None
    E: np.ndarray | None = None
    E_norms: np.ndarray | None = None
    E_normalized: np.ndarray | None = None

    @property
    def loss_embedding(self) -> np.ndarray:
        """The representation rows the contrastive objective consumes."""
        if self.E is None:
            raise DataError("no socio representation on this trace")
        return self.E_normalized if self.E_normalized is not None else self.E


def _relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def init_params(spec: ModelSpec, seed: int) -> ModelParams:
    """Glorot-uniform weights, zero biases, zero Adam moments.

    Layers draw in ascending index order from one seeded generator, so a
    seed fixes every parameter byte.
    """
    rng = np.random.default_rng(seed)
    params = ModelParams(spec)
    for i, (fan_in, fan_out) in enumerate(spec.layer_shapes()):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        params.tensors[f"layer.{i}.weight"][...] = rng.uniform(-bound, bound, size=(fan_in, fan_out))
    return params


def _dropout_mask(rng: np.random.Generator, shape: tuple[int, ...], rate: float) -> np.ndarray:
    return (rng.random(shape) >= rate) / (1.0 - rate)


def _stack_forward(
    t: dict[str, np.ndarray],
    layers: range,
    x: np.ndarray,
    trace: ForwardTrace | None = None,
    rng: np.random.Generator | None = None,
    rate: float = 0.0,
) -> np.ndarray:
    """``Dense → ReLU → (dropout)`` for each layer; masks are drawn, layer by layer, only with an rng."""
    for i in layers:
        z = x @ t[f"layer.{i}.weight"] + t[f"layer.{i}.bias"]
        a = _relu(z)
        mask = _dropout_mask(rng, a.shape, rate) if rng is not None else None
        if trace is not None:
            trace.inputs.append(x)
            trace.pre.append(z)
            trace.masks.append(mask)
        x = a * mask if mask is not None else a
    return x


def forward(
    params: ModelParams,
    batch: Batch,
    mode: str = "train",
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, ForwardTrace]:
    """Run one batch through the variant's wiring; returns sigmoid probabilities.

    Train mode applies inverted dropout and needs `rng` when the rate is
    nonzero; eval mode is deterministic.
    """
    spec = params.spec
    wiring = spec.wiring
    if mode not in ("train", "eval"):
        raise ConfigError(f"mode must be 'train' or 'eval', got {mode!r}")
    use_dropout = mode == "train" and spec.dropout_rate > 0.0
    if use_dropout and rng is None:
        raise ConfigError("train-mode forward with dropout needs an rng")
    t = params.tensors
    trace = ForwardTrace(mode=mode, annotator_index=batch.annotator_index)

    fused = batch.text
    if wiring.socio is not None:
        socio = getattr(batch, f"socio_{wiring.socio}")
        if socio is None:
            raise DataError(f"{spec.variant} batch is missing its socio_{wiring.socio} matrix")
        if wiring.projected:
            E = _stack_forward(t, range(spec.trunk_start), socio, trace)
            trace.E = socio = E
            trace.E_norms = np.maximum(np.linalg.norm(E, axis=1, keepdims=True), NORM_EPS)
            if spec.normalize_embeddings:
                trace.E_normalized = E / trace.E_norms
        fused = np.concatenate([batch.text, socio], axis=1)
    if fused.shape[1] != spec.fused_dim:
        raise DataError(f"fused input width {fused.shape[1]} != spec width {spec.fused_dim}")

    head = len(spec.layer_shapes()) - 1
    h = _stack_forward(
        t, range(spec.trunk_start, head), fused, trace, rng if use_dropout else None, spec.dropout_rate
    )
    trace.inputs.append(h)
    z = h @ t[f"layer.{head}.weight"] + t[f"layer.{head}.bias"]
    if wiring.per_annotator:
        if batch.annotator_index is None:
            raise DataError(f"{spec.variant} batch is missing annotator head indices")
        idx = batch.annotator_index
        known = idx >= 0
        logits = np.empty(len(idx), dtype=np.float64)
        logits[known] = z[known, idx[known]]
        if np.any(~known):
            # head-fallback rule: annotators unseen in training score
            # under the arithmetic mean of all trained heads
            w_head = t[f"layer.{head}.weight"]
            mean_w = w_head.mean(axis=1)
            mean_b = float(t[f"layer.{head}.bias"].mean())
            logits[~known] = h[~known] @ mean_w + mean_b
    else:
        logits = z.ravel()
    trace.logits = logits
    return sigmoid(logits), trace


def _stack_backward(
    t: dict[str, np.ndarray],
    trace: ForwardTrace,
    layers: range,
    dh: np.ndarray,
    grads: dict[str, np.ndarray],
    input_grad: bool,
) -> np.ndarray | None:
    """Back through `_stack_forward`'s layers, last first; returns dL/d(stack input) when asked."""
    for i in reversed(layers):
        mask = trace.masks[i]
        da = dh * mask if mask is not None else dh
        dz = da * (trace.pre[i] > 0)
        grads[f"layer.{i}.weight"] = trace.inputs[i].T @ dz
        grads[f"layer.{i}.bias"] = dz.sum(axis=0)
        if i == layers.start and not input_grad:
            return None
        dh = dz @ t[f"layer.{i}.weight"].T
    return dh


def backward(
    params: ModelParams,
    trace: ForwardTrace,
    d_logits: np.ndarray,
    dE_loss: np.ndarray | None = None,
) -> dict[str, np.ndarray]:
    """Exact gradients of the scalar loss for every parameter tensor.

    `d_logits` is dL/dlogits; `dE_loss` (projected wiring only) is the
    contrastive gradient w.r.t. the representation fed to that loss. With
    `normalize_embeddings` on, the normalization Jacobian is applied here
    before the two E paths merge.
    """
    spec = params.spec
    wiring = spec.wiring
    if trace.mode != "train":
        raise DataError("backward requires a trace from a train-mode forward")
    if dE_loss is not None and not wiring.projected:
        raise DataError(f"variant {spec.variant} has no contrastive path for dE")
    t = params.tensors
    d_logits = np.asarray(d_logits, dtype=np.float64)
    if d_logits.shape != trace.logits.shape:
        raise DataError(f"d_logits shape {d_logits.shape} != logits shape {trace.logits.shape}")

    head = len(trace.inputs) - 1
    if wiring.per_annotator:
        idx = trace.annotator_index
        if idx is None:
            raise DataError(f"{spec.variant} trace is missing annotator head indices")
        b, a = trace.inputs[head].shape[0], spec.annotator_count
        d_all = np.zeros((b, a), dtype=np.float64)
        known = idx >= 0
        d_all[known, idx[known]] = d_logits[known]
        if np.any(~known):
            d_all[~known, :] = d_logits[~known, None] / a
        d_bias = d_all.sum(axis=0)
    else:
        d_all = d_logits[:, None]
        d_bias = np.array([d_logits.sum()])
    grads = {f"layer.{head}.weight": trace.inputs[head].T @ d_all, f"layer.{head}.bias": d_bias}
    dh = d_all @ t[f"layer.{head}.weight"].T

    d_fused = _stack_backward(t, trace, range(spec.trunk_start, head), dh, grads, wiring.projected)
    if wiring.projected:
        dE = d_fused[:, spec.text_dim :].copy()
        if dE_loss is not None:
            dE_loss = np.asarray(dE_loss, dtype=np.float64)
            if dE_loss.shape != trace.E.shape:
                raise DataError(f"dE shape {dE_loss.shape} != E shape {trace.E.shape}")
            if spec.normalize_embeddings:
                # Jacobian of E_hat = E / max(||E||, eps): rows at the
                # clamp scale by 1/eps, others subtract the radial part
                e_hat = trace.E_normalized
                clamped = (trace.E_norms <= NORM_EPS).ravel()
                radial = (dE_loss * e_hat).sum(axis=1, keepdims=True)
                d_from_loss = (dE_loss - radial * e_hat) / trace.E_norms
                if np.any(clamped):
                    d_from_loss[clamped] = dE_loss[clamped] / NORM_EPS
                dE += d_from_loss
            else:
                dE += dE_loss
        _stack_backward(t, trace, range(spec.trunk_start), dE, grads, input_grad=False)
    return grads


def adam_step(
    params: ModelParams,
    grads: dict[str, np.ndarray],
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> ModelParams:
    """One Adam update with bias correction (Kingma & Ba 2015); mutates and returns `params`.

    The gradients are copied in layer order into `params.work` (made on
    the first step, dropped by the trainer when a run ends), and the
    update runs in place over `params.flat`, each element through the
    per-tensor form's operations in its order, so the bytes match it. A
    non-finite gradient refuses the update and leaves `params` untouched;
    a weight made non-finite raises after it. Both name the first such tensor.
    """
    if lr <= 0:
        raise ConfigError(f"learning rate must be > 0, got {lr}")
    shapes = {name: tensor.shape for name, tensor in params.tensors.items()}
    got = {name: np.shape(g) for name, g in grads.items()}
    if got != shapes:
        raise DataError(f"gradient shapes {got} != parameter shapes {shapes}")
    if params.work is None:
        params.work = np.empty((2, params.flat.shape[1]))
    g, scratch = params.work
    np.concatenate([grads[name].ravel() for name in params.tensors], out=g)
    if not np.isfinite(g).all():
        bad = next(name for name in params.tensors if not np.isfinite(grads[name]).all())
        raise NumericError(f"non-finite gradient for {bad}; update refused at step {params.step + 1}")
    params.step += 1
    bc1 = 1.0 - beta1 ** params.step
    bc2 = 1.0 - beta2 ** params.step
    w, m, v = params.flat
    # m*b1 + (1-b1)*g, v*b2 + (1-b2)*g*g, w - lr*(m/bc1)/(sqrt(v/bc2)+eps)
    m *= beta1
    m += np.multiply(g, 1.0 - beta1, out=scratch)
    v *= beta2
    v += np.multiply(np.multiply(g, g, out=scratch), 1.0 - beta2, out=scratch)
    np.add(np.sqrt(np.divide(v, bc2, out=scratch), out=scratch), eps, out=scratch)
    w -= np.divide(np.multiply(np.divide(m, bc1, out=g), lr, out=g), scratch, out=g)
    if not np.isfinite(w).all():
        bad = next(name for name, tensor in params.tensors.items() if not np.isfinite(tensor).all())
        raise NumericError(f"non-finite parameter {bad} after step {params.step}")
    return params


def extract_socio_reps(
    params: ModelParams,
    profiles: dict[str, AnnotatorProfile],
    schema: SocioSchema,
) -> dict[str, np.ndarray]:
    """Learned representation per unique annotator; identical profiles map identically.

    Each profile row runs the eval-mode projection stack on its own: the
    last bit of a batched product can depend on where a row sits in it.
    """
    spec = params.spec
    if not spec.wiring.projected:
        raise ConfigError(f"socio representations only exist for socio_contrastive, not {spec.variant}")
    projection = range(spec.trunk_start)
    return {
        aid: _stack_forward(params.tensors, projection, encode_multihot(profile, schema)[None, :])[0]
        for aid, profile in profiles.items()
    }


def save_checkpoint(
    params: ModelParams,
    directory: str,
    seed: int,
    annotators: list[str] | None = None,
    schema: SocioSchema | None = None,
) -> str:
    """Write manifest.json plus one little-endian f64 blob per tensor.

    Adam moments are stored alongside weights (`<name>.m.bin` /
    `<name>.v.bin`) so training can resume exactly.
    """
    os.makedirs(directory, exist_ok=True)
    manifest = {
        "spec": params.spec.to_dict(),
        "seed": seed,
        "step": params.step,
        "tensors": {k: list(t.shape) for k, t in params.tensors.items()},
    }
    if annotators is not None:
        manifest["annotators"] = list(annotators)
    if schema is not None:
        manifest["schema"] = schema.to_dict()
    with open(os.path.join(directory, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    for views, suffix in ((params.tensors, ""), (params.m, ".m"), (params.v, ".v")):
        for name, view in views.items():
            view.tofile(os.path.join(directory, f"{name}{suffix}.bin"))
    return directory


def load_checkpoint(directory: str) -> tuple[ModelParams, int, SocioSchema | None, dict[str, int] | None]:
    """Inverse of save_checkpoint: the params, the seed, the schema and the head index by annotator.

    The checkpoint is outside input, so anything that does not fit the
    spec is a DataError: a missing seed or spec, a spec of an unknown
    variant, tensor shapes other than the spec's layers, a malformed
    schema, a multi-hot variant without a schema of its socio width, a
    per-annotator variant without one distinct id per head unit, or a
    missing, short or non-finite blob.
    """
    manifest_path = os.path.join(directory, "manifest.json")
    if not os.path.exists(manifest_path):
        raise DataError(f"{directory}: no manifest.json")
    try:
        with open(manifest_path, encoding="utf-8") as fh:
            manifest = json.load(fh)
        spec = ModelSpec.from_dict(manifest["spec"])
        if spec.variant not in VARIANTS:
            raise DataError(f"{directory}: unknown variant {spec.variant!r}")
        expected = {name: list(shape) for name, shape in spec.tensor_shapes().items()}
        if manifest["tensors"] != expected:
            raise DataError(f"{directory}: tensor shapes {manifest['tensors']} differ from the spec's {expected}")
        params = ModelParams(spec, step=int(manifest["step"]))
        seed = int(manifest["seed"])
        schema = SocioSchema.from_dict(manifest["schema"]) if "schema" in manifest else None
        heads = manifest["annotators"] if spec.wiring.per_annotator else None
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{directory}: malformed manifest: {exc!r}") from None
    if spec.wiring.socio == "multihot" and (schema is None or schema.total_width != spec.socio_width):
        raise DataError(f"{directory}: a {spec.variant} checkpoint needs a schema of width {spec.socio_width}")
    if heads is not None and not (
        isinstance(heads, list) and all(isinstance(a, str) for a in heads)
        and len(set(heads)) == len(heads) == spec.annotator_count
    ):
        raise DataError(f"{directory}: the {spec.annotator_count} head units need as many distinct annotator ids")
    for views, suffix in ((params.tensors, ""), (params.m, ".m"), (params.v, ".v")):
        for name, view in views.items():
            path = os.path.join(directory, f"{name}{suffix}.bin")
            if not os.path.isfile(path) or os.path.getsize(path) != view.nbytes:
                raise DataError(f"{directory}: tensor blob {name}{suffix}.bin is missing or not {view.nbytes} bytes")
            with open(path, "rb") as fh:
                fh.readinto(view)
            if not np.isfinite(view).all():
                raise DataError(f"{directory}: tensor blob {name}{suffix}.bin holds non-finite values")
    return params, seed, schema, None if heads is None else {a: i for i, a in enumerate(heads)}
