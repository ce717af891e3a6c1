"""The five classifier variants as one layer stack: forward, analytic gradients, Adam.

Every variant is the same trunk, two ``Dense → ReLU → dropout`` layers
and a Dense head read through a sigmoid. The variants differ only in
what is concatenated to the text vector before the trunk, and in the
head; `WIRING` is the one table that says which:

* ``simple`` / ``multitask``: nothing; multitask has one head unit per
  annotator, and annotators unseen in training score under the mean of
  all trained heads. ``simple`` trains on one majority-vote sample per
  text.
* ``socio_multihot`` / ``socio_embedding``: the batch's socio rows,
  multi-hot or externally encoded.
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

A model is one `ModelParams`: its spec, its n weights, and the two
vocabularies its columns index, the socio schema (which multi-hot slot
is which category) and the head ids (which head unit is which
annotator), so every reader of a model takes it alone.

Memory and cost: the weights are the one contiguous row
`ModelParams.flat`, each tensor a view into it, of dtype `WEIGHT_DTYPE`,
little-endian f32; a checkpoint's params.bin is that row's bytes, and
its manifest.json holds the rest. While a run trains, `ModelParams.work`
adds a gradient row, which `backward` writes in place and `adam_step`
reads, and a scratch row, and `ModelParams.moments` holds Adam's m and
v rows, all of the same dtype. Everything sized by the weights computes
in the row's dtype; the sigmoid, the losses and their b-sized gradients
stay f64, and `backward` casts the latter to the row's dtype. The dtype
is an argument only so that the finite-difference gradient checks can
run the same code on an f64 row, where central differences resolve the
loss finely enough. On the trunk, `adam_step` is fourteen passes and
two finiteness scans over the trunk's part of each row, whatever the
layer count. A per-annotator head's forward and backward touch only the
columns of its batch's annotators: O(b·H) a step, not O(b·H·A). Adam
updates that head lazily: one bitwise OR over its (H+1)·A block of
weight and bias gradients finds the live columns, at most b, and only
those take an update, O(b·H); backward re-zeroes only those columns.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import InitVar, asdict, dataclass, field

import numpy as np

from .batcher import Batch
from .errors import ConfigError, DataError, NumericError
from .features import ProfileTable, SocioSchema, VectorTable, multihot_rows, write_json


@dataclass(frozen=True)
class Wiring:
    """What a variant concatenates to the text, and how its head reads out."""

    socio: str | None = None     # "multihot" or "embedding": which rows fill the batch's socio slot
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
# Adam's constants, Kingma & Ba 2015's defaults; Python floats, as a NumPy f64 scalar
# would silently promote every f32 array it touches to f64 (NEP 50)
BETA1, BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
# the dtype of every weight, gradient and moment row; checkpoints hold it and nothing else
WEIGHT_DTYPE = "<f4"


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


@dataclass
class ModelParams:
    """A model: zeroed weights plus the socio schema and head ids its columns index.

    `tensors` are views into the row `flat`: never rebind them. Head unit
    i scores `annotators[i]`. Either vocabulary is None where the variant
    has no socio input or no per-annotator head. `dtype` is the row's, and
    so the model's, compute dtype; only the gradient checks pass another.
    """

    spec: ModelSpec
    step: int = 0
    schema: SocioSchema | None = None
    annotators: list[str] | None = field(default=None, repr=False)
    dtype: InitVar[str] = WEIGHT_DTYPE
    flat: np.ndarray = field(init=False, repr=False)
    tensors: dict[str, np.ndarray] = field(init=False, repr=False)
    # Adam's m and v rows while a run trains; a block apart from `work`'s, as one block raises peak RSS
    moments: np.ndarray | None = field(default=None, init=False, repr=False)
    _work: np.ndarray | None = field(default=None, init=False, repr=False)
    # head columns of the gradient row that may hold anything but +0, as the last
    # `adam_step` found them; None when unknown, so `backward` zeroes the whole head
    _live_columns: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self, dtype: str) -> None:
        self.flat = np.zeros(sum(map(math.prod, self.spec.tensor_shapes().values())), dtype=dtype)
        self.tensors = self._views(self.flat)

    def _views(self, row: np.ndarray) -> dict[str, np.ndarray]:
        """Name → view of each tensor's part of `row`, a vector laid out like `flat`."""
        views, start = {}, 0
        for name, shape in self.spec.tensor_shapes().items():
            views[name], start = row[start : start + math.prod(shape)].reshape(shape), start + math.prod(shape)
        return views

    @property
    def work(self) -> np.ndarray | None:
        """The gradient and scratch rows while a run trains; setting them also sets `moments`, to zeros or None."""
        return self._work

    @work.setter
    def work(self, rows: np.ndarray | None) -> None:
        self._work, self._live_columns = rows, None
        self.moments = None if rows is None else np.zeros(rows.shape, dtype=self.flat.dtype)

    def gradient_views(self) -> dict[str, np.ndarray]:
        """Name → view of the gradient row `work[0]`, made per call so none outlives `work`."""
        if self.work is None:
            self.work = np.empty((2, self.flat.size), dtype=self.flat.dtype)
        return self._views(self.work[0])


def _first_non_finite(params: ModelParams, row: np.ndarray) -> str:
    """Name of the tensor that holds the first NaN or infinity in `row`, a vector laid out like `params.flat`."""
    ends = np.cumsum([tensor.size for tensor in params.tensors.values()])
    return list(params.tensors)[int(np.searchsorted(ends, np.argmin(np.isfinite(row)), side="right"))]


@dataclass
class ForwardTrace:
    """Everything the backward pass needs; produced by train-mode forward.

    The lists run in layer order: the rows each layer reads, then the
    pre-activation and the inverted-dropout mask (None where dropout is
    off) of each ReLU layer, which is every layer but the head. Projected
    wiring also keeps its representation rows E, their norms clamped at
    `NORM_EPS`, and `E_normalized`, E over those norms: the rows the
    contrastive objective reads.
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


def sigmoid(x: np.ndarray) -> np.ndarray:
    """f64 probabilities of `x`, computed in f64 whatever its dtype, so they saturate where f64's do."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def init_params(
    spec: ModelSpec,
    seed: int,
    schema: SocioSchema | None = None,
    annotators: list[str] | None = None,
    dtype: str = WEIGHT_DTYPE,
) -> ModelParams:
    """Glorot-uniform weights and zero biases, for a model of `schema` and head ids `annotators`.

    Layers draw in ascending index order from one seeded f64 generator,
    rounded to `dtype`, so a seed fixes every parameter byte.
    """
    rng = np.random.default_rng(seed)
    params = ModelParams(spec, schema=schema, annotators=annotators, dtype=dtype)
    for i, (fan_in, fan_out) in enumerate(spec.layer_shapes()):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        params.tensors[f"layer.{i}.weight"][...] = rng.uniform(-bound, bound, size=(fan_in, fan_out))
    return params


def _stack_forward(
    t: dict[str, np.ndarray],
    layers: range,
    x: np.ndarray,
    trace: ForwardTrace | None = None,
    rng: np.random.Generator | None = None,
    rate: float = 0.0,
) -> np.ndarray:
    """``Dense → ReLU → (dropout)`` for each layer; masks are drawn, layer by layer, only with an rng.

    A mask is drawn as f64 uniforms compared to the rate, whatever the
    dtype, so the dropout stream does not depend on it; its values are
    then cast to the activations' dtype.
    """
    for i in layers:
        z = x @ t[f"layer.{i}.weight"] + t[f"layer.{i}.bias"]
        a = np.maximum(z, 0.0)
        mask = ((rng.random(a.shape) >= rate) / (1.0 - rate)).astype(a.dtype) if rng is not None else None
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
    nonzero; eval mode is deterministic. The batch's rows are read in the
    model's dtype: tables built for the model (`trainer._batch_tables`)
    are in it already, and any other rows are cast.
    """
    spec = params.spec
    wiring = spec.wiring
    if mode not in ("train", "eval"):
        raise ConfigError(f"mode must be 'train' or 'eval', got {mode!r}")
    use_dropout = mode == "train" and spec.dropout_rate > 0.0
    if use_dropout and rng is None:
        raise ConfigError("train-mode forward with dropout needs an rng")
    t, dtype = params.tensors, params.flat.dtype
    trace = ForwardTrace(mode=mode, annotator_index=batch.annotator_index)

    fused = text = np.asarray(batch.text, dtype=dtype)
    if wiring.socio is not None:
        if batch.socio is None:
            raise DataError(f"{spec.variant} batch is missing its socio rows")
        socio = np.asarray(batch.socio, dtype=dtype)
        if wiring.projected:
            E = _stack_forward(t, range(spec.trunk_start), socio, trace)
            trace.E = socio = E
            trace.E_norms = np.maximum(np.linalg.norm(E, axis=1, keepdims=True), NORM_EPS)
            trace.E_normalized = E / trace.E_norms
        fused = np.concatenate([text, socio], axis=1)
    if fused.shape[1] != spec.fused_dim:
        raise DataError(f"fused input width {fused.shape[1]} != spec width {spec.fused_dim}")

    head = len(spec.layer_shapes()) - 1
    h = _stack_forward(
        t, range(spec.trunk_start, head), fused, trace, rng if use_dropout else None, spec.dropout_rate
    )
    trace.inputs.append(h)
    w, bias = t[f"layer.{head}.weight"], t[f"layer.{head}.bias"]
    if not wiring.per_annotator:
        logits = (h @ w + bias).ravel()
    elif batch.annotator_index is None:
        raise DataError(f"{spec.variant} batch is missing annotator head indices")
    else:
        known = batch.annotator_index >= 0
        cols = batch.annotator_index[known]
        logits = np.empty(len(known), dtype=dtype)
        # each row against its own head column, so a logit does not depend on the rest of the batch
        logits[known] = np.multiply(h[known], w.T[cols]).sum(axis=1) + bias[cols]
        if not known.all():
            # head-fallback rule: annotators unseen in training score under the mean of all trained heads
            logits[~known] = h[~known] @ w.mean(axis=1) + float(bias.mean())
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
        np.matmul(trace.inputs[i].T, dz, out=grads[f"layer.{i}.weight"])
        dz.sum(axis=0, out=grads[f"layer.{i}.bias"])
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
    contrastive gradient w.r.t. `trace.E_normalized`, the rows fed to that
    loss. Both are cast to the model's dtype. The normalization Jacobian
    is applied here before the two E paths merge. Gradients land in
    `params.gradient_views()` and hold until the next `backward` or
    `adam_step` on `params`.
    """
    spec = params.spec
    wiring = spec.wiring
    if trace.mode != "train":
        raise DataError("backward requires a trace from a train-mode forward")
    if dE_loss is not None and not wiring.projected:
        raise DataError(f"variant {spec.variant} has no contrastive path for dE")
    t, dtype = params.tensors, params.flat.dtype
    d_logits = np.asarray(d_logits, dtype=dtype)
    if d_logits.shape != trace.logits.shape:
        raise DataError(f"d_logits shape {d_logits.shape} != logits shape {trace.logits.shape}")

    head = len(trace.inputs) - 1
    h, w = trace.inputs[head], t[f"layer.{head}.weight"]
    grads = params.gradient_views()
    d_w, d_bias = grads[f"layer.{head}.weight"], grads[f"layer.{head}.bias"]
    if not wiring.per_annotator:
        np.matmul(h.T, d_logits[:, None], out=d_w)
        d_bias[0] = d_logits.sum()
        dh = d_logits[:, None] @ w.T
    elif trace.annotator_index is None:
        raise DataError(f"{spec.variant} trace is missing annotator head indices")
    else:
        a, known = spec.annotator_count, trace.annotator_index >= 0
        cols, d = trace.annotator_index[known], d_logits[known]
        # each row touches only its annotator's column, added in row order; only the
        # columns the last update found live can hold anything but +0 (see `adam_step`)
        if params._live_columns is None:
            d_w.fill(0.0)
        else:
            d_w[:, params._live_columns] = 0.0
        params._live_columns = None
        np.add.at(d_w.T, cols, h[known] * d[:, None])
        d_bias[...] = np.bincount(cols, weights=d, minlength=a)
        dh = np.empty_like(h)
        dh[known] = d[:, None] * w.T[cols]
        if not known.all():
            d_all = np.repeat(d_logits[~known, None] / a, a, axis=1)  # a mean-head row's d/A in every column
            d_w += h[~known].T @ d_all
            d_bias += d_all.sum(axis=0)
            dh[~known] = d_all @ w.T

    d_fused = _stack_backward(t, trace, range(spec.trunk_start, head), dh, grads, wiring.projected)
    if wiring.projected:
        dE = d_fused[:, spec.text_dim :].copy()
        if dE_loss is not None:
            dE_loss = np.asarray(dE_loss, dtype=dtype)
            if dE_loss.shape != trace.E.shape:
                raise DataError(f"dE shape {dE_loss.shape} != E shape {trace.E.shape}")
            # Jacobian of E_hat = E / max(||E||, eps): rows at the
            # clamp scale by 1/eps, others subtract the radial part
            e_hat = trace.E_normalized
            clamped = (trace.E_norms <= NORM_EPS).ravel()
            radial = (dE_loss * e_hat).sum(axis=1, keepdims=True)
            d_from_loss = (dE_loss - radial * e_hat) / trace.E_norms
            if np.any(clamped):
                d_from_loss[clamped] = dE_loss[clamped] / NORM_EPS
            dE += d_from_loss
        _stack_backward(t, trace, range(spec.trunk_start), dE, grads, input_grad=False)
    return grads


def _adam_update(g, w, m, v, s, lr: float, bc1: float, bc2: float) -> None:
    """Adam's rule in place on matching arrays, overwriting `g` and the scratch `s`.

    m*b1 + (1-b1)*g, v*b2 + (1-b2)*g*g, w - lr*(m/bc1)/(sqrt(v/bc2)+eps).
    """
    m *= BETA1
    m += np.multiply(g, 1.0 - BETA1, out=s)
    v *= BETA2
    v += np.multiply(np.multiply(g, g, out=s), 1.0 - BETA2, out=s)
    np.add(np.sqrt(np.divide(v, bc2, out=s), out=s), ADAM_EPS, out=s)
    w -= np.divide(np.multiply(np.divide(m, bc1, out=g), lr, out=g), s, out=g)


def adam_step(params: ModelParams, lr: float) -> ModelParams:
    """One Adam update with bias correction (Kingma & Ba 2015); mutates and returns `params`.

    The gradients are read from the row behind `params.gradient_views()`,
    where `backward` writes them; a model with no gradient row yet is a
    DataError. Every constant, bias correction and `lr` enters as a Python
    float, so the update runs in the model's dtype. Every tensor but
    a per-annotator head, the trunk here, is updated in place over its part
    of `params.flat`, each element through the per-tensor form's operations
    in its order, so the bytes match it. A non-finite gradient refuses the
    update and leaves `params` untouched; a weight made non-finite raises
    after it. Both name the first such tensor.

    A per-annotator head is updated lazily, by the rule of PyTorch's
    `torch.optim.SparseAdam` and TF Addons' `LazyAdam`: only its live
    columns, those with any bit set in their weight or bias gradients
    (found by one OR over the head block, viewed as unsigned integers of
    the row's width), take the textbook update, at the global step's bias
    correction. A dead column keeps its weights, m and v bit for bit until
    its annotator next has a gradient, so it needs no new finiteness check
    either. The head's gradient rows are left as
    they were read, so `backward` re-zeroes only the live columns; write
    into the gradient views only between `backward` and `adam_step`.
    """
    if lr <= 0:
        raise ConfigError(f"learning rate must be > 0, got {lr}")
    if params.work is None:
        raise DataError("adam_step needs a gradient row: run backward on this model first")
    lr = float(lr)
    (g, scratch), (m, v), w = params.work, params.moments, params.flat
    cut, live = g.size, None
    if params.spec.wiring.per_annotator:
        # the (H+1, A) block of head weights and biases ends each row; NaN, inf and -0 set bits too
        a = params.spec.annotator_count
        cut = g.size - (params.spec.layer_shapes()[-1][0] + 1) * a
        heads = g[cut:].reshape(-1, a)
        live = np.flatnonzero(np.bitwise_or.reduce(heads.view(f"u{heads.itemsize}"), axis=0))
        g_live = heads[:, live]
    params._live_columns = live
    if not (np.isfinite(g[:cut]).all() and (live is None or np.isfinite(g_live).all())):
        bad = _first_non_finite(params, g)
        raise NumericError(f"non-finite gradient for {bad}; update refused at step {params.step + 1}")
    params.step += 1
    bc1 = 1.0 - BETA1 ** params.step
    bc2 = 1.0 - BETA2 ** params.step
    # the trunk's update is computed in its gradient rows, which the next `backward` overwrites whole
    _adam_update(g[:cut], w[:cut], m[:cut], v[:cut], scratch[:cut], lr, bc1, bc2)
    finite = np.isfinite(w[:cut]).all()
    if live is not None:
        # the same rule on the live columns' gathered g, w, m and v, scattered back
        w_head, m_head, v_head = (row[cut:].reshape(-1, a) for row in (w, m, v))
        w_live, m_live, v_live = w_head[:, live], m_head[:, live], v_head[:, live]
        _adam_update(g_live, w_live, m_live, v_live, np.empty_like(g_live), lr, bc1, bc2)
        m_head[:, live], v_head[:, live], w_head[:, live] = m_live, v_live, w_live
        finite = finite and np.isfinite(w_live).all()
    if not finite:
        bad = _first_non_finite(params, w)
        raise NumericError(f"non-finite parameter {bad} after step {params.step}")
    return params


def extract_socio_reps(params: ModelParams, profiles: ProfileTable) -> VectorTable:
    """Learned representation per profiled annotator, keyed in `profiles` order; identical profiles map identically.

    Each distinct profile row runs the eval-mode projection stack once and
    on its own, in the model's dtype: the last bit of a batched product
    can depend on where a row sits in it. Annotators with equal rows share
    that result.
    """
    spec = params.spec
    if not spec.wiring.projected:
        raise ConfigError(f"socio representations only exist for socio_contrastive, not {spec.variant}")
    distinct, inverse = np.unique(multihot_rows(profiles, params.schema), axis=0, return_inverse=True)
    distinct = distinct.astype(params.flat.dtype)
    reps = np.empty((len(distinct), spec.projection_dims[-1]))  # f64 like every VectorTable; f32 widens exactly
    for i, row in enumerate(distinct):
        reps[i] = _stack_forward(params.tensors, range(spec.trunk_start), row[None, :])[0]
    return VectorTable(profiles.annotators, reps[inverse.reshape(-1)])


def save_checkpoint(params: ModelParams, directory: str, seed: int) -> str:
    """Write manifest.json plus params.bin, the raw bytes of `params.flat`; returns `directory`.

    The manifest holds the spec, `seed`, the step, the row's dtype
    (`WEIGHT_DTYPE`, "<f4"), the tensor shapes, and the head ids of a
    per-annotator model and the schema of a multi-hot one. params.bin is
    the weights row alone, 4·n bytes of little-endian f32 in
    `ModelSpec.tensor_shapes` order; Adam's moments are not kept.
    """
    os.makedirs(directory, exist_ok=True)
    manifest = {
        "spec": asdict(params.spec),
        "seed": seed,
        "step": params.step,
        "dtype": params.flat.dtype.str,
        "tensors": {k: list(t.shape) for k, t in params.tensors.items()},
    }
    if params.annotators is not None:
        manifest["annotators"] = list(params.annotators)
    if params.schema is not None:
        manifest["schema"] = params.schema.to_dict()
    write_json(os.path.join(directory, "manifest.json"), manifest)
    params.flat.tofile(os.path.join(directory, "params.bin"))
    return directory


def read_manifest(directory: str) -> tuple[ModelParams, int]:
    """The checked manifest.json of a checkpoint: a zeroed model of its spec, step, schema and head ids; and its seed.

    params.bin is not read. The checkpoint is outside input, so anything
    that does not fit the spec is a DataError: a missing seed or spec, a
    spec of an unknown variant, tensor shapes other than the spec's
    layers, a malformed schema, a weights dtype other than `WEIGHT_DTYPE`
    (every checkpoint of an earlier version is f64 and has no dtype key),
    a multi-hot variant without a schema of its socio width, or a
    per-annotator variant without one distinct id per head unit.
    """
    manifest_path = os.path.join(directory, "manifest.json")
    if not os.path.exists(manifest_path):
        raise DataError(f"{directory}: no manifest.json")
    try:
        with open(manifest_path, encoding="utf-8") as fh:
            manifest = json.load(fh)
        raw = manifest["spec"]
        dims = {key: tuple(raw[key]) for key in ("hidden_dims", "projection_dims")}
        spec = ModelSpec(**{**raw, **dims})
        if spec.variant not in VARIANTS:
            raise DataError(f"{directory}: unknown variant {spec.variant!r}")
        expected = {name: list(shape) for name, shape in spec.tensor_shapes().items()}
        if manifest["tensors"] != expected:
            raise DataError(f"{directory}: tensor shapes {manifest['tensors']} differ from the spec's {expected}")
        schema = SocioSchema.from_dict(manifest["schema"]) if "schema" in manifest else None
        heads = manifest["annotators"] if spec.wiring.per_annotator else None
        if manifest.get("dtype") != WEIGHT_DTYPE:
            raise DataError(
                f"{manifest_path}: weights of dtype {manifest.get('dtype')!r}, not {WEIGHT_DTYPE!r}; checkpoints "
                "of earlier versions (f64, with no dtype key) are no longer read: retrain to get one"
            )
        # inside the try: the constructor raises ValueError for a spec of negative widths
        params = ModelParams(spec, step=int(manifest["step"]), schema=schema, annotators=heads)
        seed = int(manifest["seed"])
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{directory}: malformed manifest: {exc!r}") from None
    if spec.wiring.socio == "multihot" and (schema is None or schema.total_width != spec.socio_width):
        raise DataError(f"{directory}: a {spec.variant} checkpoint needs a schema of width {spec.socio_width}")
    if heads is not None and not (
        isinstance(heads, list) and all(isinstance(a, str) for a in heads)
        and len(set(heads)) == len(heads) == spec.annotator_count
    ):
        raise DataError(f"{directory}: the {spec.annotator_count} head units need as many distinct annotator ids")
    return params, seed


def load_checkpoint(params: ModelParams, directory: str) -> ModelParams:
    """Inverse of save_checkpoint: fill `params`, the model `read_manifest(directory)` returned, with its weights.

    The manifest is not read again. A params.bin that is missing, not
    the spec's size, or non-finite is a DataError.
    """
    path = os.path.join(directory, "params.bin")
    if not os.path.isfile(path):
        raise DataError(f"{directory}: no params.bin; checkpoints with one .bin per tensor are no longer read")
    if (size := os.path.getsize(path)) != params.flat.nbytes:
        raise DataError(f"{directory}: params.bin is {size} bytes, not {params.flat.nbytes}")
    with open(path, "rb") as fh:
        fh.readinto(params.flat)
    if not np.isfinite(params.flat).all():
        name = _first_non_finite(params, params.flat)
        raise DataError(f"{directory}: params.bin holds non-finite values in the weights of {name}")
    return params
