"""Synthetic populations with known demographic signal.

The generator realizes the simplest process under which demographics
shape judgments: each text carries a latent score z ~ N(0, 1), each
annotator's categories contribute additive log-odds shifts, and a label
is drawn from Bernoulli(sigmoid(z + shifts)). Text embeddings are
z * u + noise for a fixed random unit direction u, so the text signal is
linearly recoverable. Zero-signal populations give the whole pipeline a
null it must not contradict; planted shifts give it an effect it must
detect.

Each generator draws from its own seeded stream in a fixed order. Where
the arithmetic on the draws is batched, the draws themselves keep that
order, so a spec always gives the same bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .corpus import Dataset
from .features import ProfileTable, SocioSchema, VectorTable, build_schema, multihot_rows
from .model import sigmoid


@dataclass(frozen=True)
class AttributeSpec:
    name: str
    categories: tuple[str, ...]
    probabilities: tuple[float, ...]


@dataclass(frozen=True)
class PopulationSpec:
    """Generator settings; `config.load_config` validates every field."""

    annotator_count: int
    attributes: tuple[AttributeSpec, ...]
    signal: dict[tuple[str, str], float] = field(default_factory=dict)
    text_count: int = 100
    annotations_per_text: int = 4
    embedding_dim: int = 16
    embedding_noise: float = 0.1
    seed: int = 0
    socio_embedding_dim: int | None = None  # also write an annotator-keyed socio embedding table this wide


@dataclass
class SynthCorpus:
    text_ids: list[str]
    latent: np.ndarray
    embeddings: VectorTable
    direction: np.ndarray


def generate_population(spec: PopulationSpec) -> ProfileTable:
    """Sample annotators i.i.d. from the categorical attribute distributions.

    Each cell's uniform, drawn row by row, picks through its attribute's normalized CDF, as `Generator.choice` does.
    """
    rng = np.random.default_rng([spec.seed, 1])
    width = len(str(max(spec.annotator_count - 1, 1)))
    uniforms = rng.random((spec.annotator_count, len(spec.attributes)))
    cells = np.empty(uniforms.shape, dtype=object)
    for j, attr in enumerate(spec.attributes):
        cdf = np.cumsum(attr.probabilities)
        cdf /= cdf[-1]
        cells[:, j] = np.array(attr.categories, dtype=object)[np.searchsorted(cdf, uniforms[:, j], side="right")]
    ids = [f"a{i:0{width}d}" for i in range(spec.annotator_count)]
    return ProfileTable.from_cells(ids, [attr.name for attr in spec.attributes], cells)


def generate_corpus(spec: PopulationSpec) -> SynthCorpus:
    """Texts with latent scores and embeddings that carry the score linearly."""
    rng = np.random.default_rng([spec.seed, 2])
    width = len(str(max(spec.text_count - 1, 1)))
    text_ids = [f"t{i:0{width}d}" for i in range(spec.text_count)]
    latent = rng.standard_normal(spec.text_count)
    direction = rng.standard_normal(spec.embedding_dim)
    direction /= np.linalg.norm(direction)
    noise = rng.standard_normal((spec.text_count, spec.embedding_dim))
    vectors = latent[:, None] * direction[None, :] + spec.embedding_noise * noise
    return SynthCorpus(text_ids=text_ids, latent=latent, embeddings=VectorTable(text_ids, vectors), direction=direction)


def annotator_shifts(population: ProfileTable, signal: dict[tuple[str, str], float]) -> np.ndarray:
    """Each annotator's summed log-odds shift over the (attribute, category) pairs of `signal` they hold."""
    schema = build_schema(population)
    slots = [(name, cat) for name, cats in schema.attributes for cat in cats]
    rows = multihot_rows(population, schema)
    shifts = np.zeros(len(population))
    for pair, shift in signal.items():
        if pair in slots:
            # adding shift * 0.0 leaves each annotator's sum exactly that of the shifts they hold
            shifts += shift * rows[:, slots.index(pair)]
    return shifts


def generate_annotations(
    population: ProfileTable,
    corpus: SynthCorpus,
    spec: PopulationSpec,
) -> Dataset:
    """Assign annotators per text without replacement; labels follow the shifted odds.

    Per text, in text order, the stream gives `choice(A, k, replace=False)`
    and then k uniforms; all labels are then drawn in one pass as 0/1
    scores, score = uniform < sigmoid(z + shift), which label themselves.
    `choice` stays per text: drawing its picks in bulk would tie the bytes
    to numpy's algorithm inside it.
    """
    rng = np.random.default_rng([spec.seed, 3])
    shifts = annotator_shifts(population, spec.signal)
    k = spec.annotations_per_text
    picks = np.empty((len(corpus.latent), k), dtype=np.int64)
    uniforms = np.empty(picks.shape)
    for i in range(len(picks)):
        picks[i] = rng.choice(len(population), size=k, replace=False)
        uniforms[i] = rng.random(k)
    scores = (uniforms < sigmoid(corpus.latent[:, None] + shifts[picks])).astype(np.int8).ravel()
    return Dataset.from_codes(
        np.array(corpus.text_ids, dtype=object), np.array(population.annotators, dtype=object),
        np.repeat(np.arange(len(picks)), k), picks.ravel(), scores, population,
    )


def generate_socio_embeddings(
    population: ProfileTable,
    dim: int,
    seed: int,
) -> VectorTable:
    """Stand-in for an external encoder over profile strings.

    Each (attribute, category) pair gets a fixed random direction; an
    annotator's vector is the mean of their category directions plus
    small noise, so identical profiles land near each other.
    """
    rng = np.random.default_rng([seed, 4])
    schema = SocioSchema(sorted(build_schema(population).attributes))
    # one direction per held (attribute, category) pair, drawn in sorted pair order; MISSING, last, gets none
    directions = [[rng.standard_normal(dim) for _ in cats[:-1]] for _, cats in schema.attributes]
    vectors = np.empty((len(population), dim))
    for i, row in enumerate(schema.encode(population).tolist()):
        parts = [held[c] for held, c in zip(directions, row) if c < len(held)]
        base = np.mean(parts, axis=0) if parts else np.zeros(dim)
        vectors[i] = base + 0.01 * rng.standard_normal(dim)
    return VectorTable(population.annotators, vectors)
