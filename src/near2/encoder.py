"""Deterministic hashed n-gram text encoder with an analytic backward pass.

Text is lowercased, split on non-alphanumeric characters, and every token
contributes itself plus its character 3/4/5-grams. Features are FNV-1a-64
hashed into a fixed bucket space, mean-pooled through an embedding table and
linearly projected to the full nested dimension. Everything is exactly
reproducible from (seed, text): hashing is integer arithmetic and parameter
initialization uses the documented xorshift generator below.

Training runs one forward pass per step: `feature_bags` tokenizes each text
once per run, `embed_bag` is the one bag-to-vector path (`encode` uses it),
and `backward` takes the step's bags with one upstream row each.
"""

from __future__ import annotations

import re
import struct
from dataclasses import dataclass

import numpy as np

from ._binio import Reader, pack_header
from .errors import FormatError
from .nested import DimSet, NestedEmbedding

DEFAULT_DIMS = DimSet((768, 512, 256, 128, 64))
DEFAULT_BUCKETS = 2**15
DEFAULT_FEATURE_DIM = 128

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)
_NGRAM_SIZES = (3, 4, 5)

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_U64 = 0xFFFFFFFFFFFFFFFF

MODEL_MAGIC = b"NEAR2MDL"
MODEL_VERSION = 1


def fnv1a64(data: bytes) -> int:
    """FNV-1a 64-bit hash; fixed across platforms and runs."""
    h = _FNV_OFFSET
    for byte in data:
        h = ((h ^ byte) * _FNV_PRIME) & _U64
    return h


@dataclass(frozen=True)
class FeatureBag:
    """Sparse hashed-feature counts: strictly increasing bucket ids, counts >= 1."""

    ids: np.ndarray
    counts: np.ndarray

    def __len__(self) -> int:
        return int(self.ids.shape[0])

    @property
    def total(self) -> int:
        return int(self.counts.sum())


_EMPTY_BAG = FeatureBag(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))


def tokenize(text: str, bucket_count: int) -> FeatureBag:
    """Hash a text into aggregated bucket counts.

    Tokens are maximal alphanumeric runs of the lowercased text; each token
    emits itself plus all its character 3-, 4- and 5-grams.
    """
    counts: dict[int, int] = {}
    for token in _TOKEN_RE.findall(text.lower()):
        features = [token]
        for n in _NGRAM_SIZES:
            features.extend(token[i : i + n] for i in range(len(token) - n + 1))
        for feat in features:
            bucket = fnv1a64(feat.encode("utf-8")) % bucket_count
            counts[bucket] = counts.get(bucket, 0) + 1
    if not counts:
        return _EMPTY_BAG
    ids = np.fromiter(sorted(counts), dtype=np.int64, count=len(counts))
    return FeatureBag(ids=ids, counts=np.array([counts[i] for i in ids], dtype=np.int64))


# --- parameter initialization -------------------------------------------------
#
# A 256-lane ensemble of Marsaglia xorshift64 generators. Lane l starts from
# splitmix64(seed + l) (zero states remapped to a fixed odd constant); each
# block advances every lane once (x ^= x<<13; x ^= x>>7; x ^= x<<17) and emits
# the lane states in lane order. Doubles are (state >> 11) * 2^-53 in [0, 1).
# Lane-parallel rather than scalar-sequential so initialization vectorizes.

_XS_LANES = 256


def _splitmix64(x: np.ndarray) -> np.ndarray:
    z = (x + np.uint64(0x9E3779B97F4A7C15)).astype(np.uint64)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def xorshift_uniform(seed: int, count: int) -> np.ndarray:
    """`count` doubles in [0, 1) from the documented xorshift64 ensemble."""
    states = _splitmix64(np.uint64(seed & _U64) + np.arange(_XS_LANES, dtype=np.uint64))
    states[states == 0] = np.uint64(0x9E3779B97F4A7C15)
    blocks = -(-count // _XS_LANES)
    out = np.empty(blocks * _XS_LANES, dtype=np.uint64)
    for b in range(blocks):
        states ^= states << np.uint64(13)
        states ^= states >> np.uint64(7)
        states ^= states << np.uint64(17)
        out[b * _XS_LANES : (b + 1) * _XS_LANES] = states
    # (out >> 11) * 2^-53 with the shift and the scale in place
    out >>= np.uint64(11)
    draws = out[:count].astype(np.float64)
    draws *= 2.0**-53
    return draws


@dataclass
class EncoderModel:
    """Feature-hash table plus linear projection to the full nested dimension."""

    bucket_count: int
    feature_dim: int
    dims: DimSet
    seed: int
    feature_table: np.ndarray  # (B, H) float64
    projection: np.ndarray  # (H, D) float64

    def __post_init__(self):
        b, h, d = self.bucket_count, self.feature_dim, self.dims.full
        if self.feature_table.shape != (b, h):
            raise ValueError(f"feature_table must be ({b}, {h})")
        if self.projection.shape != (h, d):
            raise ValueError(f"projection must be ({h}, {d})")
        if not (np.all(np.isfinite(self.feature_table)) and np.all(np.isfinite(self.projection))):
            raise ValueError("model parameters must be finite")

    @classmethod
    def create(
        cls,
        bucket_count: int = DEFAULT_BUCKETS,
        feature_dim: int = DEFAULT_FEATURE_DIM,
        dims: DimSet = DEFAULT_DIMS,
        seed: int = 0,
    ) -> "EncoderModel":
        """Fresh model with uniform(-1/sqrt(H), 1/sqrt(H)) parameters.

        Draws fill the feature table row-major first, then the projection
        row-major, from one xorshift stream, so (seed, shape) pins every bit.
        """
        b, h, d = int(bucket_count), int(feature_dim), dims.full
        bound = 1.0 / np.sqrt(h)
        # bound * (2.0 * draws - 1.0), in place: each temporary would be as
        # large as all the parameters
        params = xorshift_uniform(seed, b * h + h * d)
        params *= 2.0
        params -= 1.0
        params *= bound
        return cls(
            bucket_count=b,
            feature_dim=h,
            dims=dims,
            seed=int(seed),
            feature_table=params[: b * h].reshape(b, h),
            projection=params[b * h :].reshape(h, d),
        )

    @property
    def full_dim(self) -> int:
        return self.dims.full

    def parameters(self) -> dict[str, np.ndarray]:
        return {"feature_table": self.feature_table, "projection": self.projection}


def feature_bags(texts, bucket_count: int) -> dict[str, FeatureBag]:
    """One FeatureBag per distinct text, each text tokenized exactly once."""
    return {text: tokenize(text, bucket_count) for text in dict.fromkeys(texts)}


def _pool(model: EncoderModel, bag: FeatureBag) -> np.ndarray:
    weights = bag.counts.astype(np.float64)
    rows = model.feature_table[bag.ids]
    return (rows * weights[:, None]).sum(axis=0) / weights.sum()


def embed_bag(model: EncoderModel, bag: FeatureBag) -> NestedEmbedding:
    """Embed one feature bag; an empty bag yields a degenerate zero embedding."""
    if len(bag) == 0:
        return NestedEmbedding(
            np.zeros(model.full_dim), dims=model.dims, degenerate=True
        )
    return NestedEmbedding(_pool(model, bag) @ model.projection, dims=model.dims)


def encode(model: EncoderModel, text: str) -> NestedEmbedding:
    """Embed one text; empty feature bags yield a degenerate zero embedding."""
    return embed_bag(model, tokenize(text, model.bucket_count))


def backward(
    model: EncoderModel, bags: list[FeatureBag], upstream: np.ndarray
) -> dict[str, np.ndarray]:
    """Parameter gradients for sum_t upstream[t] . embed_bag(bags[t]).

    `upstream` holds one row per bag. Exact chain rule: the projection
    gradient is one pooled^T @ upstream product, and each bag adds its
    count-weighted share of upstream @ projection^T to its own table rows.
    Buckets absent from every bag keep exactly zero gradient; empty bags
    contribute nothing.
    """
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.ndim != 2 or upstream.shape[1] != model.full_dim:
        raise ValueError(f"upstream gradient must have shape (bags, {model.full_dim})")
    if upstream.shape[0] != len(bags):
        raise ValueError("one upstream gradient row per bag required")
    keep = [i for i, bag in enumerate(bags) if len(bag)]
    bags, upstream = [bags[i] for i in keep], upstream[keep]
    pooled = np.array([_pool(model, bag) for bag in bags]).reshape(len(bags), model.feature_dim)
    grad_table = np.zeros_like(model.feature_table)
    for bag, grad_pooled in zip(bags, upstream @ model.projection.T):
        weights = bag.counts.astype(np.float64) / bag.total
        grad_table[bag.ids] += weights[:, None] * grad_pooled[None, :]
    return {"feature_table": grad_table, "projection": pooled.T @ upstream}


# --- persistence ----------------------------------------------------------------
#
# Binary layout (little-endian): magic "NEAR2MDL", version u32, B u32, H u32,
# D u32, dims_count u16, dims u32 each (descending), seed u64, then parameters
# as float32: feature_table row-major, projection row-major.


def save_model(model: EncoderModel, path) -> None:
    header_fields = (model.bucket_count, model.feature_dim, model.full_dim)
    with open(path, "wb") as fh:
        fh.write(pack_header(MODEL_MAGIC, MODEL_VERSION, "III", header_fields, model.dims))
        fh.write(struct.pack("<Q", model.seed & _U64))
        fh.write(model.feature_table.astype("<f4").tobytes(order="C"))
        fh.write(model.projection.astype("<f4").tobytes(order="C"))


def load_model(path) -> EncoderModel:
    with open(path, "rb") as fh:
        reader = Reader(fh, "model")
        buckets, feature_dim, full_dim = reader.header(MODEL_MAGIC, MODEL_VERSION, "III", path)
        dims = reader.dims(full_dim)
        (seed,) = reader.unpack("Q", "seed")
        table = np.frombuffer(
            reader.exact(4 * buckets * feature_dim, "feature table"), dtype="<f4"
        ).astype(np.float64).reshape(buckets, feature_dim)
        proj = np.frombuffer(
            reader.exact(4 * feature_dim * full_dim, "projection"), dtype="<f4"
        ).astype(np.float64).reshape(feature_dim, full_dim)
        reader.end("model parameters")
    try:
        return EncoderModel(
            bucket_count=buckets,
            feature_dim=feature_dim,
            dims=dims,
            seed=seed,
            feature_table=table,
            projection=proj,
        )
    except ValueError as e:  # non-finite parameters
        raise FormatError(f"bad model parameters: {e}") from None


def model_file_size(model: EncoderModel) -> int:
    """Exact serialized byte count implied by the format."""
    return (
        8 + 16 + 2 + 4 * len(model.dims) + 8
        + 4 * model.bucket_count * model.feature_dim
        + 4 * model.feature_dim * model.full_dim
    )
