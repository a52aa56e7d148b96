"""Deterministic hashed n-gram text encoder with an analytic backward pass.

Text is lowercased, split on non-alphanumeric characters, and every token
contributes itself plus its character 3/4/5-grams. Features are FNV-1a-64
hashed into a fixed bucket space, mean-pooled through an embedding table and
linearly projected to the full nested dimension. Everything is exactly
reproducible from (seed, text): hashing is integer arithmetic and parameter
initialization uses the documented xorshift generator below.

Tokenization has two paths that give the same bags. `tokenize_many` hashes a
list of texts a chunk at a time with numpy; `feature_bags` (training) and
`index.build_index` (indexing, evaluation and validation) featurize whole
corpora through it. `tokenize` is the scalar one-text loop behind `encode`: a
query is one text, where the loop is faster than the batch set-up, and it is
the reference the batch path is tested against.

`embed_bag` is the one bag-to-vector path; it returns the pooled and the raw
embedding row as arrays, and `encode` alone wraps one in a `NestedEmbedding`.
Training runs one forward pass per step: `feature_bags` tokenizes each text
once per run, `embed_bag` embeds it, and `backward` takes the step's bags with
one upstream row each, reusing their pooled rows and accumulating into a
table-sized buffer the caller keeps for the run.
"""

from __future__ import annotations

import re
import struct
from dataclasses import dataclass

import numpy as np

from ._binio import Reader, pack_header, write_atomically
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

# Texts per `tokenize_many` pass, and titles per `build_index` chunk. A pass's
# temporaries grow with its feature count; 128 texts keep them near 1 MiB, and
# larger passes measured no faster.
CHUNK_TEXTS = 128
# Largest bucket count the batch tokenizer (and the model file's u32) takes.
MAX_BUCKETS = 2**32 - 1

MODEL_MAGIC = b"NEAR2MDL"
MODEL_VERSION = 1


def fnv1a64(data: bytes) -> int:
    """FNV-1a 64-bit hash; fixed across platforms and runs."""
    h = _FNV_OFFSET
    for byte in data:
        h = ((h ^ byte) * _FNV_PRIME) & _U64
    return h


def fnv1a64_many(data: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """`fnv1a64` of every byte span data[starts[i]:ends[i]] of a uint8 array.

    All spans advance one byte position per step as one uint64 array, whose
    multiply wraps modulo 2^64 as the scalar hash's mask does. Spans are
    sorted longest first, so each step works on a shrinking prefix slice.
    """
    lengths = ends - starts
    order = np.argsort(-lengths, kind="stable")
    positions = starts[order]
    # active[k]: how many spans are longer than k bytes
    active = len(order) - np.cumsum(np.bincount(lengths, minlength=1))
    hashes = np.full(len(order), _FNV_OFFSET, dtype=np.uint64)
    prime = np.uint64(_FNV_PRIME)
    for k, count in enumerate(active[:-1].tolist()):
        h = hashes[:count]
        h ^= data[positions[:count] + k]
        h *= prime
    out = np.empty_like(hashes)
    out[order] = hashes
    return out


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


def tokenize_many(texts: list[str], bucket_count: int) -> list[FeatureBag]:
    """`tokenize` of every text, in order, hashed `CHUNK_TEXTS` texts at a time.

    Bag for bag equal to `tokenize` for any bucket count up to `MAX_BUCKETS`;
    a text's bag depends neither on its neighbours nor on the chunking.
    """
    if not 1 <= bucket_count <= MAX_BUCKETS:
        raise ValueError(f"bucket_count must be in [1, {MAX_BUCKETS}], got {bucket_count}")
    bags: list[FeatureBag] = []
    for lo in range(0, len(texts), CHUNK_TEXTS):
        bags.extend(_tokenize_chunk(texts[lo : lo + CHUNK_TEXTS], bucket_count))
    return bags


def _tokenize_chunk(texts: list[str], bucket_count: int) -> list[FeatureBag]:
    per_text = [_TOKEN_RE.findall(text.lower()) for text in texts]
    tokens = [token for found in per_text for token in found]
    if not tokens:
        return [_EMPTY_BAG] * len(texts)
    owner = np.repeat(np.arange(len(texts)), [len(found) for found in per_text])
    # every feature as a code-point span of the tokens laid end to end:
    # the token itself, then each n-gram, sliding one code point at a time
    length = np.fromiter(map(len, tokens), dtype=np.int64, count=len(tokens))
    first = np.cumsum(length) - length
    starts, ends, owners = [first], [first + length], [owner]
    for n in _NGRAM_SIZES:
        per_token = np.maximum(length - n + 1, 0)
        before = np.cumsum(per_token) - per_token
        gram_starts = np.repeat(first - before, per_token) + np.arange(before[-1] + per_token[-1])
        starts.append(gram_starts)
        ends.append(gram_starts + n)
        owners.append(np.repeat(owner, per_token))
    starts, ends = np.concatenate(starts), np.concatenate(ends)
    joined = "".join(tokens)
    if joined.isascii():
        data = np.frombuffer(joined.encode("ascii"), dtype=np.uint8)
    else:
        # code-point offsets to UTF-8 byte offsets (tokens hold no surrogates)
        points = np.frombuffer(joined.encode("utf-32-le"), dtype="<u4")
        width = 1 + (points >= 0x80) + (points >= 0x800) + (points >= 0x10000)
        offsets = np.zeros(len(points) + 1, dtype=np.int64)
        np.cumsum(width, out=offsets[1:])
        starts, ends = offsets[starts], offsets[ends]
        data = np.frombuffer(joined.encode("utf-8"), dtype=np.uint8)
    buckets = fnv1a64_many(data, starts, ends) % np.uint64(bucket_count)
    keys, counts = np.unique(
        np.concatenate(owners) * bucket_count + buckets.astype(np.int64), return_counts=True
    )
    key_owner = keys // bucket_count
    ids = keys - key_owner * bucket_count
    counts = counts.astype(np.int64)
    bounds = np.searchsorted(key_owner, np.arange(len(texts) + 1)).tolist()
    return [
        FeatureBag(ids=ids[a:b], counts=counts[a:b]) if b > a else _EMPTY_BAG
        for a, b in zip(bounds, bounds[1:])
    ]


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
    """Feature-hash table plus linear projection to the full nested dimension.

    A created model holds both in float64. A loaded model holds the feature
    table in the file's float32, since a text reads only its own rows and
    `_pool` widens those exactly, and the projection widened to float64;
    `train` works on a float64 copy of a float32 table and leaves the loaded
    model as it was.
    """

    bucket_count: int
    feature_dim: int
    dims: DimSet
    seed: int
    feature_table: np.ndarray  # (B, H) float64, or float32 when loaded
    projection: np.ndarray  # (H, D) float64

    def __post_init__(self):
        b, h, d = self.bucket_count, self.feature_dim, self.dims.full
        if not 1 <= b <= MAX_BUCKETS:
            raise ValueError(f"bucket_count must be in [1, {MAX_BUCKETS}], got {b}")
        if h < 1:
            raise ValueError(f"feature_dim must be >= 1, got {h}")
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
    """One FeatureBag per distinct text, each text tokenized exactly once.

    The texts go through the batch tokenizer, `tokenize_many`, about ten times
    faster per text than the one-text loop `tokenize`, which `encode` keeps for
    single queries. Both give the same bags, so training and `encode` agree.
    """
    distinct = list(dict.fromkeys(texts))
    return dict(zip(distinct, tokenize_many(distinct, bucket_count)))


def _pool(model: EncoderModel, bag: FeatureBag) -> np.ndarray:
    weights = bag.counts.astype(np.float64)
    # float32 rows of a loaded table widen exactly in the float64 product
    rows = model.feature_table[bag.ids]
    return (rows * weights[:, None]).sum(axis=0) / weights.sum()


def embed_bag(model: EncoderModel, bag: FeatureBag) -> tuple[np.ndarray, np.ndarray]:
    """A bag's (pooled, values) rows: the pooled (H,) row, which `backward`
    needs again, and the raw (D,) embedding, pooled times the projection.

    The pooled row is the count-weighted mean of the bag's feature-table rows;
    an empty bag gives zero rows. Finiteness is left to the caller.
    """
    if len(bag) == 0:
        return np.zeros(model.feature_dim), np.zeros(model.full_dim)
    pooled = _pool(model, bag)
    return pooled, pooled @ model.projection


def encode(model: EncoderModel, text: str) -> NestedEmbedding:
    """Embed one text; an empty feature bag yields a degenerate zero embedding."""
    bag = tokenize(text, model.bucket_count)
    return NestedEmbedding(embed_bag(model, bag)[1], dims=model.dims, degenerate=len(bag) == 0)


def backward(
    model: EncoderModel,
    bags: list[FeatureBag],
    upstream: np.ndarray,
    pooled: np.ndarray,
    grad_table: np.ndarray,
) -> dict[str, np.ndarray]:
    """Parameter gradients for sum_t upstream[t] . embed_bag(bags[t]).

    `upstream` holds one row per bag. Exact chain rule: the projection
    gradient is one pooled^T @ upstream product, and each bag adds its
    count-weighted share of upstream @ projection^T to its own table rows.
    Buckets absent from every bag keep exactly zero gradient; empty bags
    contribute nothing.

    `pooled`, one row per bag, holds the pooled rows `embed_bag` returned for
    the current parameters. The table gradient accumulates into `grad_table`,
    an all-zero array of the feature table's shape that a training run keeps
    and re-zeroes at the bags' rows after each step; it is returned as the
    `feature_table` gradient.
    """
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.ndim != 2 or upstream.shape[1] != model.full_dim:
        raise ValueError(f"upstream gradient must have shape (bags, {model.full_dim})")
    if upstream.shape[0] != len(bags):
        raise ValueError("one upstream gradient row per bag required")
    if pooled.shape != (len(bags), model.feature_dim):
        raise ValueError(f"pooled rows must have shape ({len(bags)}, {model.feature_dim})")
    if grad_table.shape != model.feature_table.shape:
        raise ValueError(f"grad_table must have shape {model.feature_table.shape}")
    keep = [i for i, bag in enumerate(bags) if len(bag)]
    bags, pooled, upstream = [bags[i] for i in keep], pooled[keep], upstream[keep]
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
    """Write the model beside `path`, then rename it over `path`."""
    header_fields = (model.bucket_count, model.feature_dim, model.full_dim)

    def write(fh):
        fh.write(pack_header(MODEL_MAGIC, MODEL_VERSION, "III", header_fields, model.dims))
        fh.write(struct.pack("<Q", model.seed & _U64))
        fh.write(model.feature_table.astype("<f4").tobytes(order="C"))
        fh.write(model.projection.astype("<f4").tobytes(order="C"))

    write_atomically(path, write)


def load_model(path) -> EncoderModel:
    """Read a model back: the feature table stays float32, the projection is widened."""
    with open(path, "rb") as fh:
        reader = Reader(fh, "model")
        buckets, feature_dim, full_dim = reader.header(MODEL_MAGIC, MODEL_VERSION, "III", path)
        dims = reader.dims(full_dim)
        (seed,) = reader.unpack("Q", "seed")
        table = reader.array("<f4", (buckets, feature_dim), "feature table")
        proj = reader.array("<f4", (feature_dim, full_dim), "projection").astype(np.float64)
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
    except ValueError as e:  # out-of-range sizes or non-finite parameters
        raise FormatError(f"bad model parameters: {e}") from None


def model_file_size(model: EncoderModel) -> int:
    """Exact serialized byte count implied by the format."""
    return (
        8 + 16 + 2 + 4 * len(model.dims) + 8
        + 4 * model.bucket_count * model.feature_dim
        + 4 * model.feature_dim * model.full_dim
    )
