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

`pool` gives a bag's pooled row and `embed_bag` its raw embedding, the pooled
row times the projection; `encode_bag` wraps one in a `NestedEmbedding`,
`encode` does so for one text, and `index.build_index` stores them. Training
never projects: `feature_bags` tokenizes each text once per run, `pool` pools
it once per step, and the losses work on the pooled rows and the projection
(see `near2.losses`), so `backward` takes a gradient with respect to the
step's pooled rows and only scatters each bag's share into a slab of the
table rows the run's texts reach, a buffer the caller keeps for the run.

`load_model` memory-maps the feature table, so a loaded model reads from disk
only the rows its texts gather, and checks each row when it is gathered, not
at load: `embed_bag`, which `encode` and `index.build_index` both embed
through, refuses a non-finite embedding, and from a loaded model that refusal
is a `FormatError` naming the file and the corrupt row
(`non_finite_embedding`). A row no text gathers is never read.
"""

from __future__ import annotations

import re
import struct
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ._binio import Reader, map_file, pack_header, write_atomically
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

    @cached_property
    def weights(self) -> np.ndarray:
        """Each feature's float64 share of the bag, counts / total, computed
        once per bag: `backward` reads it every step the bag trains."""
        return self.counts.astype(np.float64) / self.total


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
_XS_STEPS = 1024  # blocks per run of raw states that `xorshift_uniform` holds


def _splitmix64(x: np.ndarray) -> np.ndarray:
    z = (x + np.uint64(0x9E3779B97F4A7C15)).astype(np.uint64)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def xorshift_uniform(seed: int, count: int) -> np.ndarray:
    """`count` doubles in [0, 1) from the documented xorshift64 ensemble.

    The lane states are drawn `_XS_STEPS` blocks at a time and converted
    straight into the result, so besides it only one run of raw states
    (2 MiB) is held, however large `count` is.
    """
    states = _splitmix64(np.uint64(seed & _U64) + np.arange(_XS_LANES, dtype=np.uint64))
    states[states == 0] = np.uint64(0x9E3779B97F4A7C15)
    out = np.empty(count)
    raw = np.empty((_XS_STEPS, _XS_LANES), dtype=np.uint64)
    per_run = _XS_STEPS * _XS_LANES
    for first in range(0, count, per_run):
        size = min(per_run, count - first)
        steps = -(-size // _XS_LANES)
        for b in range(steps):
            states ^= states << np.uint64(13)
            states ^= states >> np.uint64(7)
            states ^= states << np.uint64(17)
            raw[b] = states
        # (state >> 11) * 2^-53, the shift in place; both steps are exact
        draws = raw[:steps].reshape(-1)[:size]
        draws >>= np.uint64(11)
        np.multiply(draws, 2.0**-53, out=out[first : first + size])
    return out


@dataclass
class EncoderModel:
    """Feature-hash table plus linear projection to the full nested dimension.

    A created model holds both in float64. A loaded model holds the feature
    table as a read-only float32 map of its file, since a text reads only its
    own rows and `_pool` widens those exactly, and the projection widened to
    float64; `train` works on a float64 copy of a float32 table and leaves the
    loaded model as it was.

    Construction checks the shapes and that the projection is finite, but
    never reads the table: its rows are checked when a text gathers them
    (see `non_finite_embedding`). `path` names the file a loaded model's
    table is mapped from, and is None for any other model, copies of a
    loaded one included.
    """

    bucket_count: int
    feature_dim: int
    dims: DimSet
    seed: int
    feature_table: np.ndarray  # (B, H) float64, or mapped float32 when loaded
    projection: np.ndarray  # (H, D) float64
    path: str | None = field(default=None, init=False, repr=False, compare=False)

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
        if not np.all(np.isfinite(self.projection)):
            raise ValueError("projection must be finite")

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


def pool(model: EncoderModel, bag: FeatureBag) -> np.ndarray:
    """A bag's pooled (H,) row: the count-weighted mean of its feature-table
    rows, or zeros for an empty bag. Finiteness is left to the caller."""
    if len(bag) == 0:
        return np.zeros(model.feature_dim)
    return _pool(model, bag)


def embed_bag(model: EncoderModel, bag: FeatureBag) -> np.ndarray:
    """A bag's raw (D,) embedding, its pooled row times the projection; an
    empty bag gives zeros. The one place a non-finite embedding is refused:
    it raises `non_finite_embedding`'s error. Overflow and inf - inf in the
    product warn first unless the caller silences them."""
    if len(bag) == 0:
        return np.zeros(model.full_dim)
    values = _pool(model, bag) @ model.projection
    if not np.isfinite(values).all():
        raise non_finite_embedding(model, bag)
    return values


def non_finite_embedding(model: EncoderModel, bag: FeatureBag) -> Exception:
    """The error for a bag whose embedding is not finite.

    ValueError, or, from a loaded model, `FormatError` naming the file and a
    non-finite table row the bag gathered. Only such a row can cause it
    there: finite float32 entries give sums of at most H * (3.4e38)^2 in
    magnitude, far inside float64.
    """
    if model.path is None:
        return ValueError("embedding values must be finite")
    row = bag.ids[~np.isfinite(model.feature_table[bag.ids]).all(axis=1)][0]
    return FormatError(f"model file {model.path} has non-finite feature table row {row}")


def encode_bag(model: EncoderModel, bag: FeatureBag) -> NestedEmbedding:
    """`encode` of the text whose bag `bag` is, for texts tokenized together.

    An empty bag yields a degenerate zero embedding. A non-finite embedding
    raises as `embed_bag` refuses it, with no warning first (inf - inf in
    the product warns, as an overflow does).
    """
    with np.errstate(over="ignore", invalid="ignore"):
        values = embed_bag(model, bag)
    return NestedEmbedding(values, dims=model.dims, degenerate=len(bag) == 0)


def encode(model: EncoderModel, text: str) -> NestedEmbedding:
    """Embed one text; an empty feature bag yields a degenerate zero embedding.

    A non-finite embedding raises as `encode_bag` does.
    """
    return encode_bag(model, tokenize(text, model.bucket_count))


def backward(
    model: EncoderModel,
    bags: list[FeatureBag],
    grad_pooled: np.ndarray,
    grad_slab: np.ndarray,
    slots: list[np.ndarray],
) -> np.ndarray:
    """The feature-table gradient of a loss whose gradient with respect to
    `pool(model, bags[t])` is `grad_pooled[t]`, one row per bag, accumulated
    into the rows of a slab of the table.

    Exact chain rule: a pooled row is the count-weighted mean of its bag's
    table rows, so each bag adds its count-weighted share of its gradient row
    to its own table rows. Table row bags[t].ids[i] is row slots[t][i] of
    `grad_slab`, an (n, H) array; a table-shaped slab with slots[t] =
    bags[t].ids is the whole-table gradient. Slab rows no bag reaches keep
    their values; empty bags contribute nothing.

    A training run keeps one all-zero slab of the rows its texts reach,
    accumulates each step into it and re-zeroes it after the update, and
    `grad_slab` is returned.
    """
    grad_pooled = np.asarray(grad_pooled, dtype=np.float64)
    if grad_pooled.shape != (len(bags), model.feature_dim):
        raise ValueError(f"pooled-row gradient must have shape ({len(bags)}, {model.feature_dim})")
    if grad_slab.ndim != 2 or grad_slab.shape[1] != model.feature_dim:
        raise ValueError(f"grad_slab must have shape (n, {model.feature_dim})")
    if len(slots) != len(bags):
        raise ValueError(f"need one slot array per bag, got {len(slots)} for {len(bags)} bags")
    # one buffer for every bag's share, instead of a fresh array per bag
    share = np.empty((max(map(len, bags), default=0), model.feature_dim))
    for bag, slot, row in zip(bags, slots, grad_pooled):
        if len(bag):
            grad_slab[slot] += np.multiply(bag.weights[:, None], row, out=share[: len(bag)])
    return grad_slab


# --- persistence ----------------------------------------------------------------
#
# Binary layout (little-endian): magic "NEAR2MDL", version u32, B u32, H u32,
# D u32, dims_count u16, dims u32 each (descending), seed u64, then parameters
# as float32: feature_table row-major, projection row-major.


_SAVE_ROWS = 4096  # feature-table rows `save_model` converts per write


def save_model(model: EncoderModel, path) -> None:
    """Write the model beside `path`, then rename it over `path`."""
    header_fields = (model.bucket_count, model.feature_dim, model.full_dim)

    def write(fh):
        fh.write(pack_header(MODEL_MAGIC, MODEL_VERSION, "III", header_fields, model.dims))
        fh.write(struct.pack("<Q", model.seed & _U64))
        # the table in blocks of rows: a whole float32 copy of it would be
        # as large as a loaded model's mapped table
        table = model.feature_table
        for first in range(0, table.shape[0], _SAVE_ROWS):
            fh.write(table[first : first + _SAVE_ROWS].astype("<f4", order="C"))
        fh.write(model.projection.astype("<f4", order="C"))

    write_atomically(path, write)


def load_model(path) -> EncoderModel:
    """Read a model back without reading its feature table.

    The file is mapped and parsed in one pass: the header, the dims and the
    seed are read and checked, the table and the projection are taken as
    views of the map, and the file must end there. The projection is widened
    to float64 (and checked finite by `EncoderModel`), so a model costs its
    projection's bytes to load. The table stays a read-only float32 view of
    the map, and each of its rows is read, and checked, only when a text
    gathers it (see `non_finite_embedding`). The map keeps the loaded file's
    bytes: `save_model` over the same path renames a new file into place and
    leaves the mapped one as it was.
    """
    reader = Reader(map_file(path), "model")
    buckets, feature_dim, full_dim = reader.header(MODEL_MAGIC, MODEL_VERSION, "III", path)
    dims = reader.dims(full_dim)
    (seed,) = reader.unpack("Q", "seed")
    table = reader.array("<f4", (buckets, feature_dim), "feature table")
    proj = reader.array("<f4", (feature_dim, full_dim), "projection").astype(np.float64)
    reader.end("model parameters")
    try:
        model = EncoderModel(
            bucket_count=buckets,
            feature_dim=feature_dim,
            dims=dims,
            seed=seed,
            feature_table=table,
            projection=proj,
        )
    except ValueError as e:  # out-of-range sizes or a non-finite projection
        raise FormatError(f"bad model parameters: {e}") from None
    model.path = str(path)
    return model

