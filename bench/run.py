#!/usr/bin/env python3
"""near2 benchmark: the train, eval and search workloads, end to end and per layer.

    python3 bench/run.py --workload {train,eval,search} --seed N --seconds S --trace {0,1}

Run from the repository root. The benchmark drives `near2` from outside only:
through `near2.cli.main` in-process, as a CLI user would, and through the
public API, as a server would. Every workload is a closed loop with a single
client in one process and one thread; BLAS is pinned to one thread.

Workloads (inputs come from `--seed`; the program sees only those inputs):

- train: set-up writes a synthetic set and the timed part is `near2 train`
  (CLI defaults, 1 epoch) on 240 of its queries. Afterwards, untimed, the
  model file is reloaded and `sequential_evaluate` scores the 200 held-out
  queries. Nearly all work is in encoder, losses and trainer.
- eval: set-up saves a seeded model and a judged set of 240 queries over
  about 2.4k titles; the timed part is `near2 eval` at all five dims and
  ks 3,5,10: an index rebuild plus about 1,200 tiny in-cache scans.
- search: set-up builds and saves an index of about 25k titles (75 MB at
  m=768, 6.3 MB at m=64, both beyond the 2 MiB per-core L2); the timed part
  is a seeded stream of held-out queries through `encode` + `search_exact`
  at m=64 and m=768 and `search_funnel` 64->768 (shortlist 40, k=10), then
  `near2 search` CLI calls (`--dim 64` and `--funnel 64:768`) that re-read
  the saved files.

Every workload reports every end-to-end metric, measured on its own inputs:
`work_per_s` is optimizer steps/s of `near2 train` (train), (usable queries x
dims)/s of `near2 eval` (eval) or API queries/s of the stream (search). The
`search_*`, `funnel_*` and `cli_*` metrics come from the same kind of
held-out query stream and CLI calls, run against the workload's own corpus
and model: the 25k-title index (search), or, for train and eval, the
held-out corpus of about 2k titles (train) or the judged 2.4k titles
(eval), served in untimed slices after each `near2` call (API queries for a
fifth of the call's time, then CLI calls for a twelfth), so that their
samples span the whole run. `ndcg10_m*` is held-out nDCG@10 of the trained
model (train), of the eval report (eval) or of the stream's exact hits
(search).

Time metrics (units s, ms and 1/s) are wall times scaled by the run's
machine-speed factor (see SpeedProbe): a shared VM drifts by 20-40% over
minutes, which would otherwise swamp the differences the benchmark is for.
The raw wall times and the factor are kept in the detail file. Each
percentile comes from at least 150 samples per mode; sample counts go to the
detail file. Every output is checked: API hits against a float64
reference, a whole-corpus funnel against exact search, CLI exit codes and
rows, finite training losses and per-seed determinism digests. Failed checks
count in `failed`. `--trace 1` runs the timed work once untraced and once
traced and reports per-layer metrics (see tracing.py) and the tracing
overhead instead.

The last stdout line is the result JSON; details, spans and determinism
digests go to `.bench_work/` under the current directory.
"""

from __future__ import annotations

import os

# Pinned before numpy loads: one client thread, one BLAS thread (nproc is 2).
# Only when run as a program, so importing this module changes no environment.
BLAS_THREADS = 1
if __name__ == "__main__":
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = str(BLAS_THREADS)

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import math
import platform
import random
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH_DIR))

from tracing import LAYER_METRICS, Tracer, layer_metrics  # noqa: E402

WORKLOADS = ("train", "eval", "search")
MODES = ("m64", "m768", "funnel")
M_LOW, M_HIGH, K, SHORTLIST = 64, 768, 10, 40
TOL = 1e-12

SCALES = {
    # Set-ups are repeated and their median reported; cheap ones more often.
    # The search stream serves `search_queries` distinct held-out queries at
    # least once each, more while `--seconds` lasts, then `search_cli` CLI
    # calls per mode.
    "full": {
        "train_gen": 1000, "train_queries": 240, "eval_gen": 2400, "search_gen": 2500,
        "setups": {"train": 7, "eval": 5, "search": 2}, "search_queries": 150,
        "search_cli": 8, "full_funnel_checks": 3,
        "trace_evals": 2, "trace_per_mode": 40, "trace_cli": 2,
    },
    "smoke": {
        "train_gen": 60, "train_queries": 24, "eval_gen": 60, "search_gen": 60,
        "setups": {"train": 2, "eval": 2, "search": 2}, "search_queries": 4,
        "search_cli": 2, "full_funnel_checks": 1,
        "trace_evals": 1, "trace_per_mode": 2, "trace_cli": 1,
    },
}

E2E_UNITS = {
    "setup_s": "s", "peak_rss_mb": "MiB", "work_per_s": "1/s",
    "ndcg10_m64": "ndcg", "ndcg10_m768": "ndcg",
    "search_m64_p50_ms": "ms", "search_m64_p90_ms": "ms",
    "search_m768_p50_ms": "ms", "search_m768_p90_ms": "ms",
    "funnel_p50_ms": "ms", "funnel_p90_ms": "ms", "funnel_recall10": "ratio",
    "cli_search_m64_p50_ms": "ms", "cli_funnel_p50_ms": "ms",
}


def _import_near2():
    if not (SRC / "near2" / "__init__.py").is_file():
        raise SystemExit(f"bench: no near2 sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    for name in ("cli", "data", "encoder", "index", "metrics", "nested", "trainer", "_kernels"):
        importlib.import_module(f"near2.{name}")
    return sys.modules["near2"]


class Tally:
    """Counts attempted and failed operations; keeps the first failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 50:
                self.messages.append(what)
        return ok


class SpeedProbe:
    """Tracks how fast the machine runs right now, with a fixed calibration task.

    The task is half interpreter work (an FNV-1a loop over 28 KB) and half
    numpy work (a 128 x 768 float32 block widened to float64 and multiplied
    by a vector, 64 times), the two kinds of work near2 does. Its data stay in
    the L2 cache, and it uses no near2 code, so a change to the program moves
    neither its code nor its memory traffic. On a shared VM the speed of
    everything drifts together by 20-40% over minutes; time metrics are
    divided by `factor()`, the run's median calibration time over
    REFERENCE_S, which cancels most of that drift. Raw values go to the
    detail file.
    """

    REFERENCE_S = 0.008  # typical calibration time on the 2-core Xeon VM of the baseline

    def __init__(self):
        rng = np.random.default_rng(0)
        self.block = rng.standard_normal((128, 768)).astype(np.float32)
        self.wide = np.empty(self.block.shape)
        self.vector = rng.standard_normal(768)
        self.text = bytes(range(256)) * 110
        self.samples: list[float] = []

    def _scan(self) -> None:
        np.copyto(self.wide, self.block)
        self.wide @ self.vector

    def sample(self) -> None:
        self._scan()  # bring the block back into cache, untimed
        t0 = time.perf_counter()
        h = 0xCBF29CE484222325
        for byte in self.text:
            h = ((h ^ byte) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
        for _ in range(64):
            self._scan()
        self.samples.append(time.perf_counter() - t0)

    def factor(self) -> float:
        return statistics.median(self.samples) / self.REFERENCE_S


def pct(samples, q: int) -> float:
    """q-th percentile (inclusive method) of a sample list."""
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def source_digest() -> str:
    """Digest of the program's and the benchmark's sources: a change to either
    may change outputs, so determinism digests are compared per source digest."""
    h = hashlib.sha256()
    for path in sorted((SRC / "near2").rglob("*.py")) + sorted(BENCH_DIR.glob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def binary_ndcg10(ranked_ids, relevant) -> float:
    """Independent binary-gain nDCG@10, used to cross-check the program's reports."""
    dcg = sum(1.0 / math.log2(i + 2) for i, d in enumerate(ranked_ids[:K]) if d in relevant)
    idcg = sum(1.0 / math.log2(i + 2) for i in range(min(K, len(relevant))))
    return dcg / idcg


# --- environment ---------------------------------------------------------------


def environment(n2) -> dict:
    env = {"nproc": os.cpu_count(), "python": platform.python_version(),
           "numpy": np.__version__, "blas_threads_setting": BLAS_THREADS}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            env["cpu_model"] = next((line.split(":", 1)[1].strip() for line in fh
                                     if line.startswith("model name")), "unknown")
    except OSError:
        env["cpu_model"] = "unknown"
    for level, idx in (("l2", 2), ("l3", 3)):
        try:
            env[f"{level}_size"] = Path(
                f"/sys/devices/system/cpu/cpu0/cache/index{idx}/size").read_text().strip()
        except OSError:
            env[f"{level}_size"] = "unknown"
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        env["blas"] = "unknown"
    env["blas_threads"] = _blas_thread_count()
    kernels = sys.modules.get("near2._kernels")
    backend = getattr(kernels, "backend_name", None)
    env["kernel_backend"] = backend() if callable(backend) else "n/a"
    env["near2_version"] = getattr(n2, "__version__", "unknown")
    env["git_commit"] = _git_commit()
    env["source_digest"] = source_digest()
    return env


def _blas_thread_count():
    import ctypes
    import glob

    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib_path in glob.glob(str(libdir / "*openblas*")):
        try:
            lib = ctypes.CDLL(lib_path)
        except OSError:
            continue
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return "unknown"


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


# --- in-process CLI --------------------------------------------------------------


def run_cli(n2, argv: list[str]) -> tuple[int, str, str]:
    """near2.cli.main with captured stdout/stderr; an escaping exception is rc -1."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = n2.cli.main(argv)
        except Exception:  # a crash is a failed operation, not a benchmark crash
            traceback.print_exc(file=err)
            rc = -1
    return rc, out.getvalue(), err.getvalue()


# --- float64 reference ------------------------------------------------------------


class Reference:
    """Cosine scores of every row for a batch of queries, computed in float64.

    One batched pass per m over row blocks, outside any timed region. Rows
    that are degenerate or have a zero m-prefix score -inf (never returned).
    """

    def __init__(self, n2, idx, query_values: np.ndarray, m: int):
        matrix = idx.matrix
        q = query_values[:, :m].astype(np.float64)
        q = q / np.linalg.norm(q, axis=1, keepdims=True)
        count = matrix.shape[0]
        self.scores = np.empty((q.shape[0], count))
        norms = np.empty(count)
        for start in range(0, count, 4096):
            block = np.asarray(matrix[start : start + 4096, :m], dtype=np.float64)
            norms[start : start + block.shape[0]] = np.sqrt(np.einsum("ij,ij->i", block, block))
            self.scores[:, start : start + block.shape[0]] = q @ block.T
        usable = ~np.asarray(idx.degenerate) & (norms > n2.nested.EPS_ZERO)
        with np.errstate(divide="ignore", invalid="ignore"):
            self.scores = np.clip(self.scores / norms, -1.0, 1.0)
        self.scores[:, ~usable] = -np.inf

    def top(self, qi: int, k: int, rows: np.ndarray | None = None) -> np.ndarray:
        scores = self.scores[qi]
        if rows is None:
            rows = np.flatnonzero(np.isfinite(scores))
        order = np.lexsort((rows, -scores[rows]))[:k]
        return rows[order]


def hits_match(hits, ids, ref_scores: np.ndarray, expected_rows: np.ndarray,
               allowed: set | None = None) -> bool:
    """Program hits equal the reference: same rows in order, scores within TOL.

    Rows may differ from the reference only where the two rows' reference
    scores tie within TOL; exactly equal program scores must list the lower
    row first.
    """
    if len(hits) != len(expected_rows):
        return False
    rows = [h.row for h in hits]
    if len(set(rows)) != len(rows):
        return False
    for pos, (hit, want) in enumerate(zip(hits, expected_rows)):
        if hit.doc_id != ids[hit.row] or hit.rank != pos + 1:
            return False
        if allowed is not None and hit.row not in allowed:
            return False
        if hit.row != want and abs(ref_scores[hit.row] - ref_scores[want]) > TOL:
            return False
        if not abs(hit.score - ref_scores[hit.row]) <= TOL:
            return False
    for a, b in zip(hits, hits[1:]):
        if a.score < b.score or (a.score == b.score and a.row > b.row):
            return False
    return True


# --- the query stream and CLI calls shared by every workload -----------------------


class Retrieval:
    """Held-out queries served through the API and the CLI against one corpus."""

    def __init__(self, n2, tally: Tally, model, idx, model_path, index_path, judged, seed,
                 distinct: int | None = None, speed: SpeedProbe | None = None):
        self.n2, self.tally, self.speed = n2, tally, speed
        self.model, self.idx = model, idx
        self.model_path, self.index_path = str(model_path), str(index_path)
        queries = sorted({j.query for j in judged})
        random.Random(seed).shuffle(queries)
        # a fixed query set per seed, so quality figures do not depend on speed
        self.queries = queries[:distinct]
        chosen = set(self.queries)
        self.judged = [j for j in judged if j.query in chosen]
        self.samples = {mode: [] for mode in MODES}
        self.first_hits: dict[tuple[str, str], list] = {}
        self.cli_samples = {"m64": [], "funnel": []}
        self.next_query = self.next_cli = 0
        self.stream_queries = 0
        self.stream_s = 0.0

    def _search(self, mode: str, emb):
        index = self.n2.index
        if mode == "m64":
            return index.search_exact(self.idx, emb, M_LOW, K)
        if mode == "m768":
            return index.search_exact(self.idx, emb, M_HIGH, K)
        return index.search_funnel(self.idx, emb, M_LOW, M_HIGH, SHORTLIST, K)

    def warm(self) -> None:
        """Fill lazy per-m caches before timing, as a long-lived server would."""
        emb = self.n2.encoder.encode(self.model, self.queries[0])
        for mode in MODES:
            self._search(mode, emb)

    def stream(self, min_count: int, budget_s: float, tracer: Tracer | None = None) -> None:
        """Closed loop over the query list, continuing where the last call stopped.

        Runs at least `min_count` queries and at least `budget_s` seconds; each
        query runs encode + search once per mode, each timed on its own.
        """
        encode = self.n2.encoder.encode
        start = time.perf_counter()
        done = 0
        while done < min_count or time.perf_counter() - start < budget_s:
            query = self.queries[self.next_query % len(self.queries)]
            for mode in MODES:
                ctx = tracer.span("api.search", mode=mode) if tracer else contextlib.nullcontext()
                t0 = time.perf_counter()
                try:
                    with ctx:
                        hits = self._search(mode, encode(self.model, query))
                except Exception as e:  # counted, then the stream goes on
                    self.tally.check(False, f"api {mode} {query!r}: {e!r}")
                    continue
                self.samples[mode].append(time.perf_counter() - t0)
                self.stream_s += self.samples[mode][-1]
                key = (mode, query)
                first = self.first_hits.setdefault(key, hits)
                self.tally.check(first is hits or _hit_key(first) == _hit_key(hits),
                                 f"api {mode} {query!r}: repeated query gave different hits")
            self.next_query += 1
            done += 1
            if self.speed is not None and done % 8 == 0:
                self.speed.sample()
        self.stream_queries += done * len(MODES)

    def cover(self, tracer: Tracer | None = None) -> None:
        """Serve every query of the list at least once."""
        self.stream(max(0, len(self.queries) - self.next_query), 0.0, tracer)

    def cli(self, min_pairs: int, budget_s: float = 0.0, tracer: Tracer | None = None) -> None:
        """`near2 search` once with `--dim 64` and once with `--funnel` per query."""
        base = ["search", "--index", self.index_path, "--model", self.model_path, "--k", str(K)]
        start = time.perf_counter()
        pairs = 0
        while pairs < min_pairs or time.perf_counter() - start < budget_s:
            query = self.queries[self.next_cli % len(self.queries)]
            self.next_cli += 1
            pairs += 1
            for mode, extra in (("m64", ["--dim", str(M_LOW)]),
                                ("funnel", ["--funnel", f"{M_LOW}:{M_HIGH}",
                                            "--shortlist", str(SHORTLIST)])):
                attrs = {"funnel": mode == "funnel", "m_high": M_HIGH, "shortlist": SHORTLIST}
                ctx = tracer.span("cli.search", **attrs) if tracer else contextlib.nullcontext()
                t0 = time.perf_counter()
                with ctx:
                    rc, out, err = run_cli(self.n2, base + ["--query", query] + extra)
                self.cli_samples[mode].append(time.perf_counter() - t0)
                lines = out.splitlines()
                ok = rc == 0 and "Traceback" not in err and len(lines) == K + 1
                api = self.first_hits.get((mode, query))
                if ok and api is not None:
                    ok = [line.split("\t")[1] for line in lines[1:]] == [h.doc_id for h in api]
                self.tally.check(ok, f"cli {mode} {query!r}: rc={rc} rows={len(lines) - 1} "
                                     f"stderr={err[-300:]!r}")
            if self.speed is not None:
                self.speed.sample()

    def verify(self, full_funnel_checks: int) -> dict:
        """Reference checks on every distinct (mode, query) result; quality figures."""
        n2, idx = self.n2, self.idx
        served = [q for q in self.queries if ("m64", q) in self.first_hits]
        embs = {q: n2.encoder.encode(self.model, q) for q in served}
        values = np.array([embs[q].values for q in served]) if served else np.zeros((0, 1))
        refs = {m: Reference(n2, idx, values, m) for m in (M_LOW, M_HIGH)} if served else {}
        exact_ids: dict[tuple[int, str], list[str]] = {}
        recalls = []
        for qi, q in enumerate(served):
            for mode, m in (("m64", M_LOW), ("m768", M_HIGH)):
                hits = self.first_hits.get((mode, q))
                if hits is None:
                    continue
                ref = refs[m]
                self.tally.check(hits_match(hits, idx.ids, ref.scores[qi], ref.top(qi, K)),
                                 f"api {mode} {q!r}: hits differ from the float64 reference")
                exact_ids[(m, q)] = [h.doc_id for h in hits]
            funnel = self.first_hits.get(("funnel", q))
            if funnel is not None:
                low = refs[M_LOW]
                shortlist = low.top(qi, SHORTLIST)
                floor = low.scores[qi][shortlist[-1]] - TOL
                allowed = np.flatnonzero(low.scores[qi] >= floor)
                expected = refs[M_HIGH].top(qi, K, np.sort(shortlist))
                self.tally.check(
                    hits_match(funnel, idx.ids, refs[M_HIGH].scores[qi], expected, set(allowed)),
                    f"api funnel {q!r}: hits differ from the float64 reference")
                exact = set(exact_ids.get((M_HIGH, q), ()))
                recalls.append(len(exact & {h.doc_id for h in funnel}) / K)

        for q in served[:full_funnel_checks]:
            whole = n2.index.search_funnel(idx, embs[q], M_LOW, M_HIGH, idx.count, K)
            exact = n2.index.search_exact(idx, embs[q], M_HIGH, K)
            self.tally.check(_hit_key(whole) == _hit_key(exact),
                             f"funnel over the whole corpus differs from exact search for {q!r}")

        ndcg = {}
        for m in (M_LOW, M_HIGH):
            per_query = [binary_ndcg10(exact_ids.get((m, j.query), []), j.relevant)
                         for j in self.judged if (m, j.query) in exact_ids]
            ndcg[m] = sum(per_query) / len(per_query) if per_query else float("nan")
        return {"ndcg": ndcg, "recall10": statistics.fmean(recalls) if recalls else float("nan")}

    def digest(self) -> str:
        h = hashlib.sha256()
        for (mode, q), hits in sorted(self.first_hits.items()):
            h.update(repr((mode, q, _hit_key(hits))).encode())
        return h.hexdigest()

    def metrics(self) -> dict:
        out = {}
        for mode, prefix in (("m64", "search_m64"), ("m768", "search_m768"), ("funnel", "funnel")):
            s = self.samples[mode]
            out[f"{prefix}_p50_ms"] = statistics.median(s) * 1e3
            out[f"{prefix}_p90_ms"] = pct(s, 90) * 1e3
        out["cli_search_m64_p50_ms"] = statistics.median(self.cli_samples["m64"]) * 1e3
        out["cli_funnel_p50_ms"] = statistics.median(self.cli_samples["funnel"]) * 1e3
        return out

    def sample_counts(self) -> dict:
        counts = {mode: len(s) for mode, s in self.samples.items()}
        counts.update({f"cli_{mode}": len(s) for mode, s in self.cli_samples.items()})
        return counts


def _hit_key(hits):
    return [(h.row, h.doc_id, h.score, h.rank) for h in hits]


# --- workloads -----------------------------------------------------------------------


class Bench:
    def __init__(self, n2, workload: str, seed: int, seconds: float, trace: bool,
                 scale: str, work: Path):
        self.n2, self.workload, self.seed = n2, workload, seed
        self.seconds, self.trace = seconds, trace
        self.size = SCALES[scale]
        self.work = work
        self.work.mkdir(parents=True, exist_ok=True)
        self.tally = Tally()
        self.speed = SpeedProbe()
        self.details: dict = {}
        self.tracer: Tracer | None = None

    def path(self, name: str) -> Path:
        return self.work / name

    # set-up --------------------------------------------------------------

    def setup(self) -> dict:
        """Run set-up `setups` times (once when tracing); keep the last state.

        The previous state is dropped before each repeat, so that two indexes
        never sit in memory together and inflate `peak_rss_mb`.
        """
        times, state = [], None
        for _ in range(1 if self.trace else self.size["setups"][self.workload]):
            state = None
            gc.collect()
            t0 = time.perf_counter()
            state = getattr(self, f"_setup_{self.workload}")()
            times.append(time.perf_counter() - t0)
            self.speed.sample()
        self.details["setup_s_samples"] = times
        state["setup_s"] = statistics.median(times)
        return state

    def _synth(self, queries: int, categories: int = 10):
        data = self.n2.data
        return data.gen_synthetic(data.SynthSpec(seed=self.seed, query_count=queries,
                                                 category_count=categories))

    def _setup_train(self) -> dict:
        data = self.n2.data
        train, valid, test = self._synth(self.size["train_gen"])
        keep = list(dict.fromkeys(r.qid for r in train))[: self.size["train_queries"]]
        keep = set(keep)
        data.write_records([r for r in train if r.qid in keep], self.path("train.jsonl"))
        return {"heldout": valid + test}

    def _setup_eval(self) -> dict:
        _, _, test = self._synth(self.size["eval_gen"])
        self.n2.data.write_records(test, self.path("test.jsonl"))
        model = self.n2.encoder.EncoderModel.create(seed=self.seed)
        self.n2.encoder.save_model(model, self.path("model.bin"))
        return {"heldout": test}

    def _setup_search(self) -> dict:
        n2 = self.n2
        # 100 categories (25 queries each) rather than the generator's default 10:
        # with 10, held-out nDCG@10 over 25k titles swings by about 20% between
        # seeds, with 100 by about 5%.
        train, valid, test = self._synth(self.size["search_gen"], categories=100)
        corpus = n2.data.split_judgments(train + valid + test).corpus
        model = n2.encoder.EncoderModel.create(seed=self.seed)
        idx = n2.index.build_index(model, corpus)
        n2.index.save_index(idx, self.path("index.bin"))
        n2.encoder.save_model(model, self.path("model.bin"))
        return {"heldout": test, "model": model, "index": idx}

    # held-out retrieval against the train and eval workloads' own corpus ---

    def heldout_retrieval(self, heldout) -> Retrieval:
        """Index the held-out corpus with the workload's model file, untimed."""
        n2 = self.n2
        model = n2.encoder.load_model(self.path("model.bin"))
        split = n2.data.split_judgments(heldout)
        idx = n2.index.build_index(model, split.corpus)
        n2.index.save_index(idx, self.path("heldout-index.bin"))
        r = Retrieval(n2, self.tally, model, idx, self.path("model.bin"),
                      self.path("heldout-index.bin"), split.judged, self.seed, speed=self.speed)
        r.warm()
        return r

    def _heldout_slice(self, state, op_s: float) -> None:
        """After each timed op: held-out API queries for a fifth of the op's
        time, then CLI calls for a twelfth, so samples span the whole run."""
        if "retrieval" not in state:
            state["retrieval"] = self.heldout_retrieval(state["heldout"])
        r = state["retrieval"]
        r.warm()
        r.stream(0, op_s / 5, self.tracer)
        r.cli(1, op_s / 12, self.tracer)

    # timed parts -----------------------------------------------------------

    def _op_loop(self, op, fixed_ops: int | None, after=None):
        """Run whole ops for about `seconds`, or a fixed count.

        The count is `seconds` over the first op's time, rounded, so that a
        run's amount of work does not flip with small speed changes. Between
        ops, untimed, garbage is collected (each CLI call of a user runs in a
        fresh process) and `after(op_s)` runs.
        """
        walls = []
        while True:
            t0 = time.perf_counter()
            op()
            walls.append(time.perf_counter() - t0)
            gc.collect()
            self.speed.sample()
            if after is not None:
                after(walls[-1])
            if fixed_ops is None:
                fixed_ops = max(1, round(self.seconds / walls[0]))
            if len(walls) >= fixed_ops:
                break
        return walls

    def _train_op(self) -> None:
        n2 = self.n2
        argv = ["train", "--data", str(self.path("train.jsonl")), "--out",
                str(self.path("model.bin")), "--epochs", "1",
                "--history", str(self.path("history.jsonl"))]
        ctx = self.tracer.span("cli.train") if self.tracer else contextlib.nullcontext()
        with ctx:
            rc, _, err = run_cli(n2, argv)
        ok = self.tally.check(rc == 0 and "Traceback" not in err,
                              f"near2 train: rc={rc} stderr={err[-500:]!r}")
        steps = []
        if ok:
            with open(self.path("history.jsonl"), encoding="utf-8") as fh:
                steps = [row for row in map(json.loads, fh) if row.get("kind") == "step"]
        self.tally.check(bool(steps) and all(math.isfinite(s["loss"]) for s in steps),
                         "near2 train: missing or non-finite step losses")
        self.train_steps.append(len(steps))
        try:
            n2.encoder.load_model(self.path("model.bin"))
            reload_error = None
        except Exception as e:  # reported as a failed check
            reload_error = repr(e)
        self.tally.check(reload_error is None, f"trained model does not reload: {reload_error}")
        self.model_digests.append(hashlib.sha256(self.path("model.bin").read_bytes()).hexdigest())

    def _eval_op(self) -> None:
        argv = ["eval", "--model", str(self.path("model.bin")), "--test",
                str(self.path("test.jsonl")), "--report", str(self.path("report.json"))]
        ctx = self.tracer.span("cli.eval") if self.tracer else contextlib.nullcontext()
        with ctx:
            rc, _, err = run_cli(self.n2, argv)
        report = None
        if self.tally.check(rc == 0 and "Traceback" not in err,
                            f"near2 eval: rc={rc} stderr={err[-500:]!r}"):
            with open(self.path("report.json"), encoding="utf-8") as fh:
                report = json.load(fh)["report"]
        cells_ok = report is not None and report["query_count"] > 0 and all(
            0.0 <= v <= 1.0 for m in report["metrics"].values()
            for cell in m.values() for v in cell.values())
        self.tally.check(cells_ok, "near2 eval: report missing or metrics outside [0, 1]")
        if report is not None:
            self.eval_searches.append(report["query_count"] * len(report["dims"]))
            self.reports.append(report)

    def timed_train(self, state, fixed_ops=None) -> dict:
        self.train_steps, self.model_digests = [], []
        after = None if fixed_ops else lambda op_s: self._heldout_slice(state, op_s)
        walls = self._op_loop(self._train_op, fixed_ops, after)
        self.details["train_calls"] = len(walls)
        return {"wall_s": sum(walls), "work_per_s": sum(self.train_steps) / sum(walls)}

    def timed_eval(self, state, fixed_ops=None) -> dict:
        self.eval_searches, self.reports = [], []
        after = None if fixed_ops else lambda op_s: self._heldout_slice(state, op_s)
        walls = self._op_loop(self._eval_op, fixed_ops, after)
        self.details["eval_calls"] = len(walls)
        return {"wall_s": sum(walls), "work_per_s": sum(self.eval_searches) / sum(walls)}

    def timed_search(self, state, per_mode=None, cli_calls=None) -> dict:
        r = Retrieval(self.n2, self.tally, state["model"], state["index"],
                      self.path("model.bin"), self.path("index.bin"),
                      self.n2.data.split_judgments(state["heldout"]).judged, self.seed,
                      distinct=self.size["search_queries"], speed=self.speed)
        r.warm()
        t0 = time.perf_counter()
        if per_mode is None:
            r.stream(self.size["search_queries"], self.seconds, self.tracer)
            r.cli(self.size["search_cli"], 0.0, self.tracer)
        else:
            r.stream(per_mode, 0.0, self.tracer)
            r.cli(cli_calls, 0.0, self.tracer)
        wall = time.perf_counter() - t0
        state["retrieval"] = r
        return {"wall_s": wall, "work_per_s": r.stream_queries / r.stream_s}

    # workload bodies ------------------------------------------------------------

    def run(self) -> dict:
        self.speed.sample()
        if self.trace:
            return self._run_traced()
        state = self.setup()
        return self._finish(state, self._timed(state))

    def _timed(self, state, fixed=False) -> dict:
        """The timed part; `peak_rss_mb` is read at its end, before the
        untimed checks allocate the float64 reference."""
        s = self.size
        if self.workload == "train":
            timed = self.timed_train(state, 1 if fixed else None)
        elif self.workload == "eval":
            timed = self.timed_eval(state, s["trace_evals"] if fixed else None)
        elif fixed:
            timed = self.timed_search(state, s["trace_per_mode"], s["trace_cli"])
        else:
            timed = self.timed_search(state)
        timed["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return timed

    def _traced(self, tracer: Tracer, fn):
        """fn() with the tracer installed; `self.tracer` is set only meanwhile."""
        self.tracer = tracer.install()
        try:
            return fn()
        finally:
            tracer.uninstall()
            self.tracer = None

    def _run_traced(self) -> dict:
        """Spans cover set-up and one traced pass of the timed part only. The
        same pass runs untraced first, for the overhead; `_finish`'s checks
        and reference searches are the benchmark's own work and run untraced."""
        tracer = Tracer()
        state = self._traced(tracer, self.setup)
        untraced = self._timed(state, fixed=True)
        traced = self._traced(tracer, lambda: self._timed(state, fixed=True))
        result = self._finish(state, traced)
        metrics, not_observed = layer_metrics(tracer.spans, untraced["wall_s"], traced["wall_s"])
        if self.workload == "search":
            self.details["scan_table"] = self._scan_table(state)
        self.details["not_observed"] = not_observed
        self.details["unpatched"] = tracer.missing
        self.details["layer_moves"] = {n: moves for n, _, _, moves in LAYER_METRICS}
        tracer.write_jsonl(self.path(f"spans-{self.workload}-s{self.seed}.jsonl"))
        result["metrics"] = metrics
        return result

    def _scan_table(self, state) -> list[dict]:
        """memory_footprint vector bytes next to a measured full scan, per m."""
        idx, n2 = state["index"], self.n2
        emb = n2.encoder.encode(state["model"], state["heldout"][0].query)
        rows = []
        for m in idx.dims:
            qhat = emb.values[:m] / np.linalg.norm(emb.values[:m])
            times = []
            for _ in range(3):
                t0 = time.perf_counter()
                n2._kernels.prefix_dot_products(idx.matrix, qhat, m)
                times.append(time.perf_counter() - t0)
            rows.append({"m": m, "vector_bytes": n2.index.memory_footprint(idx, m).vector_bytes,
                         "scan_ms": statistics.median(times) * 1e3})
        return rows

    def _finish(self, state, timed) -> dict:
        """Untimed checks and quality figures; assembles the end-to-end metrics."""
        n2 = self.n2
        e2e = {"setup_s": state["setup_s"], "work_per_s": timed["work_per_s"]}
        if self.workload == "search":
            r = state["retrieval"]
            quality = r.verify(self.size["full_funnel_checks"])
            report_ndcg = quality["ndcg"]
            self._record_digest("hits", [r.digest()])
        else:
            if self.workload == "train":
                self._record_digest("model", self.model_digests)
                model = n2.encoder.load_model(self.path("model.bin"))
                report = n2.metrics.sequential_evaluate(model, state["heldout"],
                                                        (M_HIGH, M_LOW), ks=(K,))
                report_ndcg = {m: report.cell(m, K).ndcg for m in (M_LOW, M_HIGH)}
            else:
                self._record_digest("report", [
                    hashlib.sha256(json.dumps(rep, sort_keys=True).encode()).hexdigest()
                    for rep in self.reports])
                report_ndcg = {m: self.reports[-1]["metrics"][str(m)][str(K)]["ndcg"]
                               for m in (M_LOW, M_HIGH)}
            if "retrieval" not in state:  # traced runs time no held-out slices
                state["retrieval"] = self.heldout_retrieval(state["heldout"])
                state["retrieval"].cli(self.size["trace_cli"])
            r = state["retrieval"]
            r.cover()
            quality = r.verify(self.size["full_funnel_checks"])
        for m in (M_LOW, M_HIGH):
            self.tally.check(abs(report_ndcg[m] - quality["ndcg"][m]) <= 1e-9,
                             f"nDCG@10 at m={m}: report {report_ndcg[m]!r} but API hits give "
                             f"{quality['ndcg'][m]!r}")
            e2e[f"ndcg10_m{m}"] = report_ndcg[m]
        e2e["funnel_recall10"] = quality["recall10"]
        e2e.update(r.metrics())
        e2e["peak_rss_mb"] = timed["peak_rss_mb"]
        self.details["samples"] = r.sample_counts()
        self.details["timed_wall_s"] = timed["wall_s"]
        factor = self.speed.factor()
        self.details["speed_factor"] = factor
        self.details["raw_metrics"] = dict(e2e)
        for name, unit in E2E_UNITS.items():
            if unit in ("s", "ms"):
                e2e[name] /= factor
            elif unit == "1/s":
                e2e[name] *= factor
        metrics = {name: {"value": float(e2e[name]), "unit": unit}
                   for name, unit in E2E_UNITS.items()}
        return {"correct": self.tally.failed == 0, "attempted": self.tally.attempted,
                "failed": self.tally.failed, "metrics": metrics}

    def _record_digest(self, kind: str, digests: list[str]) -> None:
        """Same commit and seed must give the same digest, within and across runs."""
        if not self.tally.check(bool(digests), f"no {kind} digest recorded"):
            return
        self.tally.check(len(set(digests)) == 1, f"{kind} digests differ within the run")
        store_path = self.work / "digests.json"
        store = json.loads(store_path.read_text()) if store_path.exists() else {}
        key = "/".join([source_digest(), self.workload, f"t{int(self.trace)}", str(self.seed), kind])
        known = store.setdefault(key, digests[0])
        self.tally.check(known == digests[0], f"{kind} digest differs from an earlier run "
                                              f"with the same code and seed")
        store_path.write_text(json.dumps(store, indent=1, sort_keys=True))
        self.details[f"{kind}_digest"] = digests[0]


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 scale: str = "full", work: Path | None = None) -> tuple[dict, dict]:
    """One benchmark run; returns (result line object, details)."""
    n2 = _import_near2()
    work = Path(work) if work is not None else Path.cwd() / ".bench_work"
    bench = Bench(n2, workload, seed, seconds, trace, scale, work / f"{workload}-{scale}")
    t0 = time.perf_counter()
    result = bench.run()
    details = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
               "scale": scale, "env": environment(n2), "run_wall_s": time.perf_counter() - t0,
               "failures": bench.tally.messages, **bench.details, "result": result}
    return result, details


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    result, details = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    results_dir = Path.cwd() / ".bench_work" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    name = f"{args.workload}-s{args.seed}-t{args.trace}-{stamp}-{os.getpid()}.json"
    (results_dir / name).write_text(json.dumps(details, indent=1, sort_keys=True))
    for message in details["failures"]:
        print(f"bench: FAILED {message}", file=sys.stderr)
    print("# env " + json.dumps(details["env"], sort_keys=True))
    print("# samples " + json.dumps(details.get("samples", {}), sort_keys=True))
    if details.get("scan_table"):
        print("# scan table " + json.dumps(details["scan_table"]))
    if details.get("not_observed"):
        print("# not observed: " + ", ".join(details["not_observed"]))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
