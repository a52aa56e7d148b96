"""Span tracing from outside the program, and the per-layer metrics built on it.

The tracer replaces public functions of `near2` at the module attributes
their callers look them up through (a function imported with `from x import
f` is looked up in the importing module, so it is wrapped there too). Each
call becomes a span: name, start, end, parent and a few attributes taken
from the call's arguments. Spans are kept in memory and written out at the
end. A function that no longer exists is skipped, and every metric built on
it reads 0 and is listed as "not observed"; the run never fails for it.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import time
from collections import defaultdict


def _m(a):
    return {"m": int(a["m"])}


def _scan(a):
    rows = a.get("row_indices")
    count = a["matrix"].shape[0] if rows is None else len(rows)
    return {"m": int(a["m"]), "rows": int(count)}


# (module, attribute, span name, attribute extractor). Where one function is
# reachable through several modules, each call site gets the same span name.
WRAPS = [
    ("near2.data", "gen_synthetic", "data.gen_synthetic", None),
    ("near2.cli", "load_records", "data.load_records", None),
    ("near2.encoder", "tokenize", "encoder.tokenize", lambda a: {"text": a["text"]}),
    ("near2.encoder", "encode", "encoder.encode", None),
    ("near2.index", "encode", "encoder.encode", None),
    ("near2.metrics", "encode", "encoder.encode", None),
    ("near2.trainer", "encode", "encoder.encode", None),
    ("near2.cli", "encode", "encoder.encode", None),
    ("near2.trainer", "backward", "encoder.backward", None),
    ("near2.encoder", "save_model", "encoder.save_model", None),
    ("near2.cli", "save_model", "encoder.save_model", None),
    ("near2.encoder", "load_model", "encoder.load_model", None),
    ("near2.cli", "load_model", "encoder.load_model", None),
    ("near2.trainer", "multitask_step_loss", "losses.multitask_step_loss", None),
    ("near2.losses", "mrl_compose", "losses.mrl_compose", None),
    ("near2.trainer", "mrl_compose", "losses.mrl_compose", None),
    ("near2.trainer", "adamw_step", "trainer.adamw_step", None),
    ("near2.trainer", "build_batches", "trainer.build_batches", None),
    ("near2.cli", "train", "trainer.train", None),
    ("near2.index", "build_index", "index.build_index", lambda a: {"titles": len(a["titles"])}),
    ("near2.metrics", "build_index", "index.build_index", lambda a: {"titles": len(a["titles"])}),
    ("near2.cli", "build_index", "index.build_index", lambda a: {"titles": len(a["titles"])}),
    ("near2.index", "save_index", "index.save_index", None),
    ("near2.cli", "save_index", "index.save_index", None),
    ("near2.index", "load_index", "index.load_index", None),
    ("near2.cli", "load_index", "index.load_index", None),
    ("near2.index", "PrefixIndex.prefix_norms", "index.prefix_norms", _m),
    ("near2.index", "search_exact", "index.search_exact", _m),
    ("near2.metrics", "search_exact", "index.search_exact", _m),
    ("near2.index", "search_exact_with_min", "index.search_exact_with_min", _m),
    ("near2.cli", "search_exact_with_min", "index.search_exact_with_min", _m),
    ("near2.index", "search_funnel", "index.search_funnel", None),
    ("near2.cli", "search_funnel", "index.search_funnel", None),
    ("near2._kernels", "prefix_dot_products", "kernels.prefix_dot_products", _scan),
    ("near2._kernels", "prefix_sq_norms", "kernels.prefix_sq_norms", _scan),
    ("near2.metrics", "sequential_evaluate", "metrics.sequential_evaluate", None),
    ("near2.cli", "sequential_evaluate", "metrics.sequential_evaluate", None),
]

KERNEL_SPANS = ("kernels.prefix_dot_products", "kernels.prefix_sq_norms")
SEARCH_SPANS = ("index.search_exact", "index.search_exact_with_min")
LOSS_SPANS = ("losses.multitask_step_loss", "losses.mrl_compose")


class Span:
    __slots__ = ("sid", "name", "parent", "start", "end", "attrs", "child_ns")

    def __init__(self, sid, name, parent, attrs):
        self.sid, self.name, self.parent, self.attrs = sid, name, parent, attrs
        self.start = self.end = time.perf_counter_ns()
        self.child_ns = 0

    @property
    def ns(self) -> int:
        return self.end - self.start

    @property
    def self_ns(self) -> int:
        return self.ns - self.child_ns


class Tracer:
    """Records spans while installed; `install`/`uninstall` patch and restore."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._saved: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    # --- recording ---------------------------------------------------------

    def _open(self, name, attrs) -> Span:
        parent = self._stack[-1].sid if self._stack else -1
        span = Span(len(self.spans), name, parent, attrs)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter_ns()
        self._stack.pop()
        if self._stack:
            self._stack[-1].child_ns += span.ns

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        """A span opened by the benchmark itself, around one of its requests."""
        span = self._open(name, attrs)
        try:
            yield span
        finally:
            self._close(span)

    def _wrap(self, fn, name, extract):
        tracer = self
        try:
            sig = inspect.signature(fn)
        except (TypeError, ValueError):
            sig = None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            attrs = {}
            if extract is not None and sig is not None:
                try:
                    attrs = extract(sig.bind(*args, **kwargs).arguments)
                except (TypeError, KeyError, AttributeError, ValueError):
                    attrs = {}
            span = tracer._open(name, attrs)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(span)

        return wrapper

    # --- patching ----------------------------------------------------------

    def install(self) -> "Tracer":
        self.missing = []
        for module_name, attr, name, extract in WRAPS:
            try:
                owner = importlib.import_module(module_name)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, leaf)
            except (ImportError, AttributeError):
                original = None
            if not callable(original):
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._saved.append((owner, leaf, original))
            setattr(owner, leaf, self._wrap(original, name, extract))
        return self

    def uninstall(self) -> None:
        while self._saved:
            owner, leaf, original = self._saved.pop()
            setattr(owner, leaf, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                attrs = {k: v for k, v in s.attrs.items() if k != "text"}
                fh.write(json.dumps({"id": s.sid, "name": s.name, "parent": s.parent,
                                     "start_ns": s.start, "end_ns": s.end,
                                     "attrs": attrs}) + "\n")


# --- per-layer metrics -------------------------------------------------------

# name, unit, better, the end-to-end metric (and workload) it should move
LAYER_METRICS = [
    ("data.gen_synthetic_s", "s", "lower", "setup_s (all)"),
    ("data.load_records_ms", "ms", "lower", "work_per_s (eval)"),
    ("encoder.tokenize_calls", "count", "lower", "work_per_s (train)"),
    ("encoder.tokenize_us", "us", "lower", "work_per_s (train)"),
    ("encoder.tokenize_useful_frac", "ratio", "higher", "work_per_s (train); no change on search"),
    ("encoder.encode_calls", "count", "lower", "setup_s (search), work_per_s (eval)"),
    ("encoder.encode_us", "us", "lower", "setup_s (search), work_per_s (eval)"),
    ("encoder.backward_self_s", "s", "lower", "work_per_s (train)"),
    ("encoder.save_model_ms", "ms", "lower", "work_per_s (train)"),
    ("encoder.load_model_ms", "ms", "lower", "cli_* (search)"),
    ("losses.step_loss_s", "s", "lower", "work_per_s (train)"),
    ("trainer.adamw_step_ms", "ms", "lower", "work_per_s, peak_rss_mb (train)"),
    ("trainer.build_batches_ms", "ms", "lower", "work_per_s (train)"),
    ("trainer.train_self_s", "s", "lower", "work_per_s (train)"),
    ("index.build_index_s", "s", "lower", "setup_s (search), work_per_s (eval)"),
    ("index.build_titles_per_s", "1/s", "higher", "setup_s (search), work_per_s (eval)"),
    ("index.save_index_ms", "ms", "lower", "setup_s (search)"),
    ("index.load_index_ms", "ms", "lower", "cli_search_m64_p50_ms, cli_funnel_p50_ms (search)"),
    ("index.prefix_norms_fill_ms.m64", "ms", "lower", "setup_s, cli_* (search)"),
    ("index.prefix_norms_fill_ms.m768", "ms", "lower", "setup_s, cli_* (search)"),
    ("index.search_self_ms.m64", "ms", "lower", "search_m64_p50_ms (search)"),
    ("index.search_self_ms.m768", "ms", "lower", "search_m768_p50_ms (search)"),
    ("index.rows_scanned.m64", "count", "lower", "search_m64_* (search)"),
    ("index.rows_scanned.m768", "count", "lower", "search_m768_* (search)"),
    ("index.funnel_stage1_ms", "ms", "lower", "funnel_p50_ms (search)"),
    ("index.funnel_stage2_ms", "ms", "lower", "funnel_p50_ms (search)"),
    ("index.cli_funnel_rerank_useful_frac", "ratio", "higher", "cli_funnel_p50_ms (search)"),
    ("kernels.scan_calls", "count", "lower", "work_per_s (eval)"),
    ("kernels.scan_ms.m64", "ms", "lower", "search_m64_*, funnel_* (search)"),
    ("kernels.scan_ms.m768", "ms", "lower", "search_m768_*, funnel_* (search)"),
    ("kernels.scan_bytes.m64", "B", "lower", "search_m64_* (search)"),
    ("kernels.scan_bytes.m768", "B", "lower", "search_m768_* (search)"),
    ("kernels.scan_GBps.m64", "GB/s", "higher", "search_m64_* (search)"),
    ("kernels.scan_GBps.m768", "GB/s", "higher", "search_m768_* (search)"),
    ("kernels.sq_norms_ms.m768", "ms", "lower", "setup_s (search)"),
    ("metrics.sequential_evaluate_self_s", "s", "lower", "work_per_s (eval)"),
    ("metrics.search_ms", "ms", "lower", "work_per_s (eval)"),
    ("cli.train_s", "s", "lower", "work_per_s (train)"),
    ("cli.eval_s", "s", "lower", "work_per_s (eval)"),
    ("cli.search_self_ms", "ms", "lower", "cli_search_m64_p50_ms, cli_funnel_p50_ms (search)"),
    ("trace.overhead_s", "s", "lower", "none: traced minus untraced wall time of the same work"),
    ("trace.overhead_frac", "ratio", "lower", "none: trace.overhead_s over the untraced wall time"),
]

_SCALE = {"s": 1e-9, "ms": 1e-6, "us": 1e-3}


def _mean(values):
    return sum(values) / len(values) if values else None


def layer_metrics(spans: list[Span], untraced_s: float, traced_s: float) -> tuple[dict, list[str]]:
    """Every LAYER_METRICS value from the spans; unobserved ones read 0.

    Time metrics are means per call, except the `*_self_*` ones, which are
    means per call of the span minus its child spans. Counts are totals over
    the traced work.
    """
    by_name: dict[str, list[Span]] = defaultdict(list)
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
        children[s.parent].append(s)
    by_id = {s.sid: s for s in spans}

    def descendants(span):
        stack = list(children[span.sid])
        while stack:
            s = stack.pop()
            yield s
            stack.extend(children[s.sid])

    def parent_name(span):
        p = by_id.get(span.parent)
        return p.name if p is not None else None

    def at_m(name, m):
        return [s for s in by_name[name] if s.attrs.get("m") == m]

    def mean_time(ss, unit, self_time=False):
        v = _mean([s.self_ns if self_time else s.ns for s in ss])
        return None if v is None else v * _SCALE[unit]

    out: dict[str, float | None] = {}
    out["data.gen_synthetic_s"] = mean_time(by_name["data.gen_synthetic"], "s")
    out["data.load_records_ms"] = mean_time(by_name["data.load_records"], "ms")

    tok = by_name["encoder.tokenize"]
    out["encoder.tokenize_calls"] = len(tok) or None
    out["encoder.tokenize_us"] = mean_time(tok, "us")
    texts = [s.attrs["text"] for s in tok if "text" in s.attrs]
    out["encoder.tokenize_useful_frac"] = len(set(texts)) / len(texts) if texts else None
    enc = by_name["encoder.encode"]
    out["encoder.encode_calls"] = len(enc) or None
    out["encoder.encode_us"] = mean_time(enc, "us")
    out["encoder.backward_self_s"] = mean_time(by_name["encoder.backward"], "s", self_time=True)
    out["encoder.save_model_ms"] = mean_time(by_name["encoder.save_model"], "ms")
    out["encoder.load_model_ms"] = mean_time(by_name["encoder.load_model"], "ms")

    outer_loss = [s for name in LOSS_SPANS for s in by_name[name]
                  if parent_name(s) not in LOSS_SPANS]
    out["losses.step_loss_s"] = mean_time(outer_loss, "s")
    out["trainer.adamw_step_ms"] = mean_time(by_name["trainer.adamw_step"], "ms")
    out["trainer.build_batches_ms"] = mean_time(by_name["trainer.build_batches"], "ms")
    out["trainer.train_self_s"] = mean_time(by_name["trainer.train"], "s", self_time=True)

    builds = by_name["index.build_index"]
    out["index.build_index_s"] = mean_time(builds, "s")
    titles = sum(s.attrs.get("titles", 0) for s in builds)
    build_ns = sum(s.ns for s in builds)
    out["index.build_titles_per_s"] = titles / (build_ns * 1e-9) if titles and build_ns else None
    out["index.save_index_ms"] = mean_time(by_name["index.save_index"], "ms")
    out["index.load_index_ms"] = mean_time(by_name["index.load_index"], "ms")

    scans = by_name["kernels.prefix_dot_products"]
    out["kernels.scan_calls"] = len(scans) or None
    for m in (64, 768):
        fills = [s for s in at_m("index.prefix_norms", m)
                 if any(d.name == "kernels.prefix_sq_norms" for d in descendants(s))]
        out[f"index.prefix_norms_fill_ms.m{m}"] = mean_time(fills, "ms")

        top_searches = [s for name in SEARCH_SPANS for s in at_m(name, m)
                        if parent_name(s) not in SEARCH_SPANS]
        self_ns = [s.ns - sum(d.ns for d in descendants(s) if d.name in KERNEL_SPANS)
                   for s in top_searches]
        v = _mean(self_ns)
        out[f"index.search_self_ms.m{m}"] = None if v is None else v * 1e-6

        scans_m = [s for s in scans if s.attrs.get("m") == m]
        rows = [s.attrs["rows"] for s in scans_m if "rows" in s.attrs]
        out[f"index.rows_scanned.m{m}"] = _mean(rows)
        out[f"kernels.scan_ms.m{m}"] = mean_time(scans_m, "ms")
        nbytes = [r * m * 4 for r in rows]
        out[f"kernels.scan_bytes.m{m}"] = _mean(nbytes)
        scan_ns = sum(s.ns for s in scans_m)
        out[f"kernels.scan_GBps.m{m}"] = sum(nbytes) / scan_ns if nbytes and scan_ns else None
    out["kernels.sq_norms_ms.m768"] = mean_time(
        [s for s in by_name["kernels.prefix_sq_norms"] if s.attrs.get("m") == 768], "ms")

    funnels = by_name["index.search_funnel"]
    stage1 = [[d for d in children[f.sid] if d.name in SEARCH_SPANS] for f in funnels]
    s1 = [sum(d.ns for d in st) for st in stage1]
    out["index.funnel_stage1_ms"] = _mean(s1) * 1e-6 if funnels else None
    out["index.funnel_stage2_ms"] = (
        _mean([f.ns - n for f, n in zip(funnels, s1)]) * 1e-6 if funnels else None)

    cli_funnels = [s for s in by_name["cli.search"] if s.attrs.get("funnel")]
    fracs = []
    for c in cli_funnels:
        m_high, shortlist = c.attrs["m_high"], c.attrs["shortlist"]
        rows = sum(d.attrs.get("rows", 0) for d in descendants(c)
                   if d.name == "kernels.prefix_dot_products" and d.attrs.get("m") == m_high)
        if rows:
            fracs.append(shortlist / rows)
    out["index.cli_funnel_rerank_useful_frac"] = _mean(fracs)

    out["metrics.sequential_evaluate_self_s"] = mean_time(
        by_name["metrics.sequential_evaluate"], "s", self_time=True)
    out["metrics.search_ms"] = mean_time(
        [s for s in by_name["index.search_exact"]
         if parent_name(s) == "metrics.sequential_evaluate"], "ms")
    out["cli.train_s"] = mean_time(by_name["cli.train"], "s")
    out["cli.eval_s"] = mean_time(by_name["cli.eval"], "s")
    out["cli.search_self_ms"] = mean_time(by_name["cli.search"], "ms", self_time=True)

    out["trace.overhead_s"] = traced_s - untraced_s
    out["trace.overhead_frac"] = (traced_s - untraced_s) / untraced_s if untraced_s > 0 else None

    not_observed = sorted(name for name, v in out.items() if v is None)
    metrics = {name: {"value": float(out[name] or 0.0), "unit": unit}
               for name, unit, _, _ in LAYER_METRICS}
    return metrics, not_observed
