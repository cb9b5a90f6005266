"""The traced run: spans around each layer's public calls, and counters.

Spans are recorded here, in the benchmark, never inside the program. The
traced operation itself is the workload's production call under one root
span ``op``; the layers are then timed in a separate execution, the
``layers`` chain, which follows the workload's production path through its
public calls, each materialised before the next starts, so a span covers
exactly one layer. Where the production path goes through a private helper,
the enclosing public call is the span. Counters are computed from the data
the layers hand back (band tables, edge lists, output directories), not
from the program's logs.

``PER_LAYER`` lists every per-layer metric. A layer that a workload's
production path does not call reports 0 there.
"""

from __future__ import annotations

import contextlib
import json
import os
import statistics
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from workloads import cli, dir_stats

S, N, MB, R = "s", "count", "MB", "ratio"
PER_LAYER = [
    ("sources.read_s", S), ("sources.rows", N),
    ("extract.s", S), ("extract.html_mb", MB), ("extract.empty_text", N),
    ("signatures.s", S), ("signatures.pages", N),
    ("banding.s", S), ("banding.rows", N),
    ("candidates.emit_s", S), ("candidates.pairs", N),
    ("candidates.largest_bucket", N), ("candidates.salted_buckets", N),
    ("candidates.pairs_dropped_by_salting", N),
    ("candidates.dedupe_s", S), ("candidates.distinct_pairs", N),
    ("candidates.verify_s", S), ("candidates.verified_edges", N),
    ("candidates.verify_yield", R), ("candidates.distinct_ratio", R),
    ("clustering.s", S), ("clustering.edges_in", N), ("clustering.clusters", N),
    ("clustering.dup_pages", N),
    ("neardup.stamp_s", S), ("neardup.canonicals", N), ("neardup.driver_rest_s", S),
    ("checkpoint.stage_s.signatures", S), ("checkpoint.stage_s.edges", S),
    ("checkpoint.stage_s.clusters", S), ("checkpoint.stage_s.assignment", S),
    ("checkpoint.stage_s.bands", S), ("checkpoint.commit_s", S),
    ("checkpoint.files", N), ("checkpoint.resume_s", S),
    ("incremental.index_build_s", S), ("incremental.index_commit_s", S),
    ("incremental.match_s_p50", S),
    ("incremental.index_files", N), ("incremental.shards_hit", N),
    ("incremental.band_files_read", N), ("incremental.corpus_band_rows_kept", N),
    ("incremental.increment_sign_s", S),
    ("trace.op_s", S), ("trace.overhead_s", S), ("trace.layers_s", S),
]


class Tracer:
    """In-memory spans (name, start, end, parent), written out at the end."""

    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        rec = {"id": len(self.spans), "trace_id": self.trace_id, "name": name,
               "parent": self._open[-1] if self._open else None,
               "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def seconds(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump(self.spans, f, indent=1)


def bucket_sizes(banded: pa.Table) -> np.ndarray:
    """Distinct members per band key of a ``band_emitter`` table."""
    keys = banded.column("band_key").to_numpy(zero_copy_only=False)
    ids = banded.column("doc_id").to_numpy(zero_copy_only=False)
    if not len(keys):
        return np.zeros(0, np.int64)
    o = np.lexsort((ids, keys))
    k, i = keys[o], ids[o]
    first = np.r_[True, (k[1:] != k[:-1]) | (i[1:] != i[:-1])]
    return np.unique(k[first], return_counts=True)[1]


def salting_counters(sizes: np.ndarray, cap: int) -> tuple[int, int, int]:
    """(largest bucket, buckets over ``cap``, pairs salting drops). A bucket of
    s > cap members keeps the pairs inside its consecutive cap-sized chunks:
    C(s,2) - (s // cap)·C(cap,2) - C(s % cap, 2) pairs are lost."""
    sizes = np.asarray(sizes, dtype=np.int64)
    hot = sizes[sizes > cap]
    c2 = lambda x: x * (x - 1) // 2  # noqa: E731
    dropped = int((c2(hot) - (hot // cap) * c2(cap) - c2(hot % cap)).sum())
    return int(sizes.max()) if len(sizes) else 0, len(hot), dropped


def _collect(ds) -> pa.Table:
    import ray

    parts = [t for t in ray.get(ds.to_arrow_refs()) if t.num_rows]
    return pa.concat_tables(parts) if parts else pa.table({})


def _html_mb(path: str) -> float:
    html = pq.read_table(path, columns=["html"]).column("html")
    return (pc.sum(pc.binary_length(html)).as_py() or 0) / 1e6


def _chain_to_candidates(tr: Tracer, pages_path: str, cfg, m: dict):
    """read → extract → sign → band → candidate pairs, one materialised
    layer per span; returns (signatures, candidate pairs)."""
    from dedupe_ray.pipelines.neardup import band_bundle_size, signatures_dataset
    from dedupe_ray.sources import read_pages
    from dedupe_ray.sources.pages import parquet_row_count
    from dedupe_ray.stages.banding import band_emitter
    from dedupe_ray.stages.candidates import candidate_edges
    from dedupe_ray.stages.extract import ExtractText

    with tr.span("sources.read_pages"):
        pages = read_pages([pages_path]).materialize()
    with tr.span("stages.extract.ExtractText"):
        text = pages.map_batches(ExtractText(), batch_format="pyarrow",
                                 batch_size=None).materialize()
    with tr.span("pipelines.neardup.signatures_dataset"):
        sigs = signatures_dataset(text, cfg, extract=False).materialize()
    with tr.span("stages.banding.band_emitter"):
        banded = sigs.map_batches(
            band_emitter(cfg.signature()), batch_format="pyarrow",
            batch_size=band_bundle_size(parquet_row_count(pages_path))).materialize()
    with tr.span("stages.candidates.candidate_edges"):
        cand = candidate_edges(banded, cfg.max_bucket_size).materialize()

    texts = pc.fill_null(_collect(text.select_columns(["text"])).column("text"), "")
    largest, salted, dropped = salting_counters(bucket_sizes(_collect(banded)),
                                                cfg.max_bucket_size)
    m.update({
        "sources.read_s": tr.seconds("sources.read_pages"),
        "sources.rows": pages.count(),
        "extract.s": tr.seconds("stages.extract.ExtractText"),
        "extract.html_mb": _html_mb(pages_path),
        "extract.empty_text": int(pc.sum(pc.equal(pc.utf8_length(texts), 0)).as_py() or 0),
        "signatures.s": tr.seconds("pipelines.neardup.signatures_dataset"),
        "signatures.pages": sigs.count(),
        "banding.s": tr.seconds("stages.banding.band_emitter"),
        "banding.rows": banded.count(),
        "candidates.emit_s": tr.seconds("stages.candidates.candidate_edges"),
        "candidates.pairs": cand.count(),
        "candidates.largest_bucket": largest,
        "candidates.salted_buckets": salted,
        "candidates.pairs_dropped_by_salting": dropped,
    })
    return sigs, cand


def _distinct_counters(n_distinct: int, m: dict) -> None:
    m["candidates.distinct_pairs"] = n_distinct
    pairs = m["candidates.pairs"]
    m["candidates.distinct_ratio"] = n_distinct / pairs if pairs else 0.0


def _assignment_counters(assign: pa.Table, m: dict) -> None:
    """Clusters of two or more pages, their pages, and canonicals, from the
    traced operation's output."""
    sizes = pc.value_counts(assign.column("cluster_id")).field("counts")
    multi = sizes.filter(pc.greater(sizes, 1))
    m["clustering.clusters"] = len(multi)
    m["clustering.dup_pages"] = int(pc.sum(multi).as_py() or 0)
    m["neardup.canonicals"] = int(pc.sum(assign.column("is_canonical")).as_py() or 0)


def _lineage_walls(metrics: dict, stages: list[str], m: dict) -> float:
    total = 0.0
    for st in stages:
        wall = metrics[st]["wall_sec"]
        m[f"checkpoint.stage_s.{st}"] = wall
        total += wall
    return total


def trace_fresh_crawl(tr: Tracer, wl, cfg, m: dict) -> list[str]:
    """Production path: near_duplicates takes its driver path here, which
    dedupes, verifies and clusters the pairs inside one private helper; the
    chain stops at candidate_edges and the helper's cost is driver_rest_s."""
    from dedupe_ray.pipelines.neardup import band_bundle_size, near_duplicates, signatures_dataset
    from dedupe_ray.sources import read_pages
    from dedupe_ray.stages.banding import band_emitter
    from dedupe_ray.stages.candidates import candidate_edges

    with tr.span("layers"):
        _, cand = _chain_to_candidates(tr, wl.pages, cfg, m)
    _distinct_counters(_collect(cand).group_by(["src", "dst"]).aggregate([]).num_rows, m)

    with tr.span("pipelines.neardup.near_duplicates"):
        nd = near_duplicates(read_pages([wl.pages]), cfg).materialize()
    # near_duplicates' own prefix, run the way it runs it: the fused
    # read+extract+sign pass materialised, then banding fused into the
    # candidate sort; the rest of the call is the driver path
    with tr.span("near_duplicates.prefix"):
        sigs = signatures_dataset(read_pages([wl.pages]), cfg).materialize()
        candidate_edges(sigs.map_batches(
            band_emitter(cfg.signature()), batch_format="pyarrow",
            batch_size=band_bundle_size(sigs.count())), cfg.max_bucket_size).materialize()
    m["neardup.driver_rest_s"] = (tr.seconds("pipelines.neardup.near_duplicates")
                                  - tr.seconds("near_duplicates.prefix"))
    assign = _collect(nd.select_columns(["url", "cluster_id", "is_canonical"]))
    return [f"near_duplicates: {e}" for e in wl.checked(assign, 0.0, 0).errors]


def trace_cli_hotbucket(tr: Tracer, wl, cfg, m: dict) -> list[str]:
    """Production path: cli dedup, whose checkpointed stages call every
    public layer from read_pages to assign_clusters; the traced operation
    left its checkpoint directory in ``wl.out``."""
    from dedupe_ray.pipelines.neardup import assign_clusters
    from dedupe_ray.stages.candidates import dedupe_edges, verify_edges
    from dedupe_ray.stages.clustering import connected_components

    with open(os.path.join(wl.out, "_RUN.json")) as f:
        stages = json.load(f)["stages"]
    walls = _lineage_walls(stages, ["signatures", "edges", "clusters", "assignment"], m)
    m["checkpoint.commit_s"] = tr.seconds("op") - walls
    m["checkpoint.files"] = dir_stats(wl.out)[0]
    with tr.span("cli.dedup.resume"):
        cli("dedup", "--input", wl.pages, "--output", wl.out)
    m["checkpoint.resume_s"] = tr.seconds("cli.dedup.resume")

    with tr.span("layers"):
        sigs, cand = _chain_to_candidates(tr, wl.pages, cfg, m)
        with tr.span("stages.candidates.dedupe_edges"):
            distinct = dedupe_edges(cand).materialize()
        with tr.span("stages.candidates.verify_edges"):
            edges = verify_edges(distinct, sigs, cfg).materialize()
        with tr.span("stages.clustering.connected_components"):
            clusters = connected_components(edges, method=cfg.cc_method,
                                            local_max_edges=cfg.cc_local_max_edges).materialize()
        with tr.span("pipelines.neardup.assign_clusters"):
            out = assign_clusters(sigs, clusters).materialize()
    n_distinct, n_edges = distinct.count(), edges.count()
    _distinct_counters(n_distinct, m)
    m.update({
        "candidates.dedupe_s": tr.seconds("stages.candidates.dedupe_edges"),
        "candidates.verify_s": tr.seconds("stages.candidates.verify_edges"),
        "candidates.verified_edges": n_edges,
        "candidates.verify_yield": n_edges / n_distinct if n_distinct else 0.0,
        "clustering.s": tr.seconds("stages.clustering.connected_components"),
        "clustering.edges_in": n_edges,
        "neardup.stamp_s": tr.seconds("pipelines.neardup.assign_clusters"),
    })
    assign = _collect(out.select_columns(["url", "cluster_id", "is_canonical"]))
    errors = [f"layered chain: {e}" for e in wl.checked(assign, 0.0, 0).errors]
    return errors + trace_index(tr, wl, cfg, m)


def trace_index(tr: Tracer, wl, cfg, m: dict) -> list[str]:
    """The persisted band index over the workload's corpus, then one-page
    matches against it; returns the verdict errors against the planted
    siblings."""
    import shutil

    from dedupe_ray.pipelines.incremental import (
        build_band_index, incremental_match_indexed, pruned_band_paths)
    from dedupe_ray.pipelines.neardup import signatures_dataset
    from dedupe_ray.sources import read_pages
    from dedupe_ray.stages.banding import band_emitter

    index = os.path.join(wl.work, "traced-index")
    shutil.rmtree(index, ignore_errors=True)
    with tr.span("pipelines.incremental.build_band_index"):
        built = build_band_index(read_pages([wl.pages]), index, cfg)
    walls = _lineage_walls(built, ["bands"], m)
    build_s = tr.seconds("pipelines.incremental.build_band_index")
    m["incremental.index_build_s"] = build_s
    m["incremental.index_commit_s"] = build_s - walls - built["signatures"]["wall_sec"]
    m["incremental.index_files"] = dir_stats(os.path.join(index, "bands"))[0]

    sig = pq.read_table(os.path.join(index, "signatures"), columns=["url", "doc_id"])
    ids = dict(zip(sig.column("url").to_pylist(), sig.column("doc_id").to_pylist()))
    errors = []
    for inc in wl.increments[:3]:
        with tr.span("pipelines.incremental.incremental_match_indexed"):
            res = incremental_match_indexed(read_pages([inc]), index, cfg)
        status = res["new_status"]
        for url, dup in zip(status.column("url").to_pylist(),
                            status.column("duplicate_of").to_pylist()):
            want = ids.get(wl.sibling.get(url))
            if dup != want:
                errors.append(f"match of {url}: duplicate_of {dup}, planted {want}")
    m["incremental.match_s_p50"] = statistics.median(
        tr.durations("pipelines.incremental.incremental_match_indexed"))

    # the first increment (it has a planted sibling), one layer at a time
    with tr.span("pipelines.neardup.signatures_dataset[increment]"):
        inc_sigs = signatures_dataset(read_pages([wl.increments[0]]), cfg).materialize()
    keys = band_emitter(cfg.signature())(_collect(inc_sigs)).column("band_key")
    keys = np.unique(keys.to_numpy(zero_copy_only=False))
    with tr.span("pipelines.incremental.pruned_band_paths"):
        files, shards_hit, _ = pruned_band_paths(index, keys)
    kept = pq.read_table(files, columns=["band_key"]).column("band_key")
    m.update({
        "incremental.shards_hit": shards_hit,
        "incremental.band_files_read": len(files),
        "incremental.corpus_band_rows_kept":
            int(pc.sum(pc.is_in(kept, pa.array(keys, pa.uint64()))).as_py() or 0),
        "incremental.increment_sign_s":
            tr.seconds("pipelines.neardup.signatures_dataset[increment]"),
    })
    return errors


TRACES = {
    "fresh_crawl": trace_fresh_crawl,
    "cli_hotbucket": trace_cli_hotbucket,
}


def traced_metrics(name: str, wl, untraced_wall_s: float, tr: Tracer) -> tuple[dict, list[str]]:
    """(per-layer metrics, errors of the layer calls). Runs after the traced
    operation, whose root span ``op`` is already in ``tr`` and whose output
    is still in ``wl.out``."""
    from dedupe_ray.config import NearDupConfig

    m = {k: 0 for k, _ in PER_LAYER}
    _assignment_counters(wl.assignment(), m)
    errors = TRACES[name](tr, wl, NearDupConfig(), m)
    m["trace.op_s"] = tr.seconds("op")
    m["trace.overhead_s"] = m["trace.op_s"] - untraced_wall_s
    m["trace.layers_s"] = tr.seconds("layers")
    return m, errors
