"""Checkpoint/resume + CLI tests."""

from __future__ import annotations

import json
import os
import shutil

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from dedupe_ray.config import NearDupConfig
from dedupe_ray.fixtures.pages import generate_pages


@pytest.fixture(scope="module")
def pages_parquet(tmp_path_factory):
    d = tmp_path_factory.mktemp("pages_in")
    f = generate_pages(n_pages=300, seed=42)
    pq.write_table(f.pages, str(d / "pages.parquet"))
    return str(d / "pages.parquet")


def test_checkpointed_run_and_resume(ray_session, pages_parquet, tmp_path):
    from dedupe_ray.pipelines.runner import run_neardup_checkpointed

    out = str(tmp_path / "run1")
    m1 = run_neardup_checkpointed([pages_parquet], out, NearDupConfig())
    assert not m1["signatures"].get("resumed")
    assert m1["assignment"]["rows"] == 300
    for stage in ("signatures", "edges", "clusters", "assignment"):
        assert os.path.exists(os.path.join(out, stage, "_LINEAGE.json")), stage
        lin = json.load(open(os.path.join(out, stage, "_LINEAGE.json")))
        assert lin["config_hash"] == NearDupConfig().config_hash()
        assert "wall_sec" in lin and "rows" in lin

    # resume: everything skipped
    m2 = run_neardup_checkpointed([pages_parquet], out, NearDupConfig())
    assert all(m2[s].get("resumed") for s in ("signatures", "edges", "clusters", "assignment"))

    # invalidate one mid stage → downstream recomputes, upstream resumes
    shutil.rmtree(os.path.join(out, "edges"))
    m3 = run_neardup_checkpointed([pages_parquet], out, NearDupConfig())
    assert m3["signatures"].get("resumed")
    assert not m3["edges"].get("resumed")

    # config change → full recompute
    m4 = run_neardup_checkpointed(
        [pages_parquet], out, NearDupConfig().with_threshold(0.7)
    )
    assert not m4["signatures"].get("resumed")


def test_cli_dedup_and_compare(ray_session, pages_parquet, tmp_path, capsys):
    from dedupe_ray.cli import main

    out = str(tmp_path / "cli_out")
    rc = main(
        ["dedup", "--input", pages_parquet, "--output", out, "--keep-canonical-only"]
    )
    assert rc == 0
    surv = pq.read_table(f"{out}/survivors")
    assign = pq.read_table(f"{out}/assignment")
    assert 0 < surv.num_rows < assign.num_rows
    assert set(surv.column("is_canonical").to_pylist()) == {True}

    f = generate_pages(n_pages=300, seed=42)
    target_url = f.pages.column("url").to_pylist()[0]
    rc = main(
        ["compare", "--input", pages_parquet, "--no-extract", "--target-url", target_url]
    )
    assert rc == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("https://")]
    assert any(target_url in l for l in lines)


def test_cli_rerun_survivors_idempotent(ray_session, pages_parquet, tmp_path):
    """Regression (r4 verify): a resumed dedup run must REWRITE the derived
    survivors sink, not append a second copy of every row (Ray's
    write_parquet appends uniquely named files into an existing dir)."""
    from dedupe_ray.cli import main

    out = str(tmp_path / "rerun_out")
    args = ["dedup", "--input", pages_parquet, "--output", out,
            "--keep-canonical-only"]
    assert main(args) == 0
    n1 = pq.read_table(f"{out}/survivors").num_rows
    assert main(args) == 0  # fully resumed run
    n2 = pq.read_table(f"{out}/survivors").num_rows
    assert n1 == n2


def test_cli_delete_all_keeps_singletons_only(ray_session, pages_parquet, tmp_path):
    from dedupe_ray.cli import main

    out = str(tmp_path / "da_out")
    rc = main(["dedup", "--input", pages_parquet, "--output", out, "--delete-all"])
    assert rc == 0
    assign = pq.read_table(f"{out}/assignment")
    surv = pq.read_table(f"{out}/survivors")
    import collections

    sizes = collections.Counter(assign.column("cluster_id").to_pylist())
    singletons = {c for c, n in sizes.items() if n == 1}
    assert surv.num_rows == len(singletons)
    assert set(surv.column("cluster_id").to_pylist()) == singletons
    # strictly fewer survivors than -delete (canonical-only) would keep
    assert surv.num_rows < len(sizes)


def test_expand_no_recursive_prunes_subdirs(tmp_path):
    from dedupe_ray.cli import _expand

    top = tmp_path / "corpus"
    (top / "nested").mkdir(parents=True)
    f = generate_pages(n_pages=10, seed=1)
    pq.write_table(f.pages, str(top / "a.parquet"))
    pq.write_table(f.pages, str(top / "nested" / "b.parquet"))
    flat = _expand([str(top)], recursive=False)
    assert flat == [str(top / "a.parquet")]
    deep = _expand([str(top)], recursive=True)
    assert deep == [str(top)]  # dir passed to the reader's recursive walk


def test_input_fingerprint_sees_same_second_same_size_rewrite(tmp_path):
    from dedupe_ray.pipelines.runner import _input_fingerprint

    f = tmp_path / "pages.parquet"
    f.write_bytes(b"a" * 64)
    ns = 1_700_000_000_000_000_000
    os.utime(f, ns=(ns, ns))
    before = _input_fingerprint([str(f)])
    f.write_bytes(b"b" * 64)  # same size, rewritten 1 ns later
    os.utime(f, ns=(ns + 1, ns + 1))
    assert _input_fingerprint([str(f)]) != before


def test_band_index_persist_and_match_without_reextraction(
    ray_session, pages_parquet, tmp_path
):
    """VERDICT r1 #9: build the LSH band index once; a later increment
    matches against the checkpoint with NO corpus re-extraction — proven by
    resuming with a corpus dataset that would raise if ever executed."""
    import numpy as np
    import ray.data

    from dedupe_ray.pipelines.incremental import (
        build_band_index,
        incremental_match_indexed,
    )

    cfg = NearDupConfig()
    idx = str(tmp_path / "band_index")
    corpus = ray.data.read_parquet(pages_parquet)
    m1 = build_band_index(corpus, idx, cfg, input_fingerprint="fp1")
    assert not m1["signatures"].get("resumed")
    assert os.path.exists(os.path.join(idx, "bands", "_LINEAGE.json"))

    # increment: jittered copies of the first 20 corpus pages
    src = pq.read_table(pages_parquet).slice(0, 20)
    inc = pa.table(
        {
            "url": pa.array(
                [u + "?inc" for u in src.column("url").to_pylist()], pa.string()
            ),
            "warc_ts": src.column("warc_ts"),
            "html": src.column("html"),
            "text": src.column("text"),
            "lang": src.column("lang"),
        }
    )

    def _boom(batch):
        raise AssertionError("corpus was re-extracted")

    poisoned = ray.data.read_parquet(pages_parquet).map_batches(_boom)
    m2 = build_band_index(poisoned, idx, cfg, input_fingerprint="fp1")
    assert m2["signatures"].get("resumed") and m2["bands"].get("resumed")

    out = incremental_match_indexed(ray.data.from_arrow(inc), idx, cfg)
    status = out["new_status"]
    assert status.num_rows == 20
    # identical-html increments must match their corpus originals
    dup = np.asarray(
        [d is not None for d in status.column("duplicate_of").to_pylist()]
    )
    assert dup.mean() >= 0.95, dup.mean()


def test_band_index_partition_pruning(ray_session, pages_parquet, tmp_path):
    """VERDICT r3 #7: the persisted band index is hive-partitioned by
    band_key range, and a small increment's match touches a STRICT SUBSET of
    the shard directories — with results identical to the unpruned read."""
    import numpy as np
    import ray.data

    from dedupe_ray.pipelines.incremental import (
        build_band_index,
        incremental_match,
        incremental_match_indexed,
        pruned_band_paths,
    )

    cfg = NearDupConfig()
    idx = str(tmp_path / "pruned_index")
    corpus = ray.data.read_parquet(pages_parquet)
    build_band_index(corpus, idx, cfg, input_fingerprint="fp1")
    shard_dirs = [
        e for e in os.listdir(os.path.join(idx, "bands")) if e.startswith("band_shard=")
    ]
    assert len(shard_dirs) > 1, "bands checkpoint is not hive-partitioned"

    # a 2-page increment lands in far fewer shards than exist
    src = pq.read_table(pages_parquet).slice(0, 2)
    inc = src.set_column(
        src.schema.get_field_index("url"), "url",
        pa.array([u + "?p" for u in src.column("url").to_pylist()], pa.string()),
    )
    out = incremental_match_indexed(ray.data.from_arrow(inc), idx, cfg)
    assert out["new_status"].num_rows == 2
    assert all(d is not None for d in out["new_status"].column("duplicate_of").to_pylist())

    # the pruning helper selects a strict subset for those keys
    from dedupe_ray.pipelines.neardup import signatures_dataset
    from dedupe_ray.stages.banding import band_emitter

    sigs = signatures_dataset(ray.data.from_arrow(inc), cfg).materialize()
    banded = pa.concat_tables(
        list(
            sigs.map_batches(band_emitter(cfg.minhash), batch_format="pyarrow",
                             batch_size=None)
            .iter_batches(batch_size=1 << 20, batch_format="pyarrow")
        )
    )
    keys = np.unique(banded.column("band_key").to_numpy(zero_copy_only=False))
    paths, n_hit, total = pruned_band_paths(idx, keys)
    assert len(paths) > 0 and 0 < n_hit < total, (n_hit, total)

    # pruned match == full-band-read match
    full_bands = ray.data.read_parquet(
        os.path.join(idx, "bands"), columns=["band_key", "doc_id"]
    )
    corpus_sigs = ray.data.read_parquet(os.path.join(idx, "signatures"))
    from dedupe_ray.pipelines.incremental import incremental_match as _im

    out_full = incremental_match(
        ray.data.from_arrow(inc), corpus_sigs, cfg, corpus_bands=full_bands
    )
    key = lambda t: sorted(
        zip(t.column("src").to_pylist(), t.column("dst").to_pylist())
    )
    assert key(out["edges"]) == key(out_full["edges"])


def test_cli_index_then_match(ray_session, pages_parquet, tmp_path, capsys):
    from dedupe_ray.cli import main

    idx = str(tmp_path / "idx")
    rc = main(["index", "--input", pages_parquet, "--index-dir", idx])
    assert rc == 0
    m = json.loads(capsys.readouterr().out)
    assert not m["signatures"].get("resumed") and m["bands"]["rows"] > 0

    # second index run resumes
    rc = main(["index", "--input", pages_parquet, "--index-dir", idx])
    assert rc == 0
    m2 = json.loads(capsys.readouterr().out)
    assert m2["signatures"].get("resumed") and m2["bands"].get("resumed")

    # increment: copies of the first pages under new urls
    src = pq.read_table(pages_parquet).slice(0, 15)
    inc = src.set_column(
        src.schema.get_field_index("url"), "url",
        pa.array([u + "?new" for u in src.column("url").to_pylist()], pa.string()),
    )
    inc_path = str(tmp_path / "inc.parquet")
    pq.write_table(inc, inc_path)
    out_dir = str(tmp_path / "match_out")
    rc = main(["match", "--input", inc_path, "--index-dir", idx, "--output", out_dir])
    assert rc == 0
    res = json.loads(capsys.readouterr().out)
    assert res["new"] == 15 and res["duplicates"] >= 14
    assert pq.read_table(f"{out_dir}/new_status.parquet").num_rows == 15

    # match against a missing index is a clean exit-2 error
    rc = main(["match", "--input", inc_path, "--index-dir", str(tmp_path / "nope")])
    assert rc == 2


def test_empty_stage_checkpoint_roundtrip(ray_session, pages_parquet, tmp_path):
    """A stage producing ZERO rows (e.g. nothing quarantined) must still
    commit a readable checkpoint and resume cleanly."""
    from dedupe_ray.pipelines.runner import run_neardup_checkpointed

    out = str(tmp_path / "qrun")
    m = run_neardup_checkpointed([pages_parquet], out, NearDupConfig(), quarantine=True)
    assert m["quarantine"]["rows"] == 0  # fixture pages all extract fine
    assert m["assignment"]["rows"] == 300
    m2 = run_neardup_checkpointed([pages_parquet], out, NearDupConfig(), quarantine=True)
    assert m2["quarantine"].get("resumed")


def test_match_edges_metadata_path_no_materialize(ray_session, pages_parquet):
    """VERDICT r4 #6: with a caller-known row count (parquet footer /
    lineage), match_edges must size band bundles WITHOUT materializing the
    lazy signatures pipeline, and emit identical edges to the default
    (materializing) path."""
    import ray.data

    from dedupe_ray.config import NearDupConfig
    from dedupe_ray.pipelines.neardup import match_edges, signatures_dataset
    from dedupe_ray.sources.pages import parquet_row_count

    cfg = NearDupConfig()
    n = parquet_row_count(pages_parquet)
    assert n == 300  # footer metadata only — no Ray execution involved

    def _edges(ds):
        tbls = list(ds.iter_batches(batch_size=1 << 20, batch_format="pyarrow"))
        pairs = set()
        for b in tbls:
            pairs.update(zip(b.column("src").to_pylist(), b.column("dst").to_pylist()))
        return pairs

    sigs_lazy = signatures_dataset(ray.data.read_parquet(pages_parquet), cfg)
    boom = []
    sigs_lazy.materialize = lambda *a, **k: boom.append(1)  # instance spy
    got = _edges(match_edges(sigs_lazy, cfg, n_rows=n))
    assert not boom, "metadata path must not materialize the signatures input"

    sigs_default = signatures_dataset(ray.data.read_parquet(pages_parquet), cfg)
    want = _edges(match_edges(sigs_default, cfg))
    assert got == want and len(got) > 0


def test_stage_rows_reads_lineage_then_footers(ray_session, pages_parquet, tmp_path):
    from dedupe_ray.config import NearDupConfig
    from dedupe_ray.pipelines.runner import run_neardup_checkpointed
    from dedupe_ray.state.checkpoint import CheckpointedRun

    cfg = NearDupConfig()
    run_neardup_checkpointed([pages_parquet], str(tmp_path / "ck"), cfg)
    run = CheckpointedRun(str(tmp_path / "ck"), cfg.config_hash(), "x")
    assert run.stage_rows("signatures") == 300
    # lineage removed -> falls back to parquet footer metadata
    (tmp_path / "ck" / "signatures" / "_LINEAGE.json").unlink()
    assert run.stage_rows("signatures") == 300
    assert run.stage_rows("no_such_stage") in (None, 0)
