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


def test_input_fingerprint_sees_same_second_same_size_rewrite(ray_session, tmp_path, capsys):
    from dedupe_ray.cli import main
    from dedupe_ray.pipelines.runner import _input_fingerprint

    f = tmp_path / "pages.parquet"
    f.write_bytes(b"a" * 64)
    ns = 1_700_000_000_000_000_000
    os.utime(f, ns=(ns, ns))
    before = _input_fingerprint([str(f)])
    f.write_bytes(b"b" * 64)  # same size, rewritten 1 ns later
    os.utime(f, ns=(ns + 1, ns + 1))
    assert _input_fingerprint([str(f)]) != before

    # the band index (cli index) must not resume over such a rewrite either
    pages = generate_pages(n_pages=20, seed=3).pages

    def _write(t: pa.Table, at_ns: int) -> int:
        pq.write_table(t, str(f), compression="none", use_dictionary=False)
        os.utime(f, ns=(at_ns, at_ns))
        return os.path.getsize(f)

    idx = str(tmp_path / "idx")
    size = _write(pages, ns)
    assert main(["index", "--input", str(f), "--index-dir", idx]) == 0
    capsys.readouterr()
    urls = pages.column("url").to_pylist()
    urls[0] = urls[0][:-1] + ("x" if urls[0][-1] != "x" else "y")  # same length
    edited = pages.set_column(pages.schema.get_field_index("url"), "url",
                              pa.array(urls, pa.string()))
    assert _write(edited, ns + 1) == size
    assert main(["index", "--input", str(f), "--index-dir", idx]) == 0
    m = json.loads(capsys.readouterr().out)
    assert not m["signatures"].get("resumed") and not m["bands"].get("resumed")


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


def _increment(pages_parquet: str, n: int, suffix: str) -> pa.Table:
    """The first ``n`` corpus pages under new urls."""
    src = pq.read_table(pages_parquet).slice(0, n)
    return src.set_column(
        src.schema.get_field_index("url"), "url",
        pa.array([u + suffix for u in src.column("url").to_pylist()], pa.string()),
    )


def _increment_keys(inc: pa.Table, cfg: NearDupConfig):
    import numpy as np
    import ray.data

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
    return np.unique(banded.column("band_key").to_numpy(zero_copy_only=False))


def _edge_pairs(t: pa.Table) -> list:
    return sorted(zip(t.column("src").to_pylist(), t.column("dst").to_pylist()))


def _rewrite_bands(idx: str, write) -> None:
    """Replace the index's band files with ``write(bands_dir, table)``'s,
    keeping the lineage (the commit marker)."""
    bands_dir = os.path.join(idx, "bands")
    tbl = pq.read_table(bands_dir).sort_by("band_key")
    for f in os.listdir(bands_dir):
        if f != "_LINEAGE.json":
            os.remove(os.path.join(bands_dir, f))
    write(bands_dir, tbl)


def _brute_force_match(idx: str, inc: pa.Table, cfg: NearDupConfig) -> tuple[list, pa.Table]:
    """The unpruned reference of an indexed match, on the driver: every
    corpus and increment signature banded with ``band_emitter``, every pair
    within a shared key with an increment doc at one end (no bucket reaches
    ``max_bucket_size``, so no salting), scored by the mean of equal minhash
    slots → (sorted edge pairs, new_status)."""
    import itertools

    import numpy as np
    import ray.data

    from dedupe_ray.pipelines.neardup import signatures_dataset
    from dedupe_ray.stages.banding import band_emitter

    corpus = pq.read_table(os.path.join(idx, "signatures"), columns=["doc_id", "url", "minhash"])
    new = pa.concat_tables(signatures_dataset(ray.data.from_arrow(inc), cfg).materialize()
                           .select_columns(["doc_id", "url", "minhash"])
                           .iter_batches(batch_size=None, batch_format="pyarrow"))
    sigs = pa.concat_tables([corpus, new])
    sig_of = dict(zip(sigs.column("doc_id").to_pylist(),
                      (np.asarray(v, np.uint32) for v in sigs.column("minhash").to_pylist())))
    new_ids = set(new.column("doc_id").to_pylist())
    buckets: dict = {}
    banded = band_emitter(cfg.signature())(sigs)
    for key, doc in zip(banded.column("band_key").to_pylist(), banded.column("doc_id").to_pylist()):
        buckets.setdefault(key, set()).add(doc)
    edges = set()
    for members in buckets.values():
        if not members & new_ids:
            continue
        assert len(members) < cfg.max_bucket_size
        for a, b in itertools.combinations(sorted(members), 2):
            if (a in new_ids or b in new_ids) and \
                    (sig_of[a] == sig_of[b]).mean() >= cfg.minhash.threshold:
                edges.add((a, b))
    partner: dict = {}
    for a, b in edges:
        partner[a] = min(partner.get(a, b), b)
        partner[b] = min(partner.get(b, a), a)
    status = new.select(["doc_id", "url"]).sort_by("doc_id")
    status = status.append_column("duplicate_of", pa.array(
        [partner.get(d) for d in status.column("doc_id").to_pylist()], pa.int64()))
    return sorted(edges), status


def test_band_index_partition_pruning(ray_session, pages_parquet, tmp_path):
    """VERDICT r3 #7: the persisted band index is one run sorted by
    band_key, and a match reads only the row groups whose footer
    [min, max] holds one of the increment's keys — with the edges and
    ``new_status`` of a brute-force match over every banded signature."""
    import ray.data

    from dedupe_ray.pipelines.incremental import (
        build_band_index,
        incremental_match_indexed,
        pruned_band_paths,
    )

    cfg = NearDupConfig()
    idx = str(tmp_path / "pruned_index")
    build_band_index(ray.data.read_parquet(pages_parquet), idx, cfg, input_fingerprint="fp1")
    # one key-sorted run: no hive directories, files in ascending disjoint
    # key ranges, row groups in key order within each
    bands_dir = os.path.join(idx, "bands")
    files = sorted(os.path.join(bands_dir, f) for f in os.listdir(bands_dir)
                   if f.endswith(".parquet"))
    assert files and all(os.path.isfile(f) for f in files)
    ranges = []
    for f in files:
        md = pq.read_metadata(f)
        ranges += [(md.row_group(i).column(0).statistics.min,
                    md.row_group(i).column(0).statistics.max)
                   for i in range(md.num_row_groups)]
    ranges.sort()
    assert all(hi <= lo2 for (_, hi), (lo2, _) in zip(ranges, ranges[1:]))

    # a 2-page increment matches its corpus originals
    inc = _increment(pages_parquet, 2, "?p")
    out = incremental_match_indexed(ray.data.from_arrow(inc), idx, cfg)
    assert out["new_status"].num_rows == 2
    assert all(d is not None for d in out["new_status"].column("duplicate_of").to_pylist())
    want_edges, want_status = _brute_force_match(idx, inc, cfg)
    assert _edge_pairs(out["edges"]) == want_edges
    assert out["new_status"].equals(want_status)

    # the same sorted run in small row groups (a corpus-sized index has
    # thousands): the pruned read is a strict subset, the edges unchanged
    _rewrite_bands(idx, lambda d, t: pq.write_table(t, os.path.join(d, "part-0.parquet"),
                                                    row_group_size=64))
    paths, n_hit, total = pruned_band_paths(idx, _increment_keys(inc, cfg))
    assert len(paths) == 1 and 0 < n_hit < total, (n_hit, total)
    out_small = incremental_match_indexed(ray.data.from_arrow(inc), idx, cfg)
    assert _edge_pairs(out_small["edges"]) == want_edges
    assert out_small["new_status"].equals(want_status)


def test_pruned_band_paths_equals_brute_force_unsigned(tmp_path):
    """Footer pruning keeps exactly the row groups whose band_key
    [min, max] holds a key, compared as uint64: the index straddles 2^63,
    so a signed compare would lose the row group that crosses it."""
    import numpy as np

    from dedupe_ray.pipelines.incremental import _band_row_groups, pruned_band_paths

    rng = np.random.default_rng(5)
    keys = np.unique(np.concatenate([
        rng.integers(0, 2**64 - 1, 3000, dtype=np.uint64, endpoint=True),
        np.array([2**63 - 2, 2**63 - 1, 2**63, 2**63 + 1], np.uint64),
    ]))
    bands_dir = tmp_path / "idx" / "bands"
    bands_dir.mkdir(parents=True)
    for i, part in enumerate(np.array_split(keys, 3)):
        pq.write_table(pa.table({"band_key": pa.array(part, pa.uint64()),
                                 "doc_id": pa.array(np.arange(len(part)), pa.int64())}),
                       str(bands_dir / f"part-{i}.parquet"), row_group_size=50)
    absent = rng.integers(0, 2**64 - 1, 40, dtype=np.uint64, endpoint=True)
    query = np.concatenate([keys[::97], np.array([2**63], np.uint64), absent])

    # brute force: every row group's [min, max] from its values, as Python ints
    want, straddling, total = set(), set(), 0
    for f in sorted(os.listdir(bands_dir)):
        pf = pq.ParquetFile(str(bands_dir / f))
        for rg in range(pf.num_row_groups):
            col = pf.read_row_group(rg).column("band_key").to_pylist()
            total += 1
            if any(min(col) <= int(k) <= max(col) for k in query):
                want.add((f, rg))
            if min(col) < 2**63 <= max(col):
                straddling.add((f, rg))
    assert straddling and straddling <= want

    paths, n_hit, n_total = pruned_band_paths(str(tmp_path / "idx"), query)
    assert (n_hit, n_total) == (len(want), total) and n_hit < total
    assert sorted(os.path.basename(p) for p in paths) == sorted({f for f, _ in want})
    hits, _ = _band_row_groups(str(tmp_path / "idx"), query)
    assert {(os.path.basename(p), rg) for p, rgs in hits for rg in rgs} == want


def test_band_index_in_shard_layout_matches_sorted_run(ray_session, pages_parquet, tmp_path):
    """An index whose bands sit in the older ``band_shard=N`` hive
    directories (256 shards on the top key byte) still reads: the same
    edges and ``new_status`` as the sorted run."""
    import numpy as np
    import pyarrow.compute as pc
    import ray.data

    from dedupe_ray.pipelines.incremental import build_band_index, incremental_match_indexed

    cfg = NearDupConfig()
    idx = str(tmp_path / "idx")
    build_band_index(ray.data.read_parquet(pages_parquet), idx, cfg, input_fingerprint="fp1")
    inc = ray.data.from_arrow(_increment(pages_parquet, 20, "?s"))
    sorted_run = incremental_match_indexed(inc, idx, cfg)

    def _shards(bands_dir: str, tbl: pa.Table) -> None:
        shard = tbl.column("band_key").to_numpy() >> np.uint64(56)
        for s in np.unique(shard):
            d = os.path.join(bands_dir, f"band_shard={int(s)}")
            os.makedirs(d)
            pq.write_table(tbl.filter(pc.equal(pa.array(shard), s)), os.path.join(d, "0.parquet"))

    _rewrite_bands(idx, _shards)
    assert len(os.listdir(os.path.join(idx, "bands"))) > 100
    sharded = incremental_match_indexed(inc, idx, cfg)
    assert sorted_run["edges"].num_rows > 0
    assert _edge_pairs(sharded["edges"]) == _edge_pairs(sorted_run["edges"])
    assert sharded["new_status"].equals(sorted_run["new_status"])


def test_band_index_of_empty_corpus_marks_every_page_fresh(ray_session, tmp_path):
    import ray.data

    from dedupe_ray.fixtures.pages import PAGES_SCHEMA
    from dedupe_ray.pipelines.incremental import build_band_index, incremental_match_indexed

    cfg = NearDupConfig()
    idx = str(tmp_path / "idx")
    m = build_band_index(ray.data.from_arrow(PAGES_SCHEMA.empty_table()), idx, cfg)
    assert m["signatures"]["rows"] == 0 and m["bands"]["rows"] == 0
    words = ["alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf", "hotel"]
    inc = pa.table({
        "url": pa.array([f"new://{i}" for i in range(4)], pa.string()),
        "warc_ts": pa.array([1, 2, 3, 4], pa.timestamp("us")),
        "text": [" ".join(f"{w}{i}x{j}" for j in range(40) for w in words) for i in range(4)],
        "lang": ["en"] * 4,
    })
    out = incremental_match_indexed(ray.data.from_arrow(inc), idx, cfg, extract=False)
    assert out["new_status"].num_rows == 4
    assert out["new_status"].column("duplicate_of").null_count == 4
    assert out["edges"].num_rows == 0


def test_band_index_signatures_read_back_fixed_size(ray_session, pages_parquet, tmp_path):
    """The signatures checkpoint keeps ``minhash`` as
    ``fixed_size_list<uint32>[num_perms]`` through the parquet round trip,
    so the persisted corpus unions with freshly signed increments as is."""
    import ray.data

    from dedupe_ray.pipelines.incremental import build_band_index

    cfg = NearDupConfig()
    idx = str(tmp_path / "idx")
    build_band_index(ray.data.read_parquet(pages_parquet), idx, cfg)
    want = pa.list_(pa.uint32(), cfg.minhash.num_perms)
    assert pq.read_table(os.path.join(idx, "signatures")).schema.field("minhash").type == want
    batch = next(iter(ray.data.read_parquet(os.path.join(idx, "signatures"))
                      .iter_batches(batch_size=None, batch_format="pyarrow")))
    assert batch.schema.field("minhash").type == want


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

    # a threshold-only change matches against the same index
    rc = main(["match", "--input", inc_path, "--index-dir", idx, "--output", out_dir,
               "--threshold", "0.7"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["duplicates"] >= 14

    # other signature settings give other band keys: refused, not matched
    for flags in (["--minhash-scheme", "oph"], ["--feature", "char"], ["--algo", "simhash"]):
        rc = main(["match", "--input", inc_path, "--index-dir", idx, *flags])
        assert rc == 2, flags
        assert "rebuild with `cli index`" in capsys.readouterr().err

    # match against a missing index is a clean exit-2 error
    rc = main(["match", "--input", inc_path, "--index-dir", str(tmp_path / "nope")])
    assert rc == 2


def test_band_index_keyed_by_full_config_is_rebuilt_and_refused(
    ray_session, pages_parquet, tmp_path, capsys
):
    """An index committed under the full ``config_hash`` (as before indexes
    were keyed by their signature settings) is refused by ``cli match``
    and rebuilt, not resumed, by ``build_band_index``."""
    import ray.data

    from dedupe_ray.cli import main
    from dedupe_ray.pipelines.incremental import build_band_index

    cfg = NearDupConfig()
    idx = str(tmp_path / "idx")
    build_band_index(ray.data.read_parquet(pages_parquet), idx, cfg, input_fingerprint="fp1")
    for stage in ("signatures", "bands"):
        path = os.path.join(idx, stage, "_LINEAGE.json")
        with open(path) as f:
            lin = json.load(f)
        assert lin["config_hash"] == cfg.signature_hash() != cfg.config_hash()
        lin["config_hash"] = cfg.config_hash()
        with open(path, "w") as f:
            json.dump(lin, f)

    rc = main(["match", "--input", pages_parquet, "--index-dir", idx])
    assert rc == 2
    assert "rebuild with `cli index`" in capsys.readouterr().err
    m = build_band_index(ray.data.read_parquet(pages_parquet), idx, cfg, input_fingerprint="fp1")
    assert not m["signatures"].get("resumed") and not m["bands"].get("resumed")
    assert m["bands"]["config_hash"] == cfg.signature_hash()


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


def test_stage_rows_from_footers_without_reread(ray_session, pages_parquet, tmp_path, monkeypatch):
    """A Dataset stage's ``rows`` come from the committed files' parquet
    footers: right for the hive-partitioned ``bands`` stage of the band
    index and for a stage with no rows, and the temp directory is never
    read back through Ray during the commit."""
    import ray.data

    from dedupe_ray.pipelines.incremental import build_band_index
    from dedupe_ray.state.checkpoint import CheckpointedRun

    real_read = ray.data.read_parquet
    reads = []

    def _spy(paths, *a, **k):
        reads.append(str(paths))
        return real_read(paths, *a, **k)

    monkeypatch.setattr(ray.data, "read_parquet", _spy)
    idx = str(tmp_path / "idx")
    m = build_band_index(real_read(pages_parquet), idx, NearDupConfig(), input_fingerprint="fp")
    assert m["signatures"]["rows"] == 300
    assert m["bands"]["rows"] == pq.read_table(os.path.join(idx, "bands")).num_rows > 300

    run = CheckpointedRun(str(tmp_path / "ck"), "h")
    empty = pa.table({"a": pa.array([], pa.int64())})
    run.stage("empty", lambda: ray.data.from_arrow(empty), schema=empty.schema)
    assert run.metrics["empty"]["rows"] == 0
    assert reads and not [p for p in reads if ".tmp-" in p], reads


def test_incremental_match_docs_fingerprint_sees_same_second_rewrite(ray_session, tmp_path,
                                                                     monkeypatch):
    """The query's band index is keyed by the documents file's mtime in ns:
    a same-size rewrite within one second gets a new index, not the stale one."""
    from dedupe_ray.pipelines import incremental, queries

    src = str(tmp_path / "documents.parquet")
    pq.write_table(pa.table({"doc_id": pa.array([1, 2], pa.int64()),
                             "text": ["alpha beta", "gamma delta"],
                             "lang": ["en", "en"]}), src)
    roots = []
    monkeypatch.setattr(incremental, "build_band_index",
                        lambda corpus, root, cfg, input_fingerprint: roots.append(root))
    monkeypatch.setattr(incremental, "incremental_match_indexed",
                        lambda inc, root, cfg: {"new_status": pa.table({"url": pa.array([], pa.string())})})
    t = 1_700_000_000 * 10**9
    for mtime in (t, t + 1):  # same size, same second
        os.utime(src, ns=(mtime, mtime))
        queries.incremental_match_docs(str(tmp_path))
    assert len(roots) == 2 and roots[0] != roots[1]
