"""The checkpointed runner behind ``cli dedup`` runs ``near_duplicates``'
stage list on both sides of the candidate gate: the path it takes is
recorded in the ``edges`` lineage, a resume at any stage boundary gives the
same assignment, the driver verify equals ``verify_edges`` (also with a
Jaro-Winkler confirm, and inside ``incremental_match_indexed``), each stage
reads only its columns of the signatures checkpoint, and neither the runner
nor the CLI reading commands run a hidden partial execution."""

from __future__ import annotations

import json
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from dedupe_ray.config import NearDupConfig
from dedupe_ray.fixtures.pages import generate_pages

STAGES = ("signatures", "edges", "clusters", "assignment")


@pytest.fixture(scope="module")
def pages_parquet(tmp_path_factory):
    d = tmp_path_factory.mktemp("runner_pages")
    pq.write_table(generate_pages(n_pages=300, seed=42).pages, str(d / "pages.parquet"))
    return str(d / "pages.parquet")


def _assignment(out: str) -> pa.Table:
    t = pq.read_table(os.path.join(out, "assignment"))
    return t.sort_by([("doc_id", "ascending"), ("url", "ascending")])


def test_runner_records_the_path_both_sides_of_the_gate(ray_session, pages_parquet, tmp_path):
    from dedupe_ray.pipelines.runner import run_neardup_checkpointed

    got = {}
    for name, cfg in (("driver", NearDupConfig()),
                      ("distributed", NearDupConfig(cc_local_max_edges=0))):
        out = str(tmp_path / name)
        m = run_neardup_checkpointed([pages_parquet], out, cfg)
        assert m["edges"]["path"] == name
        assert m["edges"]["candidates"] > 0
        # 300 signatures fit one band bundle on both sides of the gate
        assert m["edges"]["banding"] == "one_task"
        with open(os.path.join(out, "_RUN.json")) as f:
            edges = json.load(f)["stages"]["edges"]
        assert (edges["path"], edges["banding"]) == (name, "one_task")
        got[name] = _assignment(out)
    assert got["driver"].num_rows == 300
    assert got["driver"].equals(got["distributed"])


@pytest.mark.parametrize("gate", [None, 0], ids=["driver", "distributed"])
def test_resume_at_every_stage_boundary(ray_session, pages_parquet, tmp_path, monkeypatch, gate):
    """Delete the tail of the stage list, rerun: the assignment is the
    uninterrupted run's. A resumed ``edges`` stage follows its recorded path
    without banding again, in one task or with the band sort; the driver
    path then refetches the canonical pick's members from the signatures
    checkpoint."""
    from dedupe_ray.pipelines import neardup
    from dedupe_ray.pipelines.runner import run_neardup_checkpointed

    cfg = NearDupConfig() if gate is None else NearDupConfig(cc_local_max_edges=gate)
    out = str(tmp_path / "run")
    path = run_neardup_checkpointed([pages_parquet], out, cfg)["edges"]["path"]
    assert path == ("driver" if gate is None else "distributed")
    want = _assignment(out)

    banders = ("band_candidates", "one_task_candidates")
    real = {name: getattr(neardup, name) for name in banders}

    def _no_banding(*a, **k):
        raise AssertionError("resumed edges stage banded again")

    for n_deleted in (1, 2, 3):
        deleted = STAGES[-n_deleted:]
        for st in deleted:
            shutil.rmtree(os.path.join(out, st))
        for name in banders:
            monkeypatch.setattr(neardup, name, real[name] if "edges" in deleted else _no_banding)
        m = run_neardup_checkpointed([pages_parquet], out, cfg)
        for st in STAGES:
            assert bool(m[st].get("resumed")) == (st not in deleted), (deleted, st)
        assert _assignment(out).equals(want), deleted
        with open(os.path.join(out, "edges", "_LINEAGE.json")) as f:
            lineage = json.load(f)
        assert (lineage["path"], lineage["banding"]) == (path, "one_task")


def test_signature_reads_name_their_columns(ray_session, pages_parquet, tmp_path, monkeypatch):
    """Every read of the signatures checkpoint names its columns — the one
    Ray read of the stamp and the pyarrow read of the one-task ``edges``
    stage: ``cli dedup`` never reads the extracted ``text``; with a
    Jaro-Winkler confirm only the one-task read, which cuts the verify
    slice, reads it, and the run still equals ``near_duplicates``' driver
    path."""
    import ray.data

    from dedupe_ray.cli import main
    from dedupe_ray.pipelines.neardup import near_duplicates
    from dedupe_ray.pipelines.runner import run_neardup_checkpointed
    from dedupe_ray.sources import read_pages
    from dedupe_ray.state import checkpoint

    real_read, real_loader, reads = ray.data.read_parquet, checkpoint.stage_loader, []

    def _spy(paths, *a, **k):
        reads.append(("ray", str(paths), k.get("columns")))
        return real_read(paths, *a, **k)

    def _loader_spy(stage_dir, columns=None):
        loader = real_loader(stage_dir, columns)
        reads.append(("pyarrow", stage_dir, loader.args[1]))  # the columns it reads
        return loader

    def signature_reads() -> list:
        got = [(how, cols) for how, p, cols in reads if os.path.basename(p) == "signatures"]
        reads.clear()
        return got

    monkeypatch.setattr(ray.data, "read_parquet", _spy)
    monkeypatch.setattr(checkpoint, "stage_loader", _loader_spy)
    assert main(["dedup", "--input", pages_parquet, "--output", str(tmp_path / "cli")]) == 0
    got = signature_reads()
    assert sorted(how for how, _ in got) == ["pyarrow", "ray"], got
    assert all(c is not None and "text" not in c for _, c in got), got

    cfg = NearDupConfig(jaro_winkler_min=0.93)
    out = str(tmp_path / "jw")
    run_neardup_checkpointed([pages_parquet], out, cfg)
    got = signature_reads()
    assert sorted(how for how, _ in got) == ["pyarrow", "ray"], got
    assert all(c is not None for _, c in got), got
    assert [(how, c) for how, c in got if "text" in c] == [
        ("pyarrow", ["doc_id", "minhash", "text", "warc_ts", "url"])]
    want = _rows(near_duplicates(read_pages([pages_parquet]), cfg, mode="driver"))
    assert _assignment(out).equals(want.sort_by([("doc_id", "ascending"), ("url", "ascending")]))


def test_zero_row_corpus_commits_every_stage(ray_session, tmp_path):
    """A 0-row pages file gives 0-row ``signatures``, ``edges``,
    ``clusters`` and ``assignment`` checkpoints, and ``near_duplicates``
    an empty result. The one-task ``edges`` stage skips empty and
    zero-column blocks, which Ray can hand it."""
    import ray.data

    from dedupe_ray.fixtures.pages import PAGES_SCHEMA
    from dedupe_ray.pipelines.neardup import near_duplicates, one_task_candidates
    from dedupe_ray.pipelines.runner import run_neardup_checkpointed

    src = str(tmp_path / "pages.parquet")
    pq.write_table(PAGES_SCHEMA.empty_table(), src)
    out = str(tmp_path / "run")
    m = run_neardup_checkpointed([src], out, NearDupConfig())
    assert [m[st]["rows"] for st in STAGES] == [0, 0, 0, 0]
    assert m["edges"]["path"] == "driver"
    tables = {st: pq.read_table(os.path.join(out, st)) for st in STAGES}
    assert all(t.num_rows == 0 for t in tables.values())
    assert tables["edges"].column_names == ["src", "dst", "score"]
    assert tables["clusters"].column_names == ["doc_id", "cluster_id", "is_canonical"]
    assert tables["assignment"].column_names == [
        "url", "warc_ts", "lang", "doc_id", "cluster_id", "is_canonical"]
    empty = ray.data.from_arrow(PAGES_SCHEMA.empty_table())
    assert near_duplicates(empty).count() == 0

    sigs = _synthetic_signatures("minhash", 40)
    cfg = NearDupConfig()
    pairs, sl = one_task_candidates(lambda: [sigs], cfg)
    assert pairs.num_rows > 0
    got = one_task_candidates(lambda: [pa.table({}), sigs.slice(0, 0), sigs], cfg)
    assert got[0].equals(pairs) and got[1].equals(sl)
    assert [t.num_rows for t in one_task_candidates(lambda: [pa.table({})], cfg)] == [0, 0]


def test_recomputed_stage_recomputes_its_downstream(ray_session, pages_parquet, tmp_path):
    """A checkpoint built from an upstream stage's previous output does not
    resume once that stage is recomputed: here a ``clusters`` checkpoint of
    another format (no ``is_canonical``, as the distributed path and older
    runs write it) next to a recomputed driver-path ``edges``."""
    from dedupe_ray.pipelines.runner import run_neardup_checkpointed

    out = str(tmp_path / "run")
    run_neardup_checkpointed([pages_parquet], out, NearDupConfig())
    want = _assignment(out)
    part = os.path.join(out, "clusters", "part-00000.parquet")
    pq.write_table(pq.read_table(part).drop_columns(["is_canonical"]), part)
    shutil.rmtree(os.path.join(out, "edges"))
    m = run_neardup_checkpointed([pages_parquet], out, NearDupConfig())
    assert m["signatures"].get("resumed")
    assert not any(m[st].get("resumed") for st in ("edges", "clusters", "assignment"))
    assert _assignment(out).equals(want)


def _synthetic_signatures(algo: str, n_docs: int, seed: int = 5) -> pa.Table:
    """Docs in groups around a base signature, each perturbed by a random
    amount, so that the pairs straddle the threshold."""
    rng = np.random.default_rng(seed)
    group = rng.integers(0, 12, n_docs)
    ids = pa.array(np.arange(n_docs, dtype=np.int64) * 3 + 1, pa.int64())
    if algo == "simhash":
        base = rng.integers(0, 2**63, 12, dtype=np.int64).astype(np.uint64)
        sim = base[group]
        for i in range(n_docs):
            for b in rng.choice(64, rng.integers(0, 16), replace=False):
                sim[i] ^= np.uint64(1) << np.uint64(b)
        return pa.table({"doc_id": ids, "simhash": pa.array(sim, pa.uint64())})
    k = NearDupConfig().minhash.num_perms
    base = rng.integers(0, 2**32, (12, k), dtype=np.uint64).astype(np.uint32)
    mh = base[group]
    noise = rng.random((n_docs, k)) < rng.random((n_docs, 1)) * 0.6
    mh[noise] = rng.integers(0, 2**32, int(noise.sum()), dtype=np.uint64).astype(np.uint32)
    flat = pa.array(mh.ravel(), pa.uint32())
    return pa.table({"doc_id": ids, "minhash": pa.FixedSizeListArray.from_arrays(flat, k)})


@pytest.mark.parametrize("algo", ["minhash", "simhash"])
def test_driver_verify_equals_verify_edges(ray_session, algo):
    import ray.data

    from dedupe_ray.stages.candidates import _VERIFY_CHUNK, verify_candidates as _driver_edges
    from dedupe_ray.stages.candidates import verify_edges

    sigs = _synthetic_signatures(algo, 230)
    ids = sigs.column("doc_id").to_numpy()
    a, b = np.triu_indices(len(ids), 1)
    cands = pa.table({"src": pa.array(ids[a]), "dst": pa.array(ids[b])})
    assert cands.num_rows > _VERIFY_CHUNK  # the chunk edges are crossed
    cfg = NearDupConfig(algo=algo)
    order = [("src", "ascending"), ("dst", "ascending")]
    want = pa.concat_tables(list(verify_edges(
        ray.data.from_arrow(cands), ray.data.from_arrow(sigs), cfg
    ).iter_batches(batch_size=None, batch_format="pyarrow"))).sort_by(order)
    got, _ = _driver_edges(ray.data.from_arrow(cands), ray.data.from_arrow(sigs), cfg)
    assert 0 < want.num_rows < cands.num_rows
    assert got.sort_by(order).equals(want)


def test_quarantine_run_without_hidden_limit(ray_session, pages_parquet, tmp_path):
    """A zero-row quarantine stage commits its declared schema: no
    ``schema()`` probe, so no hidden ``limit(1)`` execution."""
    from dedupe_ray.pipelines.runner import run_neardup_checkpointed

    out = str(tmp_path / "q")
    m = run_neardup_checkpointed([pages_parquet], out, NearDupConfig(), quarantine=True)
    assert m["quarantine"]["rows"] == 0
    assert m["assignment"]["rows"] == 300
    assert pq.read_table(os.path.join(out, "quarantine")).column_names == ["url", "warc_ts"]


def test_cli_compare_and_stats_without_limit(ray_session, pages_parquet, tmp_path, capsys):
    from dedupe_ray.cli import main

    url = pq.read_table(pages_parquet, columns=["url"]).column("url")[7].as_py()
    assert main(["compare", "--input", pages_parquet, "--target-url", url]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert f"{url}\t1.0000" in lines
    assert main(["compare", "--input", pages_parquet, "--target-url", "nope://x"]) == 2

    assert main(["stats", "--input", pages_parquet]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split("\t")[0] == "url"
    assert len(lines) == 1 + 50


def _all_pairs(sigs: pa.Table) -> pa.Table:
    ids = sigs.column("doc_id").to_numpy()
    a, b = np.triu_indices(len(ids), 1)
    return pa.table({"src": pa.array(ids[a]), "dst": pa.array(ids[b])})


def _rows(ds) -> pa.Table:
    return pa.concat_tables(list(ds.iter_batches(batch_size=None, batch_format="pyarrow")))


def _group_texts(n_docs: int, seed: int = 9) -> list:
    """Per ``_synthetic_signatures`` group a 700-code-point base text with
    non-ASCII characters; each doc re-rolls a random number of positions,
    every fifth doc only past the 512th code point; doc 3 has no text."""
    group = np.random.default_rng(5).integers(0, 12, n_docs)  # as the signatures
    rng = np.random.default_rng(seed)
    alphabet = list("abcdefghij klmnop éüß😀✓")
    bases = ["".join(rng.choice(alphabet, 700)) for _ in range(12)]
    texts = []
    for i, g in enumerate(group):
        t = list(bases[g])
        for p in rng.integers(520 if i % 5 == 0 else 0, 700, rng.integers(0, 200)):
            t[p] = str(rng.choice(alphabet))
        texts.append("".join(t))
    texts[3] = None
    return texts


def test_jaro_winkler_verify_equal_on_both_paths(ray_session):
    """The Jaro-Winkler confirm gives the same (src, dst, score) on the
    driver path and in ``verify_edges``' tasks, and keeps exactly the
    metric-kept pairs whose first 512 code points (null text = "") reach
    the minimum. More than 256 pairs reach the confirm, so it fans out."""
    import ray.data

    from dedupe_ray.functions.metrics import jaro_winkler_pairs
    from dedupe_ray.stages.candidates import _JW_TASK_PAIRS, verify_candidates, verify_edges

    texts = _group_texts(230)
    sigs = _synthetic_signatures("minhash", 230).append_column("text", pa.array(texts))
    cands, sigs_ds = ray.data.from_arrow(_all_pairs(sigs)), ray.data.from_arrow(sigs)
    order = [("src", "ascending"), ("dst", "ascending")]
    metric_only = verify_candidates(cands, sigs_ds, NearDupConfig())[0].sort_by(order)
    cfg = NearDupConfig(jaro_winkler_min=0.93)
    got, _ = verify_candidates(cands, sigs_ds, cfg)
    want = _rows(verify_edges(cands, sigs_ds, cfg)).sort_by(order)
    assert metric_only.num_rows > _JW_TASK_PAIRS
    assert 0 < want.num_rows < metric_only.num_rows
    assert got.sort_by(order).equals(want)

    by_id = dict(zip(sigs.column("doc_id").to_pylist(), texts))
    cut = lambda col: [(by_id[i] or "")[:512] for i in metric_only.column(col).to_pylist()]
    jw = jaro_winkler_pairs(cut("src"), cut("dst"))
    assert want.equals(metric_only.filter(pa.array(jw >= 0.93)))


def test_incremental_match_gate_equals_distributed_chain(ray_session, pages_parquet, tmp_path):
    """``incremental_match_indexed`` through the verify gate's driver path
    gives the edges and ``new_status`` of the ``dedupe_edges`` →
    ``verify_edges`` chain (the gate's distributed side, forced by
    ``cc_local_max_edges=0``) against the same index."""
    import ray.data

    from dedupe_ray.pipelines.incremental import build_band_index, incremental_match_indexed

    pages = pq.read_table(pages_parquet)
    rows = np.arange(pages.num_rows)
    index = str(tmp_path / "index")
    build_band_index(ray.data.from_arrow(pages.take(rows[rows % 3 > 0])), index, NearDupConfig())
    increment = ray.data.from_arrow(pages.take(rows[rows % 3 == 0]))
    out = {gate: incremental_match_indexed(increment, index, NearDupConfig(cc_local_max_edges=gate))
           for gate in (2_000_000, 0)}
    order = [("src", "ascending"), ("dst", "ascending")]
    driver, chain = out[2_000_000], out[0]
    assert driver["edges"].num_rows > 0
    assert driver["edges"].sort_by(order).equals(chain["edges"].sort_by(order))
    assert driver["new_status"].sort_by("doc_id").equals(chain["new_status"].sort_by("doc_id"))
    assert driver["new_status"].column("duplicate_of").null_count < 100
