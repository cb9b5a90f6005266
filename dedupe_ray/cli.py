"""CLI driver — the ``ray job submit`` entry point.

Mirrors the reference CLI surface (/root/reference/cmd/dedupe/main.go:65-93:
-o, -search, -threshold, -hash, move/copy/delete actions) on web-scale
parquet:

    python -m dedupe_ray.cli dedup   --input pages/*.parquet --output out/ \
        [--algo minhash|simhash] [--threshold X] [--keep-canonical-only]
    python -m dedupe_ray.cli compare --input pages/*.parquet --target-text "…"
    python -m dedupe_ray.cli stats   --input pages/*.parquet

The CLI owns the Ray session (guarded init); the library never does.
"""

from __future__ import annotations

import argparse
import glob
import json
import sys

from dedupe_ray.config import NearDupConfig, SIGNATURE_ALGOS


def _init_ray(num_cpus: int | None):
    import ray

    if not ray.is_initialized():
        kwargs = {"include_dashboard": False, "ignore_reinit_error": True,
                  "logging_level": "ERROR"}
        if num_cpus:
            kwargs["num_cpus"] = num_cpus
            kwargs["address"] = "local"
        ray.init(**kwargs)
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False


_DATA_EXTS = (".parquet", ".json", ".jsonl", ".csv")


def _expand(paths: list[str], recursive: bool = True) -> list[str]:
    """Expand globs; ``-`` reads a whitespace-separated path manifest from
    stdin (pipelining mode, mirroring /root/reference/cmd/dedupe/main.go:110-117).
    ``recursive=False`` replaces directory inputs with their TOP-LEVEL data
    files only — the reference's default dir walk prunes subdirectories
    unless ``-r`` is passed (/root/reference/utils/file.go:45-60, fs.SkipDir)."""
    import os

    out: list[str] = []
    for p in paths:
        if p == "-":
            out.extend(sys.stdin.read().split())
            continue
        hits = sorted(glob.glob(p))
        out.extend(hits if hits else [p])
    if not recursive:
        flat: list[str] = []
        for p in out:
            if os.path.isdir(p):
                top = sorted(
                    os.path.join(p, f)
                    for f in os.listdir(p)
                    if os.path.isfile(os.path.join(p, f))
                    and os.path.splitext(f)[1].lower() in _DATA_EXTS
                )
                if not top:
                    raise SystemExit(
                        f"error: directory {p} has no top-level data files "
                        "(rerun without --no-recursive to walk subdirectories)"
                    )
                flat.extend(top)
            else:
                flat.append(p)
        out = flat
    missing = [p for p in out if not os.path.exists(p)]
    if missing:
        raise SystemExit(f"error: input path(s) not found: {', '.join(missing[:5])}")
    if not out:
        raise SystemExit("error: no input paths")
    return out


def _config(args) -> NearDupConfig:
    from dedupe_ray.config import MinHashConfig

    if args.algo not in SIGNATURE_ALGOS:
        # invalid algo name falls back to the default with a warning, the way
        # the reference falls back to DCT (/root/reference/cmd/dedupe/main.go:131-137)
        print(f"warning: unknown algo {args.algo!r}, using minhash", file=sys.stderr)
        args.algo = "minhash"
    cfg = NearDupConfig(
        algo=args.algo,
        feature=getattr(args, "feature", "word"),
        minhash=MinHashConfig(scheme=getattr(args, "minhash_scheme", "kperm")),
    )
    if args.threshold is not None:
        cfg = cfg.with_threshold(args.threshold)
    return cfg


def _dup_cluster_rows(assignment_dir: str, members: bool):
    """Rows of the assignment in a duplicate cluster (``members=True``) or
    in a singleton cluster (``False``), and the number of duplicate
    clusters. The duplicate cluster ids (bounded by the dup set) are
    broadcast once."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray
    import ray.data

    from dedupe_ray.stages.candidates import _collect

    ds = ray.data.read_parquet(assignment_dir)
    dup = ds.map_batches(
        lambda b: pa.table({"cluster_id": pc.unique(b.column("cluster_id").filter(
            pc.not_equal(b.column("cluster_id"), b.column("doc_id"))))}),
        batch_format="pyarrow",
    )
    dup_cids = np.unique(_collect(dup, pa.table({"cluster_id": pa.array([], pa.int64())}))
                         .column("cluster_id").to_numpy(zero_copy_only=False).astype(np.int64))
    cid_ref = ray.put(dup_cids)

    def _select(b: pa.Table) -> pa.Table:
        hit = np.isin(b.column("cluster_id").to_numpy(zero_copy_only=False), ray.get(cid_ref))
        return b.filter(pa.array(hit == members))

    return ds.map_batches(_select, batch_format="pyarrow"), len(dup_cids)


def cmd_dedup(args) -> int:
    from dedupe_ray.pipelines.runner import run_neardup_checkpointed

    _init_ray(args.num_cpus)
    cfg = _config(args)
    metrics = run_neardup_checkpointed(
        _expand(args.input, recursive=not args.no_recursive), args.output, cfg,
        extract=not args.no_extract, quarantine=args.quarantine_failed,
    )

    def _fresh_dir(path: str) -> str:
        # derived sinks (survivors/groups) are rewritten from the checkpointed
        # assignment on every invocation; Ray's write_parquet APPENDS uniquely
        # named files, so a resumed run must clear the sink first or its rows
        # double (r4 verify finding)
        import shutil

        shutil.rmtree(path, ignore_errors=True)
        return path
    if args.delete_all:
        # the reference's -delete-all: drop EVERY member of every duplicate
        # cluster, canonical included; survivors are singletons only
        # (/root/reference/cmd/dedupe/main.go:226-236)
        singletons, n_dup = _dup_cluster_rows(f"{args.output}/assignment", members=False)
        singletons.write_parquet(_fresh_dir(f"{args.output}/survivors"))
        metrics["survivors"] = {"path": f"{args.output}/survivors", "dropped_clusters": n_dup}
    elif args.keep_canonical_only:
        # the -delete analog: materialize survivors only (keep the canonical
        # member of each cluster, /root/reference/cmd/dedupe/main.go:226-236)
        import pyarrow.compute as pc
        import ray.data

        ds = ray.data.read_parquet(f"{args.output}/assignment")
        ds.map_batches(
            lambda b: b.filter(pc.equal(b.column("is_canonical"), True)),
            batch_format="pyarrow",
        ).write_parquet(_fresh_dir(f"{args.output}/survivors"))
        metrics["survivors"] = {"path": f"{args.output}/survivors"}
    if args.partition_by_cluster:
        # the -move analog (/root/reference/utils/file.go:63-71, caller
        # cmd/dedupe/main.go:208-216): materialize duplicate-cluster members
        # into one directory per cluster. Only DUP clusters are written
        # (bounded set), mirroring the reference's group<i>/ directories.
        members, n_dup = _dup_cluster_rows(f"{args.output}/assignment", members=True)
        members.write_parquet(
            _fresh_dir(f"{args.output}/groups"), partition_cols=["cluster_id"]
        )
        metrics["groups_dir"] = {"path": f"{args.output}/groups", "clusters": n_dup}
    if args.write_groups_csv:
        # the reference's CSV sink: one row per duplicate group
        # (/root/reference/cmd/dedupe/main.go:194-206) — cluster_id, n, urls…
        import csv

        import duckdb

        rows = duckdb.sql(
            "SELECT cluster_id, list(url ORDER BY url) AS urls FROM "
            f"read_parquet('{args.output}/assignment/*.parquet') "
            "GROUP BY cluster_id HAVING count(*) >= 2 ORDER BY cluster_id"
        ).fetchall()
        path = f"{args.output}/groups.csv"
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            for cid, urls in rows:
                w.writerow([cid, len(urls), *urls])
        metrics["groups_csv"] = {"path": path, "groups": len(rows)}
    print(json.dumps(metrics, indent=2))
    return 0


def cmd_compare(args) -> int:
    import ray.data

    from dedupe_ray.pipelines.compare import compare
    from dedupe_ray.pipelines.neardup import signatures_dataset

    _init_ray(args.num_cpus)
    cfg = _config(args)
    from dedupe_ray.sources import read_pages

    pages = read_pages(_expand(args.input, recursive=not args.no_recursive))
    sigs = signatures_dataset(pages, cfg, extract=not args.no_extract).materialize()
    if args.target_text is not None:
        target = args.target_text
    else:
        import pyarrow.compute as pc

        # the whole filtered dataset is consumed: a take(1) would cancel the
        # in-flight tasks of a partial execution
        hit = [b for b in sigs.map_batches(
            lambda b: b.filter(pc.equal(b.column("url"), args.target_url)).select(["text"]),
            batch_format="pyarrow",
        ).iter_batches(batch_size=None, batch_format="pyarrow") if b.num_rows]
        if not hit:
            print(f"error: target url {args.target_url!r} not in corpus", file=sys.stderr)
            return 2
        target = hit[0].column("text")[0].as_py()
    out = compare(sigs, target, cfg)
    for batch in out.select_columns(["url", "score"]).iter_batches(
        batch_size=10_000, batch_format="pyarrow"
    ):
        for url, score in zip(batch.column("url").to_pylist(),
                              batch.column("score").to_pylist()):
            print(f"{url}\t{score:.4f}")
    return 0


def cmd_index(args) -> int:
    """Build (or resume) the persisted LSH band index for a corpus — the
    durable half of incremental matching."""
    from dedupe_ray.pipelines.incremental import build_band_index
    from dedupe_ray.pipelines.runner import _input_fingerprint
    from dedupe_ray.sources import read_pages

    _init_ray(args.num_cpus)
    cfg = _config(args)
    paths = _expand(args.input, recursive=not args.no_recursive)
    metrics = build_band_index(
        read_pages(paths), args.index_dir, cfg, extract=not args.no_extract,
        input_fingerprint=_input_fingerprint(paths),
    )
    print(json.dumps(metrics, indent=2))
    return 0


def cmd_match(args) -> int:
    """Match a new batch of pages against a persisted band index — the
    batch-generalized ``Compare`` (corpus is never re-signed)."""
    import os

    from dedupe_ray.pipelines.incremental import incremental_match_indexed
    from dedupe_ray.sources import read_pages

    _init_ray(args.num_cpus)
    cfg = _config(args)
    if not os.path.exists(os.path.join(args.index_dir, "bands", "_LINEAGE.json")):
        print(f"error: no band index at {args.index_dir!r} (run `index` first)",
              file=sys.stderr)
        return 2
    new_pages = read_pages(_expand(args.input, recursive=not args.no_recursive))
    try:
        out = incremental_match_indexed(
            new_pages, args.index_dir, cfg, extract=not args.no_extract
        )
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    status = out["new_status"]
    if args.output:
        import pyarrow.parquet as pq

        os.makedirs(args.output, exist_ok=True)
        pq.write_table(status, os.path.join(args.output, "new_status.parquet"))
        pq.write_table(out["edges"], os.path.join(args.output, "edges.parquet"))
        n_dup = sum(d is not None for d in status.column("duplicate_of").to_pylist())
        print(json.dumps({"new": status.num_rows, "duplicates": n_dup,
                          "edges": out["edges"].num_rows, "output": args.output}))
    else:
        for url, dup in zip(
            status.column("url").to_pylist(),
            status.column("duplicate_of").to_pylist(),
        ):
            print(f"{url}\t{'fresh' if dup is None else f'dup_of={dup}'}")
    return 0


def cmd_stats(args) -> int:
    import pyarrow as pa
    import ray.data

    from dedupe_ray.functions.quality import doc_stats_table

    _init_ray(args.num_cpus)
    from dedupe_ray.sources import read_pages

    pages = read_pages(_expand(args.input, recursive=not args.no_recursive))

    def _stats(batch: pa.Table) -> pa.Table:
        cols = {"url": batch.column("url")}
        cols.update(doc_stats_table(batch.column("text")))
        return pa.table(cols)

    out = pages.map_batches(_stats, batch_format="pyarrow")
    if args.output:
        out.write_parquet(args.output)
    else:
        # never materialize an unbounded corpus on the driver for display:
        # every batch is consumed (no partial execution), the first 50 rows
        # are kept
        head, n = [], 0
        for batch in out.iter_batches(batch_size=None, batch_format="pyarrow"):
            if n < 50 and batch.num_rows:
                head.append(batch.slice(0, 50 - n))
                n += head[-1].num_rows
        if head:
            rows = pa.concat_tables(head)
            print("\t".join(rows.column_names))
            for row in zip(*(c.to_pylist() for c in rows.columns)):
                print("\t".join(str(v) for v in row))
    return 0


def main(argv: list[str] | None = None) -> int:
    from dedupe_ray import __version__

    p = argparse.ArgumentParser(prog="dedupe_ray")
    p.add_argument("--version", action="version", version=f"dedupe_ray {__version__}")
    sub = p.add_subparsers(dest="cmd", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--input", nargs="+", required=True, help="parquet paths/globs")
    common.add_argument("--algo", default="minhash", help="minhash | simhash")
    common.add_argument("--threshold", type=float, default=None)
    common.add_argument("--num-cpus", type=int, default=None)
    common.add_argument("--no-extract", action="store_true",
                        help="input already has extracted text")
    common.add_argument("--feature", choices=["word", "char", "bpe"], default="word",
                        help="signature feature space (M4 registry analog: "
                             "word tokens | char k-grams | BPE-ish pieces)")
    common.add_argument("--minhash-scheme", choices=["kperm", "oph"], default="kperm",
                        help="kperm = classic K permutations; oph = one-permutation hashing")
    common.add_argument("--no-recursive", action="store_true",
                        help="directory inputs: read top-level files only "
                             "(reference default walk; -r analog inverted)")

    d = sub.add_parser("dedup", parents=[common])
    d.add_argument("--output", required=True)
    d.add_argument("--keep-canonical-only", action="store_true")
    d.add_argument("--delete-all", action="store_true",
                   help="survivors = singleton clusters only; every member of "
                        "every duplicate cluster is dropped (reference -delete-all)")
    d.add_argument("--write-groups-csv", action="store_true",
                   help="also write one-CSV-row-per-duplicate-group (reference K1 sink)")
    d.add_argument("--quarantine-failed", action="store_true",
                   help="route rows whose extraction yields no text to <output>/quarantine")
    d.add_argument("--partition-by-cluster", action="store_true",
                   help="materialize duplicate clusters as one directory per cluster (reference -move analog)")
    d.set_defaults(fn=cmd_dedup)

    c = sub.add_parser("compare", parents=[common])
    g = c.add_mutually_exclusive_group(required=True)
    g.add_argument("--target-text")
    g.add_argument("--target-url")
    c.set_defaults(fn=cmd_compare)

    s = sub.add_parser("stats", parents=[common])
    s.add_argument("--output", default=None)
    s.set_defaults(fn=cmd_stats)

    ix = sub.add_parser("index", parents=[common],
                        help="build/resume the persisted LSH band index")
    ix.add_argument("--index-dir", required=True)
    ix.set_defaults(fn=cmd_index)

    mt = sub.add_parser("match", parents=[common],
                        help="match a new batch against a persisted index")
    mt.add_argument("--index-dir", required=True)
    mt.add_argument("--output", default=None,
                    help="write new_status/edges parquet here instead of stdout")
    mt.set_defaults(fn=cmd_match)

    args = p.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
