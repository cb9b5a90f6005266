"""Seeded input generation for the benchmark, run as its own process.

    python3 perfbench/corpus.py --workload fresh_crawl --seed 3 --out DIR

Writes the workload's parquet inputs and their ground truth into ``DIR``
(through a temporary directory renamed into place, so a half-written cache
entry is never read). The program under test only ever sees these files;
generation time never lands in a timed region or in the driver's RSS.

Pages come from ``dedupe_ray.fixtures.pages.generate_pages`` with ``text``
nulled so extraction runs. Each workload adds what it needs on top:

- ``cli_hotbucket``: a block of pages that share one long template, large
  enough to overflow the salting cap in every LSH band, and one-page
  increments for the traced index match, half of them edited copies of
  corpus singletons (planted siblings) and half fresh pages.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# pages per input, by workload. The template block is sized against the
# 256-member salting cap: nearly all of its 1000 members share the block's key
# in every band (986 at seed 1), so every band's hot bucket splits into four
# salt chunks.
SIZES = {
    "fresh_crawl": {"pages": 3000},
    "cli_hotbucket": {"pages": 2700, "template": 1000, "increments": 4},
}
TEMPLATE_TOKENS = 600
UNIQUE_TOKENS = 6
SAMPLED_PAIRS = 200


def cache_key(workload: str, seed: int) -> str:
    sizes = "-".join(f"{k}{v}" for k, v in sorted(SIZES[workload].items()))
    return f"{workload}-s{seed}-{sizes}"


def generate_pages(n_pages: int, seed: int, **kw):
    from dedupe_ray.fixtures.pages import generate_pages as _generate

    return _generate(n_pages=n_pages, seed=seed, **kw)


def _no_text(pages: pa.Table) -> pa.Table:
    i = pages.schema.get_field_index("text")
    return pages.set_column(i, "text", pa.nulls(pages.num_rows, pa.string()))


def _page_table(urls, htmls, ts_base_us: int) -> pa.Table:
    from dedupe_ray.fixtures.pages import PAGES_SCHEMA

    n = len(urls)
    return pa.table(
        {
            "url": pa.array(urls, pa.string()),
            "warc_ts": pa.array([ts_base_us + i * 1_000_000 for i in range(n)],
                                pa.timestamp("us")),
            "html": pa.array(htmls, pa.binary()),
            "text": pa.nulls(n, pa.string()),
            "lang": pa.array(["en"] * n, pa.string()),
        },
        schema=PAGES_SCHEMA,
    )


def _words(rng: np.random.Generator, n: int, vocab: np.ndarray) -> list[str]:
    return list(vocab[rng.integers(0, len(vocab), size=n)])


def template_block(rng: np.random.Generator, n: int, seed: int) -> pa.Table:
    """``n`` pages sharing one long template body plus a few page-specific
    tokens: estimated Jaccard near 0.97, so nearly all members share the
    same key in every band and the bucket exceeds the salting cap everywhere."""
    letters = np.array(list("abcdefghijklmnopqrstuvwxyz"))
    vocab = np.array(sorted({"".join(rng.choice(letters, size=int(rng.integers(3, 10))))
                             for _ in range(3000)}))
    body = _words(rng, TEMPLATE_TOKENS, vocab)
    paras = "".join(f"<p>{' '.join(body[i:i + 40])}</p>"
                    for i in range(0, len(body), 40))
    head = "<!DOCTYPE html><html><head><title>portal listing</title></head><body><main>"
    urls, htmls = [], []
    for i in range(n):
        tail = " ".join(_words(rng, UNIQUE_TOKENS, vocab))
        urls.append(f"https://tpl-{seed}.example/listing-{i:05d}")
        htmls.append(f"{head}{paras}<p>{tail}</p></main></body></html>".encode())
    return _page_table(urls, htmls, 1_735_689_600_000_000)


def _sample_pairs(rng, urls: list[str], n: int) -> list[tuple[str, str]]:
    out = set()
    while len(out) < min(n, len(urls) * (len(urls) - 1) // 2):
        i, j = rng.integers(0, len(urls), size=2)
        if i != j:
            out.add(tuple(sorted((urls[i], urls[j]))))
    return sorted(out)


def _write(out: str, name: str, table: pa.Table) -> None:
    pq.write_table(table, os.path.join(out, name))


def _write_inputs(out: str, workload: str, seed: int) -> None:
    size = SIZES[workload]
    rng = np.random.default_rng([seed, 1])
    n_base = size["pages"]
    fx = generate_pages(n_base, seed)
    pages = _no_text(fx.pages)
    truth = fx.truth.select(["url", "true_cluster"])
    labeled = fx.labeled_pairs
    if "template" in size:
        tpl = template_block(rng, size["template"], seed)
        tpl_urls = tpl.column("url").to_pylist()
        tpl_cluster = int(pc.max(truth.column("true_cluster")).as_py()) + 1
        pages = pa.concat_tables([pages, tpl])
        truth = pa.concat_tables([truth, pa.table({
            "url": pa.array(tpl_urls, pa.string()),
            "true_cluster": pa.array([tpl_cluster] * len(tpl_urls), pa.int64())})])
        pos = _sample_pairs(rng, tpl_urls, SAMPLED_PAIRS)
        base_urls = fx.pages.column("url").to_pylist()
        neg = [tuple(sorted((tpl_urls[int(rng.integers(len(tpl_urls)))],
                             base_urls[int(rng.integers(len(base_urls)))])))
               for _ in range(SAMPLED_PAIRS)]
        labeled = pa.concat_tables([labeled, pa.table({
            "url_a": pa.array([a for a, _ in pos + neg], pa.string()),
            "url_b": pa.array([b for _, b in pos + neg], pa.string()),
            "is_dup": pa.array([True] * len(pos) + [False] * len(neg), pa.bool_())})])
    _write(out, "pages.parquet", pages)
    _write(out, "truth.parquet", truth)
    _write(out, "labeled_pairs.parquet", labeled)
    if "increments" in size:
        _increments(out, fx, seed, size["increments"], np.random.default_rng([seed, 2]))


def _sibling_html(html: bytes, rng, vocab: np.ndarray) -> bytes:
    """An edited copy: a short extra paragraph before ``</main>``."""
    extra = " ".join(_words(rng, 8, vocab)).encode()
    return html.replace(b"</main>", b"<p>" + extra + b"</p></main>", 1)


def _increments(out: str, fx, seed: int, n_inc: int, rng) -> None:
    """One-page increments: even ones are edited copies of corpus singletons
    (their planted sibling), odd ones are fresh pages of another seed."""
    transforms = fx.truth.column("transform").to_pylist()
    singles = [i for i, t in enumerate(transforms) if t == "singleton"]
    picks = rng.choice(singles, size=n_inc // 2, replace=False)
    fresh = generate_pages(n_inc, seed + 104729, dup_frac=0.0, skew_frac=0.0,
                           near_negative_frac=0.0, easy_negative_pairs=0)
    fresh_rows = [i for i, t in enumerate(fresh.truth.column("transform").to_pylist())
                  if t == "singleton"]
    words = set(" ".join(fx.pages.column("text").to_pylist()).split())
    vocab = np.array(sorted(w for w in words if w.isascii() and w.isalpha()))
    urls = fx.pages.column("url").to_pylist()
    htmls = fx.pages.column("html").to_pylist()
    inc_dir = os.path.join(out, "increments")
    os.makedirs(inc_dir)
    truth = []
    for k in range(n_inc):
        if k % 2 == 0:
            src = int(picks[k // 2])
            page = _page_table([f"https://mirror-{seed}.example/copy-{k:03d}"],
                               [_sibling_html(htmls[src], rng, vocab)],
                               1_767_225_600_000_000 + k)
            truth.append((page.column("url")[0].as_py(), urls[src]))
        else:
            page = _no_text(fresh.pages.slice(fresh_rows[k // 2 % len(fresh_rows)], 1))
            truth.append((page.column("url")[0].as_py(), None))
        _write(inc_dir, f"inc-{k:03d}.parquet", page)
    _write(out, "increment_truth.parquet", pa.table({
        "url": pa.array([u for u, _ in truth], pa.string()),
        "sibling_url": pa.array([s for _, s in truth], pa.string())}))


def generate(workload: str, seed: int, out: str) -> None:
    tmp = f"{out}.tmp-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    _write_inputs(tmp, workload, seed)
    with open(os.path.join(tmp, "INPUTS.json"), "w") as f:
        json.dump({"workload": workload, "seed": seed, "sizes": SIZES[workload]}, f)
    os.rename(tmp, out)


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(SIZES))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)
    sys.path.insert(0, ROOT)
    generate(args.workload, args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
