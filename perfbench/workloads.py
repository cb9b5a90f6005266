"""The workloads: one closed-loop operation each, and its checks.

Every operation goes through a public entry point of the program —
``near_duplicates`` or ``dedupe_ray.cli.main`` — and is timed from input
path to complete result on disk. The checks read that result back after the
clock stops and compare it with the generated ground truth; the quality
scores are computed here, not by the program's own evaluation helpers.
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
import statistics
import time
from dataclasses import dataclass, field

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

PAIR_F1_FLOOR = 0.99
OP_TIMEOUT_S = 60.0


@dataclass
class OpResult:
    wall_s: float
    pages: int
    stored_bytes: int
    pair_f1: float
    match_f1: float
    errors: list[str] = field(default_factory=list)


def dir_stats(path: str) -> tuple[int, int]:
    """(regular files, bytes) under ``path``."""
    files = size = 0
    for base, _, names in os.walk(path):
        for n in names:
            files += 1
            size += os.path.getsize(os.path.join(base, n))
    return files, size


def f1(tp: int, n_pred: int, n_true: int) -> float:
    precision = tp / n_pred if n_pred else 1.0
    recall = tp / n_true if n_true else 1.0
    return 2 * precision * recall / (precision + recall) if precision + recall else 0.0


def dedup_checks(assign: pa.Table, truth: pa.Table, labeled: pa.Table,
                 n_pages: int) -> tuple[float, float, list[str]]:
    """(pair_f1, match_f1, errors) of one dedup result.

    pair_f1: "same cluster" predictions over the labeled pairs. match_f1: a
    page's verdict is "duplicate of its cluster's canonical"; it is right when
    that canonical lies in the page's planted cluster."""
    errors = []
    if assign.num_rows != n_pages:
        errors.append(f"{assign.num_rows} output rows for {n_pages} pages")
    canon = assign.group_by("cluster_id").aggregate([("is_canonical", "sum")])
    bad = pc.sum(pc.not_equal(canon.column("is_canonical_sum"), 1)).as_py() or 0
    if bad:
        errors.append(f"{bad} clusters without exactly one canonical")
    cluster = dict(zip(assign.column("url").to_pylist(), assign.column("cluster_id").to_pylist()))
    tp = fp = fn = 0
    for a, b, dup in zip(*(labeled.column(c).to_pylist() for c in ("url_a", "url_b", "is_dup"))):
        same = cluster.get(a) is not None and cluster.get(a) == cluster.get(b)
        tp += same and dup
        fp += same and not dup
        fn += dup and not same
    pair_f1 = f1(tp, tp + fp, tp + fn)
    if pair_f1 < PAIR_F1_FLOOR:
        errors.append(f"pair_f1 {pair_f1:.4f} < {PAIR_F1_FLOOR}")

    true_of = dict(zip(truth.column("url").to_pylist(), truth.column("true_cluster").to_pylist()))
    urls = assign.column("url").to_pylist()
    cids = assign.column("cluster_id").to_pylist()
    canon_url = {c: u for u, c, k in zip(urls, cids, assign.column("is_canonical").to_pylist()) if k}
    sizes = pc.value_counts(truth.column("true_cluster"))
    n_true = int(sum(c.as_py() - 1 for c in sizes.field("counts")))
    n_pred = tp_pages = 0
    for u, c in zip(urls, cids):
        cu = canon_url.get(c)
        if cu is not None and cu != u:
            n_pred += 1
            tp_pages += true_of.get(cu) == true_of.get(u)
    return pair_f1, f1(tp_pages, n_pred, n_true), errors


def _rows(path: str) -> int:
    return pq.ParquetFile(path).metadata.num_rows


def settle() -> None:
    """Flush dirty pages before a timed region. Without it the kernel writes
    back the previous operation's output while the next one runs, which
    doubled the run-to-run spread of the disk-writing workloads."""
    os.sync()


def cli(*argv: str) -> None:
    from dedupe_ray.cli import main

    with contextlib.redirect_stdout(io.StringIO()):  # the CLI prints its metrics
        code = main(list(argv))
    if code != 0:
        raise RuntimeError(f"cli {argv[0]} exited {code}")


class _DedupWorkload:
    """Shared by the two dedup workloads: one pages file in, one assignment
    table out."""

    def __init__(self, inputs: str, work: str):
        self.inputs = inputs
        self.work = work
        self.pages = os.path.join(inputs, "pages.parquet")
        self.n_pages = _rows(self.pages)
        self.truth = pq.read_table(os.path.join(inputs, "truth.parquet"))
        self.labeled = pq.read_table(os.path.join(inputs, "labeled_pairs.parquet"))
        self.out = os.path.join(work, "out")

    def _produce(self, pages: str, out: str) -> None:
        raise NotImplementedError

    def assignment(self) -> pa.Table:
        raise NotImplementedError

    def warm(self) -> None:
        """One operation on the full input, counted in set-up: after a warm-up
        on a smaller input the first timed operation of each session still
        paid 0.3-1.2 s of first execution."""
        out = os.path.join(self.work, "warm")
        shutil.rmtree(out, ignore_errors=True)
        self._produce(self.pages, out)

    def op(self, span=contextlib.nullcontext) -> OpResult:
        """One operation; ``span`` wraps exactly its timed region (the traced
        run passes a tracer span)."""
        shutil.rmtree(self.out, ignore_errors=True)
        settle()
        with span():
            t0 = time.perf_counter()
            self._produce(self.pages, self.out)
            wall = time.perf_counter() - t0
        return self.checked(self.assignment(), wall, dir_stats(self.out)[1])

    def checked(self, assign: pa.Table, wall_s: float, stored_bytes: int) -> OpResult:
        pair, match, errors = dedup_checks(assign, self.truth, self.labeled, self.n_pages)
        errors += self.extra_checks(assign)
        return OpResult(wall_s, self.n_pages, stored_bytes, pair, match, errors)

    def extra_checks(self, assign: pa.Table) -> list[str]:
        return []


class FreshCrawl(_DedupWorkload):
    """``near_duplicates`` in auto mode (the driver fast path at this size),
    result written as parquet."""

    def _produce(self, pages: str, out: str) -> None:
        from dedupe_ray.pipelines.neardup import near_duplicates
        from dedupe_ray.sources import read_pages

        near_duplicates(read_pages([pages])).write_parquet(out)

    def assignment(self) -> pa.Table:
        return pq.read_table(self.out, columns=["url", "cluster_id", "is_canonical"])


class CliHotbucket(_DedupWorkload):
    """``cli dedup``: the checkpointed runner, one committed stage each for
    signatures, edges, clusters and assignment."""

    def __init__(self, inputs: str, work: str):
        super().__init__(inputs, work)
        self.template_urls = [u for u in self.truth.column("url").to_pylist()
                              if u.startswith("https://tpl-")]
        # one-page increments for the traced index build and match
        inc_dir = os.path.join(inputs, "increments")
        self.increments = [os.path.join(inc_dir, f) for f in sorted(os.listdir(inc_dir))]
        t = pq.read_table(os.path.join(inputs, "increment_truth.parquet"))
        self.sibling = dict(zip(t.column("url").to_pylist(), t.column("sibling_url").to_pylist()))

    def _produce(self, pages: str, out: str) -> None:
        cli("dedup", "--input", pages, "--output", out)

    def assignment(self) -> pa.Table:
        return pq.read_table(os.path.join(self.out, "assignment"),
                             columns=["url", "cluster_id", "is_canonical"])

    def extra_checks(self, assign: pa.Table) -> list[str]:
        mask = pc.is_in(assign.column("url"), pa.array(self.template_urls))
        n = len(pc.unique(assign.column("cluster_id").filter(mask)))
        return [] if n == 1 else [f"template block split into {n} clusters"]


WORKLOADS = {
    "fresh_crawl": FreshCrawl,
    "cli_hotbucket": CliHotbucket,
}


def run_op(workload, span=contextlib.nullcontext) -> OpResult:
    """One operation; an exception or an overrun counts as a failure."""
    t0 = time.perf_counter()
    try:
        res = workload.op(span)
    except Exception as e:  # the loop must go on and count the failure
        import traceback

        traceback.print_exc()
        return OpResult(time.perf_counter() - t0, 0, 0, 0.0, 0.0, [f"raised {e!r}"])
    if res.wall_s > OP_TIMEOUT_S:
        res.errors.append(f"took {res.wall_s:.1f}s > {OP_TIMEOUT_S}s")
    return res


def median(xs: list[float]) -> float:
    return statistics.median(xs) if xs else 0.0

