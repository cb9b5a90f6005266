"""Checks of the benchmark itself (not part of the program's test suite).

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pyarrow as pa
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, ROOT]

import corpus  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def test_salting_counters_pin_planted_bucket():
    # 600 members at cap 256 keep chunks of 256, 256 and 88 members:
    # C(600,2) - 2*C(256,2) - C(88,2) = 179700 - 65280 - 3828
    assert layers.salting_counters(np.array([600, 3, 1]), 256) == (600, 1, 110_592)
    assert layers.salting_counters(np.array([256, 2]), 256) == (256, 0, 0)


def test_dropped_pairs_match_what_emission_keeps():
    from dedupe_ray.config import MinHashConfig
    from dedupe_ray.stages.banding import minhash_band_table
    from dedupe_ray.stages.candidates import _emit_pairs_block

    cfg = MinHashConfig()
    rng = np.random.default_rng(0)
    n = 600
    sigs = rng.integers(0, 2**32, size=(n, cfg.num_perms), dtype=np.uint64).astype(np.uint32)
    sigs[:, : cfg.rows] = 7  # every page shares band 0: one 600-member bucket
    batch = pa.table({
        "doc_id": pa.array(np.arange(n) * 3 + 11, pa.int64()),
        "minhash": pa.FixedSizeListArray.from_arrays(pa.array(sigs.reshape(-1)), cfg.num_perms),
    })
    banded = minhash_band_table(batch, cfg)
    sizes = layers.bucket_sizes(banded)
    largest, salted, dropped = layers.salting_counters(sizes, 256)
    assert (largest, salted, dropped) == (600, 1, 110_592)
    emitted = _emit_pairs_block(banded, 256).num_rows
    assert emitted == n * (n - 1) // 2 - dropped


def test_inputs_follow_the_seed(tmp_path, monkeypatch):
    import pyarrow.parquet as pq

    monkeypatch.setitem(corpus.SIZES, "cli_hotbucket",
                        {"pages": 300, "template": 50, "increments": 4})
    a, b, c = (str(tmp_path / x) for x in "abc")
    corpus.generate("cli_hotbucket", 3, a)
    corpus.generate("cli_hotbucket", 3, b)
    corpus.generate("cli_hotbucket", 4, c)
    for rel in ("pages.parquet", "truth.parquet", "labeled_pairs.parquet",
                "increment_truth.parquet", "increments/inc-000.parquet"):
        assert pq.read_table(os.path.join(a, rel)).equals(pq.read_table(os.path.join(b, rel)))
    assert not pq.read_table(os.path.join(a, "pages.parquet")).equals(
        pq.read_table(os.path.join(c, "pages.parquet")))
    truth = pq.read_table(os.path.join(a, "increment_truth.parquet"))
    assert truth.column("sibling_url").null_count == truth.num_rows // 2


def test_dedup_checks_score_and_reject():
    truth = pa.table({"url": ["a", "b", "c", "d"], "true_cluster": [1, 1, 2, 3]})
    labeled = pa.table({"url_a": ["a", "a"], "url_b": ["b", "c"], "is_dup": [True, False]})
    good = pa.table({"url": ["a", "b", "c", "d"], "cluster_id": [1, 1, 3, 4],
                     "is_canonical": [True, False, True, True]})
    assert workloads.dedup_checks(good, truth, labeled, 4) == (1.0, 1.0, [])

    split = pa.table({"url": ["a", "b", "c", "d"], "cluster_id": [1, 2, 3, 4],
                      "is_canonical": [True, True, True, True]})
    pair_f1, match_f1, errors = workloads.dedup_checks(split, truth, labeled, 4)
    assert pair_f1 == 0.0 and match_f1 == 0.0 and errors

    two_canon = good.set_column(2, "is_canonical", pa.array([True, True, True, True]))
    assert any("canonical" in e for e in workloads.dedup_checks(two_canon, truth, labeled, 4)[2])
    assert any("output rows" in e for e in workloads.dedup_checks(good, truth, labeled, 5)[2])


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        doc = json.load(f)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == layers.PER_LAYER
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fresh_crawl", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert p.returncode != 0
    assert p.stdout == ""


@pytest.mark.skipif(os.environ.get("PERFBENCH_SLOW") != "1",
                    reason="starts Ray sessions; set PERFBENCH_SLOW=1")
def test_runs_from_another_directory(tmp_path):
    """Workers import dedupe_ray through the session's runtime_env, not
    through the driver's working directory."""
    p = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "fresh_crawl",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert p.returncode == 0, p.stderr[-2000:]
    result = json.loads(p.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {n for n, _ in run.END_TO_END}


def test_closed_loop_runs_back_to_back_until_its_share_is_spent():
    class Sleeper:
        def op(self, span):
            import time

            time.sleep(0.02)
            return workloads.OpResult(0.02, 1, 0, 1.0, 1.0)

    assert len(run.closed_loop(Sleeper(), 0.0)) == 1  # at least one operation
    ops = run.closed_loop(Sleeper(), 0.1)
    assert 2 <= len(ops) <= 6 and not any(o.errors for o in ops)
