"""Seeded end-to-end benchmark of the dedupe_ray engine.

    python3 perfbench/run.py --workload fresh_crawl --seed 1 --seconds 20 --trace 0

One driver process owns a fixed 2-CPU Ray session and runs a closed loop
with one client: each operation starts when the previous one returns. A
timed run spreads its operations over ``SETUPS`` sessions in turn. The
inputs are generated from ``--seed`` in a separate process and cached under
``.perfbench/`` next to this directory. The last line of stdout is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` — the
end-to-end metrics with ``--trace 0``, the per-layer metrics of one traced
operation with ``--trace 1``. See ``README.md`` in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
STATE = os.path.join(ROOT, ".perfbench")
NUM_CPUS = 2
OBJECT_STORE_BYTES = 512 * 1024 * 1024
SETUPS = 3
HARD_LIMIT_S = 170
GENERATE_TIMEOUT_S = 120
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("pages_per_s", "pages/s"),
    ("pair_f1", "ratio"),
    ("match_f1", "ratio"),
    ("driver_peak_rss_mb", "MB"),
    ("stored_mb", "MB"),
]


class Deadline(BaseException):
    """Not an Exception, so the per-operation failure handler cannot swallow it."""


def _on_alarm(signum, frame):
    raise Deadline(f"run exceeded {HARD_LIMIT_S}s")


def ensure_inputs(workload: str, seed: int) -> str:
    """The cached input directory for (workload, seed, sizes), generated by
    ``corpus.py`` in its own process on a miss."""
    from corpus import cache_key

    out = os.path.join(STATE, "inputs", cache_key(workload, seed))
    if not os.path.isdir(out):
        os.makedirs(os.path.dirname(out), exist_ok=True)
        subprocess.run(
            [sys.executable, os.path.join(HERE, "corpus.py"), "--workload", workload,
             "--seed", str(seed), "--out", out],
            check=True, timeout=GENERATE_TIMEOUT_S, stdout=subprocess.DEVNULL,
        )
    return out


def _ray_temp_dir() -> str | None:
    """Ray's session directory inside the checkout when its socket paths fit
    the 107-byte AF_UNIX limit (session name and socket suffix take about 64
    bytes); otherwise Ray's default."""
    path = os.path.join(STATE, "ray")
    return path if len(path) <= 40 else None


def start_session() -> None:
    import ray
    from ray.data import DataContext

    pythonpath = os.pathsep.join(p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)
    kwargs = {}
    temp_dir = _ray_temp_dir()
    if temp_dir:
        kwargs["_temp_dir"] = temp_dir
    ray.init(
        address="local", num_cpus=NUM_CPUS, object_store_memory=OBJECT_STORE_BYTES,
        include_dashboard=False, logging_level="ERROR", log_to_driver=False,
        # workers import dedupe_ray from this checkout whatever their cwd
        runtime_env={"env_vars": {"PYTHONPATH": pythonpath}},
        **kwargs,
    )
    DataContext.get_current().enable_progress_bars = False


def stop_session() -> None:
    import ray

    if not ray.is_initialized():
        return
    session_dir = ray._private.worker._global_node.get_session_dir_path()
    ray.shutdown()
    if session_dir.startswith(STATE):
        shutil.rmtree(session_dir, ignore_errors=True)


def closed_loop(wl, seconds: float) -> list:
    """Operations back to back until ``seconds`` have passed (the last one
    runs to its end): the next one starts when the previous one returns."""
    from workloads import run_op

    ops = []
    t0 = time.perf_counter()
    while not ops or time.perf_counter() - t0 < seconds:
        ops.append(run_op(wl))
    return ops


def timed_run(wl, seconds: float) -> tuple[dict, list]:
    """``SETUPS`` sessions, each set up, timed for its share of ``seconds``
    and shut down; the operation medians pool all sessions, so one slow or
    fast session does not decide the run."""
    from workloads import median, settle

    setups, ops = [], []
    measured = 0.0
    for i in range(SETUPS):
        settle()
        t0 = time.perf_counter()
        start_session()
        wl.warm()
        setups.append(time.perf_counter() - t0)
        # a session that overran its share shortens the next one's
        t0 = time.perf_counter()
        ops += closed_loop(wl, seconds * (i + 1) / SETUPS - measured)
        measured += time.perf_counter() - t0
        stop_session()
    done = [o for o in ops if o.pages]
    print("operation walls (s): " + " ".join(f"{o.wall_s:.3f}" for o in ops), file=sys.stderr)
    wall = median([o.wall_s for o in done])
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "pages_per_s": median([o.pages for o in done]) / wall if wall else 0.0,
        "pair_f1": median([o.pair_f1 for o in done]),
        "match_f1": median([o.match_f1 for o in done]),
        "driver_peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "stored_mb": median([o.stored_bytes for o in done]) / 1e6,
    }
    return metrics, ops


def traced_run(name: str, wl, seed: int) -> tuple[dict, list]:
    from layers import Tracer, traced_metrics
    from workloads import run_op

    start_session()
    wl.warm()
    # the untraced baseline: the same call in the same session, just before
    ops = [run_op(wl)]
    tracer = Tracer(f"{name}-s{seed}")
    ops.append(run_op(wl, lambda: tracer.span("op")))
    metrics, errors = traced_metrics(name, wl, ops[0].wall_s, tracer)
    ops[-1].errors += errors
    os.makedirs(os.path.join(STATE, "traces"), exist_ok=True)
    tracer.write(os.path.join(STATE, "traces", f"{name}-s{seed}.json"))
    return metrics, ops


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=["fresh_crawl", "cli_hotbucket"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "dedupe_ray", "__init__.py")):
        print(f"error: no dedupe_ray package under {ROOT}", file=sys.stderr)
        return 2
    sys.path[:0] = [HERE, ROOT]
    # one thread per process in the driver, the workers and the input
    # generator, whatever the host's core count: Arrow's and BLAS's pools
    # otherwise size themselves to every core the machine reports
    for var in THREAD_VARS:
        os.environ[var] = "1"
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(HARD_LIMIT_S)

    inputs = ensure_inputs(args.workload, args.seed)
    from workloads import WORKLOADS

    import dedupe_ray.cli  # noqa: F401  driver-side imports stay out of setup_s
    import dedupe_ray.pipelines.incremental  # noqa: F401

    work = os.path.join(STATE, "work", f"{args.workload}-{os.getpid()}")
    os.makedirs(work)
    try:
        wl = WORKLOADS[args.workload](inputs, work)
        if args.trace:
            from layers import PER_LAYER

            metrics, ops = traced_run(args.workload, wl, args.seed)
            units = dict(PER_LAYER)
        else:
            metrics, ops = timed_run(wl, args.seconds)
            units = dict(END_TO_END)
    finally:
        stop_session()
        shutil.rmtree(work, ignore_errors=True)
        signal.alarm(0)
    failed = [o for o in ops if o.errors]
    for o in failed:
        print("failed operation: " + "; ".join(o.errors), file=sys.stderr)
    print(json.dumps({
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
