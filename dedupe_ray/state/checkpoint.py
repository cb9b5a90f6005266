"""Per-stage checkpointing with lineage + metrics sidecars and resume.

The reference recomputes everything on every run (SURVEY.md §4.1 —
"Checkpoint / resume: none"). At 10^12 documents a restart must skip
finished work (north_rule: "resumable from checkpoint with per-partition
lineage + metrics"). Layout:

    <root>/<stage>/part-*.parquet     stage output (partitioned parquet,
                                      many files — never one giant file)
    <root>/<stage>/_LINEAGE.json      config hash, input fingerprint, row
                                      count, wall time, ray version —
                                      written AFTER the data (atomic-rename
                                      of the temp dir makes it the commit
                                      marker)

``stage(name, fn)`` runs ``fn`` → Dataset → write_parquet (or a small
driver-side ``pa.Table`` → one ``pq.write_table``), or skips when a
matching _LINEAGE.json (same config hash + same upstream fingerprint)
already exists. Writes go to ``<stage>.tmp-<pid>`` and are renamed into
place, so a crashed writer can never be mistaken for a finished stage.

Every read of a checkpoint goes through :func:`read_stage` (the columns its
consumer uses, in blocks sized from the footers) or, inside a Ray task that
takes a small stage whole, through :func:`stage_loader` (the same columns).
"""

from __future__ import annotations

import glob
import json
import logging
import os
import shutil
import time
from functools import partial
from typing import Callable

import pyarrow as pa
import pyarrow.parquet as pq

import ray
import ray.data

from dedupe_ray.sources.pages import _parquet_blocks, parquet_row_count

logger = logging.getLogger(__name__)

__all__ = ["CheckpointedRun", "read_stage", "stage_loader"]

_LINEAGE = "_LINEAGE.json"


def _stage_files(stage_dir: str) -> list[str]:
    return sorted(glob.glob(os.path.join(stage_dir, "**", "*.parquet"), recursive=True))


def _stage_columns(files: list[str], columns: list[str] | None) -> list[str] | None:
    """Those of ``columns`` the checkpoint has (from a footer schema — no
    execution); None (all columns) when None or when it has none of them."""
    if columns is None:
        return None
    have = set(pq.read_schema(files[0]).names) if files else set()
    return [c for c in columns if c in have] or None


def read_stage(stage_dir: str, columns: list[str] | None = None) -> "ray.data.Dataset":
    """THE read of a committed stage directory. ``columns``: only those of
    them the checkpoint has. Ray 2.49 does not push a later projection into
    the read, so a consumer names its columns here, and the block count
    comes from the footer row counts (``sources._parquet_blocks``) instead
    of Ray's default split."""
    columns = _stage_columns(_stage_files(stage_dir), columns)
    return ray.data.read_parquet(stage_dir, columns=columns,
                                 override_num_blocks=_parquet_blocks([stage_dir]))


def _read_files(files: list[str], columns: list[str] | None) -> list[pa.Table]:
    return [pq.read_table(f, columns=columns).replace_schema_metadata(None) for f in files]


def stage_loader(stage_dir: str, columns: list[str] | None = None) -> Callable[[], list[pa.Table]]:
    """The columns :func:`read_stage` reads, as a picklable loader that
    reads the stage's files with pyarrow where it is called — one table per
    file, schema metadata stripped. A Ray task that takes a small stage
    whole calls it: no Ray Data execution."""
    files = _stage_files(stage_dir)
    return partial(_read_files, files, _stage_columns(files, columns))


class CheckpointedRun:
    def __init__(self, root: str, config_hash: str, input_fingerprint: str = ""):
        self.root = root
        self.config_hash = config_hash
        self.input_fingerprint = input_fingerprint
        self.metrics: dict[str, dict] = {}
        os.makedirs(root, exist_ok=True)

    def _stage_dir(self, name: str) -> str:
        return os.path.join(self.root, name)

    def _lineage_path(self, name: str) -> str:
        return os.path.join(self._stage_dir(name), _LINEAGE)

    def _lineage(self, name: str) -> dict | None:
        """A stage's lineage sidecar, or None when absent or unreadable."""
        try:
            with open(self._lineage_path(name)) as f:
                return json.load(f)
        except (OSError, json.JSONDecodeError):
            return None

    def stage_rows(self, name: str) -> int | None:
        """Row count of a finished stage from its lineage sidecar, falling
        back to the checkpoint's parquet footers — metadata only, never
        executes a Dataset. Lets downstream sizing decisions (e.g.
        ``match_edges`` band bundling) avoid materializing the stage read."""
        rows = (self._lineage(name) or {}).get("rows")
        if isinstance(rows, int):
            return rows
        d = self._stage_dir(name)
        return parquet_row_count(d) if os.path.isdir(d) else None

    def completed(self, name: str, upstream: list[str]) -> bool:
        """A matching lineage, and no upstream stage recomputed in this run
        (the checkpoint was built from that stage's previous output)."""
        lin = self._lineage(name)
        return lin is not None and (
            lin.get("config_hash") == self.config_hash
            and lin.get("input_fingerprint") == self.input_fingerprint
            and lin.get("upstream") == upstream
            and all(u not in self.metrics or self.metrics[u].get("resumed") for u in upstream)
        )

    def stage(
        self,
        name: str,
        fn,
        upstream: list[str] | None = None,
        extra_metrics: dict | None = None,
        schema: pa.Schema | None = None,
    ) -> "Callable[..., ray.data.Dataset] | pa.Table":
        """Run (or resume) one stage.

        ``fn() -> Dataset``: the result is written to partitioned parquet,
        counted from the file footers, and returned as the checkpoint's
        reader ``columns=None -> Dataset`` (:meth:`read`), so downstream
        stages consume the checkpoint, not the live lineage, and build a
        read — of their columns only — when they run. A Dataset that
        yields no rows commits one empty file with the declared ``schema``
        (a lazy Dataset's own schema would cost a hidden ``limit(1)``
        execution), else an ``__empty__`` marker column.

        ``fn() -> pa.Table`` (a small driver-side stage output): written
        with one ``pq.write_table`` and returned as is — no Ray write, no
        re-read.

        ``extra_metrics`` is merged into the lineage after ``fn`` returns
        (``fn`` may fill it); on resume it is filled back from the recorded
        lineage, so a run's decisions (e.g. the path the edges stage took)
        are read, not recomputed. A resumed stage returns its reader."""
        upstream = upstream or []
        final = self._stage_dir(name)
        if self.completed(name, upstream):
            logger.info("stage %s: resume from checkpoint %s", name, final)
            self.metrics[name] = {"resumed": True}
            if extra_metrics is not None:
                extra_metrics.update(self._lineage(name) or {})
            return partial(self.read, name)
        tmp = f"{final}.tmp-{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        t0 = time.monotonic()
        out = fn()
        if isinstance(out, pa.Table):
            os.makedirs(tmp)
            pq.write_table(out, os.path.join(tmp, "part-00000.parquet"))
        else:
            out.write_parquet(tmp)
            # a zero-row dataset writes NO files — commit an explicit empty
            # parquet so the checkpoint stays readable
            os.makedirs(tmp, exist_ok=True)
            if not glob.glob(os.path.join(tmp, "*.parquet")):
                schema = schema or pa.schema([("__empty__", pa.int8())])
                pq.write_table(schema.empty_table(), os.path.join(tmp, "empty.parquet"))
        wall = time.monotonic() - t0
        # row counts from the parquet footers: no re-read of the stage
        n_rows = out.num_rows if isinstance(out, pa.Table) else parquet_row_count(tmp)
        lineage = {
            "stage": name,
            "config_hash": self.config_hash,
            "input_fingerprint": self.input_fingerprint,
            "upstream": upstream,
            "rows": n_rows,
            "wall_sec": round(wall, 3),
            "ray_version": ray.__version__,
            **(extra_metrics or {}),
        }
        with open(os.path.join(tmp, _LINEAGE), "w") as f:
            json.dump(lineage, f, indent=2)
        shutil.rmtree(final, ignore_errors=True)
        os.rename(tmp, final)
        self.metrics[name] = lineage
        logger.info("stage %s: %d rows in %.2fs → %s", name, n_rows, wall, final)
        return out if isinstance(out, pa.Table) else partial(self.read, name)

    def read(self, name: str, columns: list[str] | None = None) -> "ray.data.Dataset":
        """A finished stage's checkpoint through :func:`read_stage`."""
        return read_stage(self._stage_dir(name), columns)

    def loader(self, name: str, columns: list[str] | None = None) -> Callable[[], list[pa.Table]]:
        """A finished stage's checkpoint through :func:`stage_loader`."""
        return stage_loader(self._stage_dir(name), columns)

    def write_run_manifest(self) -> None:
        with open(os.path.join(self.root, "_RUN.json"), "w") as f:
            json.dump(
                {
                    "config_hash": self.config_hash,
                    "input_fingerprint": self.input_fingerprint,
                    "stages": self.metrics,
                },
                f,
                indent=2,
            )
