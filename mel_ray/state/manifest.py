"""Per-stage checkpointed Parquet outputs + lineage manifests.

Recast of the reference's idempotence contract — the shell loop's
"skip stage if its dir is non-empty"
(``src/scripts/train/all_langs_no_slurm.sh:47-110``) — made atomic and
verifiable: each stage writes to a temp dir that a rename publishes,
and the manifest, written last, is the commit point: it records the
input fingerprint, per-file (partition) row counts and any side counts
of the stage (the ``scored`` stage's band accounting).  A rerun with the same
input fingerprint reads the stage back from Parquet instead of
recomputing; a torn run (no manifest) is discarded and recomputed.

Writes and reads are plain whole-CPU Ray tasks over block refs, not
Ray Data executions: a stage is written as one Parquet file per block
with rows (:func:`start_commit`; a stage without rows keeps one
schema-only file, so it restores with its columns), and read back by P =
``shuffle_partitions()`` tasks over the shares of
``stages.ingest.split_input``, one block with one chunk per column each
(:func:`stage_blocks`).  Any file names are read, so a stage written by
Ray Data's ``write_parquet`` restores the same.

Partition-level resume: output files are the stage's partitions; the
manifest lists them individually so an external scheduler can verify /
re-ship any subset.  (SURVEY.md §3.3 "Ray recast of the lifecycle".)
"""

from __future__ import annotations

import json
import os
import shutil
import time
from pathlib import Path
from typing import Any, Callable

import pyarrow as pa
import pyarrow.parquet as pq

import ray.data

from ..stages import ingest as I
from ..util import dataset_of, shuffle_partitions


def _input_fingerprint(paths: list[str]) -> str:
    parts = []
    flat: list[str] = []
    for p in paths:
        # an input may itself be a shard LIST (run_linkage over explicit files)
        if isinstance(p, (list, tuple)):
            flat.extend(str(x) for x in p)
        else:
            flat.append(p)
    for p in flat:
        p = Path(p)
        if p.is_file():
            st = p.stat()
            parts.append(f"{p}:{st.st_size}")
        elif p.is_dir():
            for f in sorted(p.rglob("*.parquet")):
                st = f.stat()
                parts.append(f"{f}:{st.st_size}")
        else:
            parts.append(str(p))
    import hashlib

    return hashlib.sha256("|".join(parts).encode()).hexdigest()[:16]


# bump whenever a stage's on-disk format changes (binary encodings,
# column layout) so stale checkpoints from older code are rebuilt, not
# silently restored with the wrong decode.
# v3: partitioned stages write part-{pid} subdirectories + journal.jsonl.
# v5: pair stages hold only (id_a, id_b); their band counts live in the
#     stage manifest's "counts".
# v6: no pair stage; the scored stage's manifest holds the band counts.
FORMAT_VERSION = 6


def _write_block(path: str, t: pa.Table) -> int:
    """(worker task) one block -> one Parquet file at ``path``; a block
    without rows writes none.  -> its row count"""
    if t.num_rows:
        pq.write_table(t, path)
    return t.num_rows


def _write_blocks(out_dir: Path, blocks: list) -> Callable[[], list[dict]]:
    """Submit one whole-CPU write task per block ref into the new dir
    ``out_dir`` -> a call that waits for them and returns the partition
    entries (file, rows) of the files written.  Without any row it
    writes one schema-only file, from the first block."""
    out_dir.mkdir(parents=True)
    names = [f"part-{i:05d}.parquet" for i in range(len(blocks))]
    write = ray.remote(_write_block)
    rows = [write.remote(str(out_dir / n), b) for n, b in zip(names, blocks)]

    def wait() -> list[dict]:
        parts = [{"file": n, "rows": r, "done": True} for n, r in zip(names, ray.get(rows)) if r]
        if not parts and blocks:
            pq.write_table(ray.get(blocks[0]), out_dir / names[0])
            parts = [{"file": names[0], "rows": 0, "done": True}]
        return parts

    return wait


def start_commit(stage_dir: Path, ds: "ray.data.Dataset") -> Callable[..., dict]:
    """Submit the writes of ``ds`` as the stage at the new or emptied
    ``stage_dir`` -> ``finish(fingerprint, counts=None, meta=None,
    started=None)``, which waits for them and returns the manifest.
    Submitting every stage before finishing any writes them in one wave.

    The data lands in a temp dir, the rename publishes it, and the
    manifest, written last, is the commit point.  ``counts()`` is called
    after the writes, so it sees every task that built the data, and its
    dict is kept in the manifest; so are the keys of ``meta``.
    ``wall_sec`` is timed from ``started`` (default: this call)."""
    t0 = time.time()
    tmp = stage_dir / ".tmp-data"
    wait = _write_blocks(tmp, ds.to_arrow_refs())

    def finish(
        fingerprint: str,
        counts: Callable[[], dict] | None = None,
        meta: dict | None = None,
        started: float | None = None,
    ) -> dict:
        partitions = wait()
        os.rename(tmp, stage_dir / "data")
        manifest = {
            "stage": stage_dir.name,
            "input_fingerprint": fingerprint,
            "row_count": sum(p["rows"] for p in partitions),
            "partitions": partitions,
            "wall_sec": round(time.time() - (started or t0), 3),
            **(meta or {}),
        }
        if counts is not None:
            manifest["counts"] = counts()
        (stage_dir / "manifest.json").write_text(json.dumps(manifest, indent=1, sort_keys=True))
        return manifest

    return finish


def _read_share(pieces: list) -> pa.Table:
    """(worker task) one share of a stage's files -> one block."""
    return I.read_pieces(pieces, None, None)


def stage_blocks(data_dir: Path) -> list:
    """Submit the read of a committed stage's Parquet files -> P =
    ``shuffle_partitions()`` block refs, each one share of
    :func:`~mel_ray.stages.ingest.split_input` with one chunk per column
    (none for a stage without files)."""
    if not I.input_files(str(data_dir)):
        return []
    read = ray.remote(_read_share)
    return [read.remote(p) for p in I.split_input(str(data_dir), shuffle_partitions())]


class StageCheckpointer:
    """``through(name, builder)``: run-or-restore a stage dataset.
    Every manifest it writes also holds the keys of ``meta``."""

    def __init__(
        self,
        root: str | None,
        fingerprint_inputs: list[str] | None = None,
        config_token: str = "",
        meta: dict | None = None,
    ):
        self.root = Path(root) if root else None
        self.meta = meta or {}
        if root:
            base = _input_fingerprint(fingerprint_inputs or [])
            import hashlib

            self.fingerprint = hashlib.sha256(
                f"{base}|v{FORMAT_VERSION}|{config_token}".encode()
            ).hexdigest()[:16]
        else:
            self.fingerprint = ""
        self.stats: dict[str, Any] = {}
        self.counts: dict[str, dict] = {}

    def through(
        self,
        name: str,
        builder: Callable[[], "ray.data.Dataset"],
        counts: Callable[[], dict] | None = None,
    ) -> "ray.data.Dataset":
        """Run-or-restore a stage.  ``counts()``, read once the stage is
        built, is kept with it and lands in ``self.counts[name]`` on both
        build and restore.  A built stage's ``wall_sec`` covers the
        builder call and, with a checkpoint dir, the write."""
        t0 = time.time()
        if self.root is None:
            # No checkpoint dir: stage boundary = object-store materialization
            # (consumed by multiple downstream branches / iterative stages;
            # leaving it lazy would re-execute the whole upstream per branch).
            # With a checkpoint dir the committed Parquet is the boundary too.
            ds = builder().materialize()
            self.stats[name] = {
                "restored": False,
                "rows": ds.count(),
                "wall_sec": round(time.time() - t0, 3),
            }
            if counts is not None:
                self.counts[name] = counts()
            return ds
        stage_dir = self.root / name
        manifest_path = stage_dir / "manifest.json"
        manifest = json.loads(manifest_path.read_text()) if manifest_path.exists() else {}
        if manifest.get("input_fingerprint") == self.fingerprint:
            self.stats[name] = {"restored": True, "rows": manifest["row_count"]}
            ds = dataset_of(stage_blocks(stage_dir / "data"))
        else:
            # no checkpoint, a torn one, or a stale one for different input: rebuild
            shutil.rmtree(stage_dir, ignore_errors=True)
            ds = builder().materialize()
            manifest = start_commit(stage_dir, ds)(self.fingerprint, counts, self.meta, t0)
            self.stats[name] = {
                "restored": False,
                "rows": manifest["row_count"],
                "wall_sec": manifest["wall_sec"],
            }
        if counts is not None:
            self.counts[name] = manifest["counts"]
        return ds

    def through_partitioned(
        self,
        name: str,
        partition_tokens: list[Any],
        build_partition: Callable[[Any], list],
    ) -> "ray.data.Dataset":
        """Run-or-restore a stage built from independent partitions, with
        PER-PARTITION resume (SURVEY.md §3.3 "a partial stage resumes at
        its first missing partition"; the reference's per-shard
        idempotence, ``all_langs_no_slurm.sh:47-110`` + skip-if-nonempty
        ``savers/npz.py:38-70``).

        ``build_partition(token)`` submits a partition's build and
        returns its block refs; it must be deterministic per token (the
        flagship qualifies: record ids are content fingerprints, not
        sequence numbers).  Every missing partition is submitted, and
        its writes too, before the first one commits, so the partitions
        build side by side.  Each partition commits independently, in
        partition order — data written to a temp dir, renamed to
        ``part-{pid}``, then a journal line appended; the journal (not
        the final manifest) is the per-partition commit point.  A torn
        run keeps every journaled partition and recomputes only the
        missing remainder.  The stage is read back from its files.
        """
        if self.root is None:
            # no checkpoint dir: same semantics as a single fused stage
            return self.through(
                name,
                lambda: ray.data.from_arrow_refs(
                    [b for tok in partition_tokens for b in build_partition(tok)]
                ),
            )

        stage_dir = self.root / name
        data_dir = stage_dir / "data"
        manifest_path = stage_dir / "manifest.json"
        journal_path = stage_dir / "journal.jsonl"
        if manifest_path.exists():
            manifest = json.loads(manifest_path.read_text())
            if manifest.get("input_fingerprint") == self.fingerprint:
                self.stats[name] = {"restored": True, "rows": manifest["row_count"]}
                return dataset_of(stage_blocks(data_dir))
            shutil.rmtree(stage_dir, ignore_errors=True)

        # torn (or fresh) run: the journal lists committed partitions
        done: dict[int, dict] = {}
        if journal_path.exists():
            for line in journal_path.read_text().splitlines():
                if not line.strip():
                    continue
                rec = json.loads(line)
                if rec.get("fingerprint") != self.fingerprint:
                    # journal from a different input/config: discard all
                    shutil.rmtree(stage_dir, ignore_errors=True)
                    done = {}
                    break
                if (data_dir / rec["part"]).is_dir():
                    done[rec["pid"]] = rec
        data_dir.mkdir(parents=True, exist_ok=True)
        t0 = time.time()
        n_restored = len(done)
        writes = []
        for pid, token in enumerate(partition_tokens):
            if pid in done:
                continue  # committed by a previous (torn) run: skip
            part_tmp = data_dir / f".tmp-part-{pid:05d}"
            shutil.rmtree(part_tmp, ignore_errors=True)
            shutil.rmtree(data_dir / f"part-{pid:05d}", ignore_errors=True)
            writes.append((pid, part_tmp, _write_blocks(part_tmp, build_partition(token))))
        with open(journal_path, "a") as journal:
            for pid, part_tmp, wait in writes:
                rows = sum(p["rows"] for p in wait())
                part_name = f"part-{pid:05d}"
                os.rename(part_tmp, data_dir / part_name)
                rec = {
                    "pid": pid,
                    "part": part_name,
                    "rows": rows,
                    "fingerprint": self.fingerprint,
                }
                journal.write(json.dumps(rec, sort_keys=True) + "\n")
                journal.flush()
                os.fsync(journal.fileno())
                done[pid] = rec
        total = sum(done[pid]["rows"] for pid in range(len(partition_tokens)))
        manifest = {
            "stage": name,
            "input_fingerprint": self.fingerprint,
            "row_count": total,
            "partitions": [
                {"file": done[pid]["part"], "rows": done[pid]["rows"], "done": True}
                for pid in range(len(partition_tokens))
            ],
            "wall_sec": round(time.time() - t0, 3),
            **self.meta,
        }
        manifest_path.write_text(json.dumps(manifest, indent=1, sort_keys=True))
        self.stats[name] = {
            "restored": False,
            "rows": total,
            "wall_sec": manifest["wall_sec"],
            "partitions_restored": n_restored,
            "partitions_built": len(partition_tokens) - n_restored,
        }
        return dataset_of(stage_blocks(data_dir))
