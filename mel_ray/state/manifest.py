"""Per-stage checkpointed Parquet outputs + lineage manifests, over
block refs: a stage is a list of block refs, in and out
(``StageCheckpointer.through`` takes a build that returns refs and
returns the stage's refs, built or restored; :func:`start_commit` writes
refs).  No Dataset is made here.

Recast of the reference's idempotence contract — the shell loop's
"skip stage if its dir is non-empty"
(``src/scripts/train/all_langs_no_slurm.sh:47-110``) — made atomic and
verifiable.  A stage is made of parts: the features stage has one per
input share of ``stages.ingest.split_input``, every other stage one.
Each part is written to a temp dir that a rename publishes as
``data/part-{pid}``, and a journal line (``journal.jsonl``, fsynced)
commits it.  The manifest, written last, commits the stage: it records
the input fingerprint, per-part row counts and any side counts of the
stage (the ``scored`` stage's band accounting).  A rerun with the same
input fingerprint reads the stage back from Parquet instead of
recomputing it.

Partition-level resume (SURVEY.md §3.3 "Ray recast of the lifecycle"): a
torn run (no manifest) keeps the parts its journal lists under the same
fingerprint and the same part, so a partial stage resumes at its first
missing part, and a rerun under another share plan or input rebuilds
instead of mixing two.  The journal is then rewritten to hold only those
parts, so no stale record outlives its part dir.  The manifest lists the
parts individually so an external scheduler can verify / re-ship any
subset.

Writes and reads are whole-CPU plain tasks: a part is written as one
Parquet file per block with rows (a stage without rows keeps one
schema-only file, so it restores with its columns), and a stage is read
back by P = ``shuffle_partitions()`` tasks over the shares of
``stages.ingest.split_input``, one block with one chunk per column each
(:func:`stage_blocks`).  Any file names are read, so a stage written by
Ray Data's ``write_parquet`` restores the same.  Row counts come from
the manifest, the write tasks or, streamed, one count task.
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

import ray

from ..stages import ingest as I
from ..util import num_rows, shuffle_partitions


def _input_fingerprint(paths: list[str]) -> str:
    """Each input file's path, size and mtime (ns), hashed: an input
    rewritten in place, even at the same size, rebuilds its stages."""
    parts = []
    flat: list[str] = []
    for p in paths:
        # an input may itself be a shard LIST (run_linkage over explicit files)
        if isinstance(p, (list, tuple)):
            flat.extend(str(x) for x in p)
        else:
            flat.append(p)
    for p in map(Path, flat):
        if not p.exists():
            parts.append(str(p))
        for f in [p] if p.is_file() else sorted(p.rglob("*.parquet")):
            st = f.stat()
            parts.append(f"{f}:{st.st_size}:{st.st_mtime_ns}")
    import hashlib

    return hashlib.sha256("|".join(parts).encode()).hexdigest()[:16]


# bump whenever a stage's on-disk format changes (binary encodings,
# column layout) so stale checkpoints from older code are rebuilt, not
# silently restored with the wrong decode.
# v3: partitioned stages write part-{pid} subdirectories + journal.jsonl.
# v5: pair stages hold only (id_a, id_b); their band counts live in the
#     stage manifest's "counts".
# v6: no pair stage; the scored stage's manifest holds the band counts.
# v7: every checkpointed stage is journaled parts under data/part-{pid}/,
#     the features parts being the input shares of split_input (v6 split a
#     several-file input into up to 16 file groups and left one-file
#     inputs unjournaled); a journal record holds its part.
FORMAT_VERSION = 7


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


def start_commit(stage_dir: Path, blocks: list) -> Callable[..., dict]:
    """Submit the writes of the block refs ``blocks`` as the stage at the
    new or emptied ``stage_dir`` -> ``finish(fingerprint, meta=None)``,
    which waits for them and returns the manifest.  Submitting every
    stage before finishing any writes them in one wave.

    The data lands in a temp dir, the rename publishes it, and the
    manifest, written last, is the commit point; it also holds the keys
    of ``meta``.  ``wall_sec`` is timed from this call."""
    t0 = time.time()
    tmp = stage_dir / ".tmp-data"
    wait = _write_blocks(tmp, blocks)

    def finish(fingerprint: str, meta: dict | None = None) -> dict:
        partitions = wait()
        os.rename(tmp, stage_dir / "data")
        return _write_manifest(stage_dir, fingerprint, partitions, t0, meta=meta)

    return finish


def _write_manifest(
    stage_dir: Path,
    fingerprint: str,
    partitions: list[dict],
    started: float,
    meta: dict | None = None,
) -> dict:
    """Write the manifest that commits the stage at ``stage_dir`` -> it."""
    manifest = {
        "stage": stage_dir.name,
        "input_fingerprint": fingerprint,
        "row_count": sum(p["rows"] for p in partitions),
        "partitions": partitions,
        "wall_sec": round(time.time() - started, 3),
        **(meta or {}),
    }
    (stage_dir / "manifest.json").write_text(json.dumps(manifest, indent=1, sort_keys=True))
    return manifest


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
    """``through(name, build, parts)``: run-or-restore a stage made of
    parts.  Every manifest it writes also holds the keys of ``meta``."""

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
        build: Callable[[Any], list],
        parts: list = (None,),
        counts: Callable[[], dict] | None = None,
    ) -> list:
        """Run-or-restore the stage ``name`` made of ``parts``, with
        PER-PART resume (SURVEY.md §3.3 "a partial stage resumes at its
        first missing partition"; the reference's per-shard idempotence,
        ``all_langs_no_slurm.sh:47-110``) -> the stage's block refs.

        ``build(part)`` submits one part's build and returns its block
        refs.  It must be deterministic per part (record ids are content
        fingerprints, not sequence numbers).  Every missing part is
        submitted, and with a checkpoint dir its writes too, before the
        first one commits, so the parts build side by side.  Each part
        then commits in part order: written to a temp dir, renamed to
        ``part-{pid}``, and a journal line appended and fsynced.  A torn
        run keeps each journaled part whose record has this run's
        fingerprint and part, and rebuilds the rest; the manifest, written
        last, commits the stage, and a rerun under the same fingerprint
        restores it.  A build returns the blocks it built; only a stage
        restored in whole or in part is read from its files.

        ``counts()``, read once the stage's writes are done, is kept with
        it (journal and manifest) and lands in ``self.counts[name]`` on
        build and restore.  A stage with counts is one part, so the counts
        its record holds always cover the whole build.  A stage's
        ``wall_sec`` covers the build and, with a checkpoint dir, the
        write."""
        assert counts is None or len(parts) == 1, "a stage with counts is one part"
        t0 = time.time()
        stage_dir = self.root / name if self.root else None
        manifest_path = stage_dir / "manifest.json" if stage_dir else None
        if manifest_path and manifest_path.exists():
            manifest = json.loads(manifest_path.read_text())
            if manifest.get("input_fingerprint") == self.fingerprint:
                self.stats[name] = {"restored": True, "rows": manifest["row_count"]}
                self.counts[name] = manifest.get("counts")
                return stage_blocks(stage_dir / "data")
            shutil.rmtree(stage_dir)  # committed for another input or config
        done = self._journaled(stage_dir, parts) if stage_dir else {}
        built = {pid: build(p) for pid, p in enumerate(parts) if pid not in done}
        blocks = [b for refs in built.values() for b in refs]
        if stage_dir is None:
            # the count task waits for the blocks, so wall_sec covers the build
            self.stats[name] = {
                "restored": False,
                "rows": num_rows(blocks),
                "wall_sec": round(time.time() - t0, 3),
            }
            self.counts[name] = counts() if counts else None
            return blocks

        # the writes are submitted before anything waits on the blocks, so
        # each block is written as soon as it is built
        data_dir = stage_dir / "data"
        writes = {
            pid: _write_blocks(data_dir / f".tmp-part-{pid:05d}", refs) for pid, refs in built.items()
        }
        with open(stage_dir / "journal.jsonl", "a") as journal:
            for pid, wait in writes.items():
                rows = sum(p["rows"] for p in wait())
                os.rename(data_dir / f".tmp-part-{pid:05d}", data_dir / f"part-{pid:05d}")
                rec = {
                    "pid": pid,
                    "part": f"part-{pid:05d}",
                    "rows": rows,
                    "fingerprint": self.fingerprint,
                    "token": _token(parts[pid]),
                }
                if counts is not None:
                    rec["counts"] = counts()
                journal.write(json.dumps(rec, sort_keys=True) + "\n")
                journal.flush()
                os.fsync(journal.fileno())
                done[pid] = rec
        manifest = _write_manifest(
            stage_dir,
            self.fingerprint,
            [{"file": done[p]["part"], "rows": done[p]["rows"], "done": True} for p in range(len(parts))],
            t0,
            {**self.meta, "counts": done[0]["counts"]} if counts else self.meta,
        )
        self.stats[name] = {
            "restored": not built,
            "rows": manifest["row_count"],
            "wall_sec": manifest["wall_sec"],
            "partitions_restored": len(parts) - len(built),
            "partitions_built": len(built),
        }
        self.counts[name] = manifest.get("counts")
        return blocks if len(built) == len(parts) else stage_blocks(data_dir)

    def _journaled(self, stage_dir: Path, parts: list) -> dict[int, dict]:
        """The journal records of the parts of ``stage_dir`` that a torn
        run committed under this fingerprint and for the same part (the
        same input share: a different P rebuilds) -> {pid: record}.

        The journal is rewritten (fsynced) to hold only these records
        before any other entry of the data dir is deleted, so a record of
        another fingerprint or share plan never outlives its part: a later
        run that commits a part under the same name cannot be taken for
        it."""
        data_dir = stage_dir / "data"
        journal = stage_dir / "journal.jsonl"
        done: dict[int, dict] = {}
        for line in journal.read_text().splitlines() if journal.exists() else []:
            rec = json.loads(line)
            pid = rec["pid"]
            if (
                pid < len(parts)
                and rec["fingerprint"] == self.fingerprint
                and rec["token"] == _token(parts[pid])
                and (data_dir / rec["part"]).is_dir()
            ):
                done[pid] = rec
        data_dir.mkdir(parents=True, exist_ok=True)
        tmp = stage_dir / ".tmp-journal.jsonl"
        with open(tmp, "w") as f:
            f.writelines(json.dumps(done[pid], sort_keys=True) + "\n" for pid in sorted(done))
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, journal)
        keep = {rec["part"] for rec in done.values()}
        for entry in data_dir.iterdir():
            if entry.name not in keep:
                shutil.rmtree(entry) if entry.is_dir() else entry.unlink()
        return done


def _token(part: Any) -> Any:
    """A part as its journal records it (tuples become lists)."""
    return json.loads(json.dumps(part))
