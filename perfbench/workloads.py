"""Seeded inputs for the three linkage workloads, cached on disk.

Every input is a pure function of (workload, size, seed) and of the
mel_ray sources the generators call (``mel_ray.synth`` makes the corpus
and its labels; ``record_fingerprint`` gives the vendored copies their
ids): the same seed gives byte-identical Parquet.  Generation runs in one
process, before Ray starts, and the program only ever sees the Parquet
written here.

Cache entries live under
``<cache_root>/<workload>-n<size>-s<seed>-v<version>-m<source digest>/``,
so a checkout with other mel_ray sources never reuses an entry, and are
written into a temporary directory that is renamed into place, so a
half-written entry is never visible.  Each entry's manifest holds the
sha256 over the sorted per-row content sha256s; loading an entry
recomputes it and raises :class:`StaleCache` on a mismatch.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

WORKLOADS = ("full_link", "vendored_dups", "delta_link")

# Rows linked per iteration.  Sized so that one iteration takes a few
# seconds on 4 CPUs and a whole run, set-up included, stays well inside
# the per-run time limit.
FULL_ROWS = 20_000
VENDORED_BASE_ROWS = 8_000
VENDORED_ENTITIES = 40
VENDORED_COPIES = (60, 160)  # copies per vendored entity, spread evenly over this range
DELTA_ROWS = 8_000
DELTA_SHARE = 0.05

# Bumped whenever the generators change, so old cache entries are not reused.
GENERATOR_VERSION = 2


class StaleCache(RuntimeError):
    """A cache entry whose content no longer matches its manifest."""


@dataclass(frozen=True)
class Inputs:
    workload: str
    seed: int
    root: Path            # the cache entry
    rows: int             # records in the linked cluster table
    digest: str           # sha256 over the sorted per-row content sha256s

    @property
    def corpus(self) -> Path:
        """All records (for delta_link: base ∪ delta, the reference input)."""
        return self.root / "files"

    @property
    def base(self) -> Path:
        return self.root / "base"

    @property
    def delta(self) -> Path:
        return self.root / "delta"

    @property
    def labeled_pairs(self) -> Path:
        return self.root / "labeled_pairs.parquet"


def size_of(workload: str) -> int:
    return {
        "full_link": FULL_ROWS,
        "vendored_dups": VENDORED_BASE_ROWS,
        "delta_link": DELTA_ROWS,
    }[workload]


def source_digest() -> str:
    """sha256 over the path and bytes of every mel_ray source file."""
    import mel_ray

    pkg = Path(mel_ray.__file__).parent
    h = hashlib.sha256()
    for f in sorted(pkg.rglob("*.py")):
        h.update(str(f.relative_to(pkg)).encode() + b"\0" + f.read_bytes() + b"\0")
    return h.hexdigest()


def content_digest(*corpora: Path) -> str:
    """sha256 over the sorted per-row sha256 of ``content`` (a multiset hash)."""
    rows = sorted(
        hashlib.sha256(c.encode()).hexdigest()
        for corpus in corpora
        for c in pq.read_table(corpus, columns=["content"])["content"].to_pylist()
    )
    return hashlib.sha256("".join(rows).encode()).hexdigest()


def load_or_generate(workload: str, seed: int, cache_root: Path) -> tuple[Inputs, bool]:
    """-> (inputs, cache hit).  Raises :class:`StaleCache` on a bad entry."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    n = size_of(workload)
    entry = cache_root / f"{workload}-n{n}-s{seed}-v{GENERATOR_VERSION}-m{source_digest()[:12]}"
    hit = (entry / "manifest.json").exists()
    if not hit:
        tmp = cache_root / f".{entry.name}.tmp-{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        tmp.mkdir(parents=True)
        _GENERATORS[workload](tmp, n, seed)
        manifest = {
            "workload": workload,
            "rows": pq.ParquetDataset(tmp / "files").read(columns=["repo"]).num_rows,
            "seed": seed,
            "digest": content_digest(tmp / "files"),
        }
        (tmp / "manifest.json").write_text(json.dumps(manifest, indent=1))
        try:
            os.rename(tmp, entry)
        except OSError:  # another run committed the same entry first
            shutil.rmtree(tmp, ignore_errors=True)
    manifest = json.loads((entry / "manifest.json").read_text())
    digest = content_digest(entry / "files")
    if digest != manifest["digest"]:
        raise StaleCache(
            f"cache entry {entry} holds content {digest[:12]}, manifest says "
            f"{manifest['digest'][:12]}; delete it and rerun"
        )
    return Inputs(workload, seed, entry, manifest["rows"], digest), hit


def write_shards(table: pa.Table, out: Path) -> None:
    """The same sharding as ``mel_ray.synth``: one read task per file."""
    out.mkdir(parents=True)
    n = len(table)
    n_shards = max(4, min(64, n // 8192 + 1))
    per = (n + n_shards - 1) // n_shards
    for s in range(n_shards):
        part = table.slice(s * per, per)
        if len(part):
            pq.write_table(part, out / f"part-{s:05d}.parquet", row_group_size=8192)


def _synth(tmp: Path, n: int, seed: int) -> tuple[pa.Table, pa.Table, pa.Table]:
    """(files, labels, labeled_pairs) of ``mel_ray.synth.generate_corpus``."""
    from mel_ray.synth import generate_corpus

    out = generate_corpus(tmp / "synth", n, seed=seed)
    files = pq.read_table(out / "files")
    labels = pq.read_table(out / "labels.parquet")
    pairs = pq.read_table(out / "labeled_pairs.parquet")
    shutil.rmtree(out)
    return files, labels, pairs


def _gen_full_link(tmp: Path, n: int, seed: int) -> None:
    files, _, pairs = _synth(tmp, n, seed)
    write_shards(files, tmp / "files")
    pq.write_table(pairs, tmp / "labeled_pairs.parquet")


def _gen_vendored_dups(tmp: Path, n: int, seed: int) -> None:
    """A generated corpus plus exact copies of some entities vendored into
    many repos.  Each copy has a fresh commit and so a new record_id; the
    copies and their source record form one labeled entity, and every pair
    among them shares all band keys."""
    from mel_ray.stages.ingest import record_fingerprint

    files, labels, pairs = _synth(tmp, n, seed)
    rng = np.random.RandomState(seed + 1)
    ent = labels["entity_id"].to_numpy()
    _, first_row = np.unique(ent, return_index=True)
    sources = np.sort(rng.choice(first_row, size=VENDORED_ENTITIES, replace=False))
    # A fixed ladder of copy counts, so that every seed has the same number
    # of rows and the same mix of groups above and below salt_limit.
    copies = rng.permutation(np.linspace(*VENDORED_COPIES, len(sources)).round().astype(int))
    src_rows = np.repeat(sources, copies)
    vend = files.take(pa.array(src_rows))
    copy_idx = np.concatenate([np.arange(c) for c in copies])
    project = [r.split("/", 1)[1] for r in vend["repo"].to_pylist()]
    hexd = np.array(list("0123456789abcdef"))
    commit = ["".join(hexd[rng.randint(0, 16, 40)]) for _ in range(len(vend))]
    vend = vend.set_column(
        vend.schema.get_field_index("repo"),
        "repo",
        pa.array([f"vendor{j:04d}/{p}" for j, p in zip(copy_idx, project)], pa.string()),
    ).set_column(vend.schema.get_field_index("commit"), "commit", pa.array(commit, pa.string()))

    src_ids = labels["record_id"].to_numpy()[sources]
    copy_ids = record_fingerprint(vend["repo"], vend["path"], vend["commit"])
    a_parts, b_parts, start = [], [], 0
    for sid, c in zip(src_ids, copies):
        members = np.concatenate([[sid], copy_ids[start : start + c]])
        start += c
        iu, ju = np.triu_indices(len(members), k=1)
        a_parts.append(np.minimum(members[iu], members[ju]))
        b_parts.append(np.maximum(members[iu], members[ju]))
    a, b = np.concatenate(a_parts), np.concatenate(b_parts)
    vend_pairs = pa.table(
        {
            "id_a": pa.array(a),
            "id_b": pa.array(b),
            "is_match": pa.array(np.ones(len(a), dtype=bool)),
            "block_key": pa.array(["vendored"] * len(a), pa.string()),
        }
    )
    allf = pa.concat_tables([files, vend])
    allf = allf.take(pa.array(rng.permutation(len(allf))))
    write_shards(allf, tmp / "files")
    pq.write_table(pa.concat_tables([pairs, vend_pairs]), tmp / "labeled_pairs.parquet")


def _gen_delta_link(tmp: Path, n: int, seed: int) -> None:
    """A permuted corpus split into a base and a delta of DELTA_SHARE rows."""
    files, _, pairs = _synth(tmp, n, seed)
    rng = np.random.RandomState(seed + 2)
    files = files.take(pa.array(rng.permutation(n)))
    n_delta = int(round(n * DELTA_SHARE))
    write_shards(files, tmp / "files")
    write_shards(files.slice(0, n - n_delta), tmp / "base")
    write_shards(files.slice(n - n_delta), tmp / "delta")
    pq.write_table(pairs, tmp / "labeled_pairs.parquet")


_GENERATORS = {
    "full_link": _gen_full_link,
    "vendored_dups": _gen_vendored_dups,
    "delta_link": _gen_delta_link,
}
