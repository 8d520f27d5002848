"""One benchmark run in one process: set up, measure, check, report.

``perfbench/run.py`` starts this module in a child process under a time
limit; see that file for the command line.  The run

1. loads or generates the workload's inputs (before Ray starts);
2. starts Ray with ``NUM_CPUS`` CPUs;
3. sets up ``SETUP_REPS`` times (stages the Parquet input the program reads
   and, for ``delta_link``, commits the base checkpoint) and reports the
   median as ``setup_s``;
4. runs one untimed warm-up iteration;
5. repeats the workload's iteration until ``--seconds`` have passed and
   at least ``MIN_SAMPLES`` iterations ran, with tracing off, or alternating untraced and traced iterations with
   ``--trace 1``;
6. checks every iteration's output and writes the result JSON.

Each iteration calls only mel_ray's public functions.  Traced iterations
call the pipeline stage by stage and materialize after each call, so that
a span around each call times one layer from outside the program.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import checks, kernels, workloads  # noqa: E402
from perfbench.procstat import RayProcs  # noqa: E402
from perfbench.tracing import Tracer  # noqa: E402

NUM_CPUS = 4
SETUP_REPS = 3
# An untraced run goes on past --seconds until it has this many samples,
# so that its median never rests on one or two iterations.
MIN_SAMPLES = 3
OBJECT_STORE_BYTES = 1_000_000_000

END_TO_END = {
    "link_wall_s": "s",
    "records_per_s": "records/s",
    "scored_pairs_per_s": "pairs/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# layer -> metric -> unit.  Layers are named after the mel_ray calls they
# time; a layer a workload does not run reports 0.
LAYERS = {
    "ingest": {"wall_s": "s", "cpu_s": "s", "rows_out": "count", "bytes_out": "bytes"},
    "featurize": {
        "wall_s": "s", "cpu_s": "s", "util": "ratio", "bytes_out": "bytes",
        "distinct_shingle_ratio": "ratio",
    },
    "candidates": {
        "wall_s": "s", "cpu_s": "s", "util": "ratio", "band_rows": "count",
        "max_band_run": "count", "pairs_out": "count", "pairs_per_record": "ratio",
        "salted_bands": "count", "dropped_bands": "count", "capped_groups": "count",
    },
    "scoring": {
        "wall_s": "s", "cpu_s": "s", "util": "ratio", "pairs_scored": "count",
        "accept_ratio": "ratio",
    },
    "components": {"wall_s": "s", "edges_in": "count", "rows_out": "count"},
    "assign": {"wall_s": "s", "rows_out": "count", "clusters": "count", "max_cluster_size": "count"},
    "restore": {"wall_s": "s", "cpu_s": "s", "util": "ratio", "bytes_read": "bytes"},
    "incremental": {"wall_s": "s", "cpu_s": "s", "util": "ratio", "delta_rows": "count"},
    "commit": {"wall_s": "s", "cpu_s": "s", "util": "ratio", "bytes_written": "bytes"},
    "kernel": {
        "line_shingles_s": "s", "minhash_signature_s": "s", "minhash_mb_per_s": "MB/s",
        "embed_strings_s": "s", "sha256_s": "s", "band_keys_s": "s",
        "estimate_jaccard_s": "s", "jaro_winkler_s": "s", "levenshtein_ratio_s": "s",
        "local_union_find_s": "s",
    },
    "trace": {"overhead_s": "s", "coverage": "ratio"},
    # Linkage quality: deterministic for a seed, reported but not bounded.
    "quality": {
        "pair_f1": "ratio", "pair_precision": "ratio", "pair_recall": "ratio",
        "exact_mismatch_records": "count",
    },
}
PER_LAYER = {f"{layer}.{m}": u for layer, ms in LAYERS.items() for m, u in ms.items()}


def host_stamp() -> dict:
    import ray

    return {
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "ray_num_cpus": NUM_CPUS,
        "omp_num_threads": os.environ.get("OMP_NUM_THREADS"),
        "python": sys.version.split()[0],
        "ray": ray.__version__,
        "pyarrow": pa.__version__,
        "numpy": np.__version__,
    }


def du(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def to_table(ds, columns: list[str]) -> pa.Table:
    import ray

    tables = ray.get(ds.select_columns(columns).to_arrow_refs())
    return pa.concat_tables(tables) if tables else pa.table({c: [] for c in columns})


@dataclasses.dataclass
class Outcome:
    """What one iteration produced, for the checks and the metrics."""

    clusters: pa.Table
    scored: pa.Table
    wall_s: float
    cpu_s: float


class Workload:
    """Set-up and one iteration of a from-scratch ``run_linkage`` workload,
    against mel_ray's public API."""

    def __init__(self, inputs: workloads.Inputs, work: Path, procs: RayProcs, tracer: Tracer):
        self.inputs = inputs
        self.work = work
        self.procs = procs
        self.tracer = tracer
        self.truth = checks.Truth.of(inputs.corpus)
        self.labeled = pq.read_table(inputs.labeled_pairs, columns=["id_a", "id_b", "is_match"])
        self.iteration = 0
        self.bands: tuple[int, int] | None = None  # (band rows, longest band run)

    def _stage(self, src: Path, dst: Path) -> None:
        """Write a cached corpus into a fresh input directory."""
        shutil.rmtree(dst, ignore_errors=True)
        workloads.write_shards(pq.read_table(src), dst)

    def setup(self, rep: int) -> float:
        t0 = time.perf_counter()
        self.input = self.work / f"input-{rep}"
        self._stage(self.inputs.corpus, self.input)
        if workloads.content_digest(self.input) != self.inputs.digest:
            raise workloads.StaleCache(f"staged input {self.input} differs from the cache")
        return time.perf_counter() - t0

    def finish_setup(self) -> None:
        """Drop all staged copies but the last; the loop links that one."""
        for d in self.work.glob("input-*"):
            if d != self.input:
                shutil.rmtree(d)

    def warm_up(self) -> list[str]:
        """One untimed, checked iteration: starts Ray's workers and their
        imports.  -> problems found in its output."""
        return self.check(self.run(traced=False))

    def run(self, traced: bool) -> Outcome:
        self.iteration += 1
        c0, t0 = self.procs.cpu_s(), time.perf_counter()
        clusters_ds, scored_ds = (self._traced if traced else self._untraced)()
        wall = time.perf_counter() - t0
        cpu = self.procs.cpu_s() - c0
        return Outcome(
            to_table(clusters_ds, ["record_id", "cluster_id", "repo", "path", "sha256"]),
            to_table(scored_ds, ["id_a", "id_b", "accepted"]),
            wall,
            cpu,
        )

    def _untraced(self):
        from mel_ray.pipelines.linkage import run_linkage

        res = run_linkage(str(self.input))
        clusters = res.clusters.materialize()
        clusters.count()
        return clusters, res.scored_pairs

    def _traced(self):
        """The streaming plan of ``run_linkage``, one public stage call per span."""
        import ray
        import ray.data

        from mel_ray.config import LinkageConfig
        from mel_ray.stages import blocking as B
        from mel_ray.stages import clustering as C
        from mel_ray.stages import ingest as I
        from mel_ray.stages import scoring as S
        from mel_ray.state.accounting import new_stats_sink
        from mel_ray.util import auto_join_partitions, shuffle_partitions

        cfg = LinkageConfig()
        ray.data.DataContext.get_current().use_push_based_shuffle = True
        join_parts = auto_join_partitions(cfg.join_partitions)
        tid = f"{self.inputs.workload}-{self.inputs.seed}-{self.iteration}"
        span = self.tracer.span
        with span(tid, "link"):
            with span(tid, "ingest") as s:
                records = I.ingest(
                    I.read_corpus(str(self.input), override_num_blocks=shuffle_partitions())
                ).materialize()
                s.counts = {"rows_out": records.count(), "bytes_out": records.size_bytes()}
            with span(tid, "featurize") as s:
                features = records.map_batches(
                    lambda b: B.featurize_batch(
                        b, cfg.blocking, cfg.scoring.embed_dim, cfg.scoring.embed_kgram
                    ),
                    batch_format="pyarrow",
                    batch_size=kernels.FEATURIZE_BATCH,
                    zero_copy_batch=True,
                ).materialize()
                s.counts = {"bytes_out": features.size_bytes()}
            with span(tid, "candidates") as s:
                sink = new_stats_sink()
                pairs = B.candidate_pairs(
                    features, cfg.blocking, stats_sink=sink, coalesce=False
                ).materialize()
                s.counts = {"pairs_out": pairs.count(), **ray.get(sink.totals.remote("blocking"))}
            with span(tid, "scoring") as s:
                scored = S.score_pairs_auto(
                    pairs, features, cfg.scoring, cfg.blocking, join_parts, fan_out=False
                ).materialize()
                s.counts = {"pairs_scored": scored.count()}
            with span(tid, "components") as s:
                edges = scored.map_batches(
                    lambda t: t.filter(pa.compute.equal(t["accepted"], True))
                    .select(["id_a", "id_b"])
                    .rename_columns(["u", "v"]),
                    batch_format="pyarrow",
                )
                comp = C.connected_components(edges, cfg.clustering).materialize()
                s.counts = {"rows_out": comp.count()}
            with span(tid, "assign") as s:
                slim = features.map_batches(
                    lambda t: t.select(["record_id", "repo", "path", "sha256"]),
                    batch_format="pyarrow",
                )
                clusters = C.assign_clusters(
                    slim,
                    comp,
                    join_parts,
                    broadcast_limit_rows=cfg.clustering.assign_broadcast_limit_rows,
                ).materialize()
                s.counts = {"rows_out": clusters.count()}
        if self.bands is None:
            self.bands = band_runs(features, cfg.blocking.num_bands)
        return clusters, scored

    def layer_metrics(self, out: Outcome) -> dict[str, float]:
        """Per-layer metrics of the last traced iteration."""
        root = self.tracer.spans[-1]
        while root.parent is not None:
            root = self.tracer.spans[root.parent]
        m: dict[str, float] = {}
        for s in self.tracer.children(root):
            m[f"{s.name}.wall_s"] = s.wall_s
            m[f"{s.name}.cpu_s"] = s.cpu_s
            m[f"{s.name}.util"] = s.cpu_s / (s.wall_s * NUM_CPUS)
            for k, v in s.counts.items():
                m[f"{s.name}.{k}"] = v
        accepted = int(out.scored["accepted"].to_numpy(zero_copy_only=False).sum())
        _, sizes = np.unique(out.clusters["cluster_id"].to_numpy(), return_counts=True)
        if "candidates.wall_s" in m:
            band_rows, max_run = self.bands
            m["candidates.band_rows"] = band_rows
            m["candidates.max_band_run"] = max_run
            m["candidates.pairs_per_record"] = m["candidates.pairs_out"] / self.truth.rows
            m["scoring.accept_ratio"] = accepted / max(m["candidates.pairs_out"], 1)
            m["components.edges_in"] = accepted
            m["assign.clusters"] = len(sizes)
            m["assign.max_cluster_size"] = int(sizes.max())
        m["trace.coverage"] = self.tracer.coverage(root)
        m["trace.total_s"] = root.wall_s
        return m

    def comparisons(self) -> dict[str, float]:
        """Extra figures for the report of a traced run, taken after the
        timed loop."""
        return {}

    def quality(self, out: Outcome) -> dict[str, float]:
        q = checks.pair_quality(
            self.labeled,
            out.clusters["record_id"].to_numpy(),
            out.clusters["cluster_id"].to_numpy(),
        )
        return q

    def check(self, out: Outcome) -> list[str]:
        problems = checks.check_clusters(out.clusters, self.truth)
        problems += checks.check_pairs(
            out.scored["id_a"].to_numpy(),
            out.scored["id_b"].to_numpy(),
            out.clusters["record_id"].to_numpy(),
        )
        return problems


def band_runs(features, num_bands: int) -> tuple[int, int]:
    """(band rows, longest run of equal band keys) of the feature table."""
    from mel_ray.functions.minhash import band_keys, empty_signature_mask
    from mel_ray.stages.blocking import binary_matrix

    sig = binary_matrix(to_table(features, ["sig"])["sig"], np.uint32)
    sig = sig[~empty_signature_mask(sig)]
    _, band_hash = band_keys(sig.astype(np.uint64), num_bands)
    _, counts = np.unique(band_hash, return_counts=True)
    return len(band_hash), int(counts.max()) if len(counts) else 0


class DeltaLink(Workload):
    """The daily-ingest loop: restore a base checkpoint, link a delta
    incrementally, count the clusters and commit the result to a fresh
    checkpoint directory (never over the base)."""

    # from-scratch cluster table over base ∪ delta, built by ``comparisons``
    reference: pa.Table | None = None

    def setup(self, rep: int) -> float:
        """Stage base and delta, then commit the base checkpoint the way the
        daily loop commits: link from scratch and save the result."""
        from mel_ray.pipelines.linkage import run_linkage, save_result_checkpoint

        t0 = time.perf_counter()
        self.base_in = self.work / f"base-{rep}"
        self.input = self.work / f"delta-{rep}"
        self._stage(self.inputs.base, self.base_in)
        self._stage(self.inputs.delta, self.input)
        staged = workloads.content_digest(self.base_in, self.input)
        if staged != self.inputs.digest:
            raise workloads.StaleCache("staged base and delta differ from the cache")
        self.base_ckpt = self.work / f"ckpt-{rep}"
        shutil.rmtree(self.base_ckpt, ignore_errors=True)
        res = run_linkage(str(self.base_in))
        clusters = res.clusters.materialize()
        save_result_checkpoint(dataclasses.replace(res, clusters=clusters), str(self.base_ckpt))
        return time.perf_counter() - t0

    def finish_setup(self) -> None:
        keep = {self.base_in, self.input, self.base_ckpt}
        for d in self.work.iterdir():
            if d not in keep:
                shutil.rmtree(d)

    def _commit_dir(self) -> Path:
        out = self.work / f"commit-{self.iteration}"
        shutil.rmtree(out, ignore_errors=True)
        return out

    def _untraced(self):
        from mel_ray.pipelines import linkage as L

        base = L.load_result_from_checkpoint(str(self.base_ckpt))
        res = L.run_linkage_incremental(base, str(self.input))
        clusters = res.clusters.materialize()
        clusters.count()
        out = self._commit_dir()
        L.save_result_checkpoint(dataclasses.replace(res, clusters=clusters), str(out))
        return clusters, res.scored_pairs

    def _traced(self):
        from mel_ray.pipelines import linkage as L

        tid = f"{self.inputs.workload}-{self.inputs.seed}-{self.iteration}"
        span = self.tracer.span
        with span(tid, "link"):
            with span(tid, "restore") as s:
                base = L.load_result_from_checkpoint(str(self.base_ckpt))
                base = dataclasses.replace(
                    base,
                    clusters=base.clusters.materialize(),
                    features=base.features.materialize(),
                )
                s.counts = {
                    "bytes_read": du(self.base_ckpt / "features" / "data")
                    + du(self.base_ckpt / "clusters" / "data")
                }
            with span(tid, "incremental") as s:
                res = L.run_linkage_incremental(base, str(self.input))
                clusters = res.clusters.materialize()
                clusters.count()
                s.counts = {"delta_rows": res.stats["new_rows"]}
            with span(tid, "commit") as s:
                out = self._commit_dir()
                L.save_result_checkpoint(dataclasses.replace(res, clusters=clusters), str(out))
                s.counts = {"bytes_written": du(out)}
        return clusters, res.scored_pairs

    def run(self, traced: bool) -> Outcome:
        out = super().run(traced)
        shutil.rmtree(self.work / f"commit-{self.iteration}")
        return out

    def quality(self, out: Outcome) -> dict[str, float]:
        q = super().quality(out)
        if self.reference is not None:
            q["exact_mismatch_records"] = checks.mismatched_records(out.clusters, self.reference)
        return q

    def comparisons(self) -> dict[str, float]:
        """Time a warm from-scratch ``run_linkage`` over base ∪ delta, to
        compare with the incremental iteration, and keep its cluster table
        as the reference for ``exact_mismatch_records``."""
        from mel_ray.pipelines.linkage import run_linkage

        t0 = time.perf_counter()
        clusters = run_linkage(str(self.inputs.corpus)).clusters.materialize()
        clusters.count()
        wall = time.perf_counter() - t0
        table = to_table(clusters, ["record_id", "cluster_id", "repo", "path", "sha256"])
        problems = checks.check_clusters(table, self.truth)
        if problems:
            raise RuntimeError(f"from-scratch reference is wrong: {problems}")
        self.reference = table.select(["record_id", "cluster_id"])
        return {"from_scratch_wall_s": wall}


# full_link and vendored_dups differ only in their inputs
WORKLOAD_CLASSES = {"full_link": Workload, "vendored_dups": Workload, "delta_link": DeltaLink}


def start_ray(temp: Path) -> None:
    import ray
    import ray.data

    # Workers inherit PYTHONPATH from this process's environment, so they
    # import mel_ray and perfbench whatever the caller's working directory.
    paths = [str(ROOT)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    os.environ["PYTHONPATH"] = os.pathsep.join(dict.fromkeys(paths))
    # Ray's unix socket paths must stay under 108 bytes and the session
    # directory and socket name add up to 64 characters, so a deeper state
    # directory falls back to Ray's default temp dir.
    kwargs = {"_temp_dir": str(temp)} if len(str(temp)) <= 43 else {}
    ray.init(
        address="local",
        num_cpus=NUM_CPUS,
        object_store_memory=OBJECT_STORE_BYTES,
        include_dashboard=False,
        logging_level="ERROR",
        **kwargs,
    )
    ctx = ray.data.DataContext.get_current()
    ctx.enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)


@dataclasses.dataclass
class Measured:
    """Scalars of the timed loop.  Output tables are dropped after their
    checks, except the last untraced one: a table fetched from Ray pins its
    object-store memory, and pinning every iteration's output fills the
    store and slows later iterations."""

    walls: list[float] = dataclasses.field(default_factory=list)
    cpus: list[float] = dataclasses.field(default_factory=list)
    pair_rates: list[float] = dataclasses.field(default_factory=list)
    layer_rows: list[dict] = dataclasses.field(default_factory=list)
    last: Outcome | None = None
    attempted: int = 0
    failed: int = 0
    problems: list[str] = dataclasses.field(default_factory=list)


def measure(wl: Workload, seconds: float, trace: bool) -> Measured:
    """Iterate until ``seconds`` have passed, checking every output."""
    m = Measured()
    deadline = time.perf_counter() + seconds
    while True:
        for traced in (False, True) if trace else (False,):
            m.attempted += 1
            try:
                out = wl.run(traced)
            except Exception:
                m.failed += 1
                m.problems.append(traceback.format_exc(limit=3))
                continue
            bad = wl.check(out)
            if bad:
                m.failed += 1
                m.problems += bad
            if traced:
                m.layer_rows.append(wl.layer_metrics(out))
            else:
                m.walls.append(out.wall_s)
                m.cpus.append(out.cpu_s)
                m.pair_rates.append(len(out.scored) / out.wall_s)
                m.last = out
        if time.perf_counter() >= deadline and (trace or m.attempted >= MIN_SAMPLES):
            return m


def layer_medians(layer_rows: list[dict], link_wall: float, corpus: Path) -> dict[str, float]:
    layers = {name: statistics.median([r.get(name, 0) for r in layer_rows]) for name in PER_LAYER}
    layers["trace.overhead_s"] = statistics.median([r["trace.total_s"] for r in layer_rows]) - link_wall
    km = kernels.kernel_metrics(corpus)
    layers["featurize.distinct_shingle_ratio"] = km.pop("distinct_shingle_ratio")
    layers.update({f"kernel.{k}": v for k, v in km.items()})
    return layers


def run(args, state: Path = ROOT) -> dict:
    """One run; caches, scratch files and results live under ``state``."""
    import ray

    work = state / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    report: dict = {"workload": args.workload, "seed": args.seed, "trace": args.trace}

    # wall time of each phase of the run, for the report
    phases: dict[str, float] = {}
    last_mark = [time.perf_counter()]

    def mark(name: str) -> None:
        now = time.perf_counter()
        phases[name] = now - last_mark[0]
        last_mark[0] = now

    inputs, hit = workloads.load_or_generate(args.workload, args.seed, state / ".bench_cache")
    report["inputs"] = {"rows": inputs.rows, "cache_hit": hit}
    report["host"] = host_stamp()
    mark("inputs")
    start_ray(state / ".bench_ray")
    try:
        mark("ray_start")
        with RayProcs() as procs:
            tracer = Tracer(procs.cpu_s)
            wl = WORKLOAD_CLASSES[args.workload](inputs, work, procs, tracer)
            mark("truth")
            setup_walls = [wl.setup(i) for i in range(SETUP_REPS)]
            wl.finish_setup()
            mark("setup")
            warm_problems = wl.warm_up()
            mark("warmup")
            procs.reset_peak()
            m = measure(wl, args.seconds, args.trace)
            problems = warm_problems + m.problems
            peak_rss_mb = procs.peak_rss_mb
            mark("measure")
        if m.last is None or (args.trace and not m.layer_rows):
            raise RuntimeError("no iteration succeeded:\n" + "\n".join(problems))

        link_wall = statistics.median(m.walls)
        if args.trace:
            report["comparisons"] = wl.comparisons()
        quality = wl.quality(m.last)
        e2e = {
            "link_wall_s": link_wall,
            "records_per_s": inputs.rows / link_wall,
            "scored_pairs_per_s": statistics.median(m.pair_rates),
            "cpu_s": statistics.median(m.cpus),
            "peak_rss_mb": peak_rss_mb,
            "setup_s": statistics.median(setup_walls),
        }
        report.update(
            samples=len(m.walls),
            link_walls_s=m.walls,
            scored_pairs=len(m.last.scored),
            setup_walls_s=setup_walls,
            end_to_end=e2e,
            quality=quality,
        )
        if args.workload == "full_link" and quality["pair_f1"] < 0.99:
            problems.append(f"full_link pair_f1 {quality['pair_f1']:.4f} < 0.99")

        if args.trace:
            layers = layer_medians(m.layer_rows, link_wall, inputs.corpus)
            layers.update({f"quality.{k}": v for k, v in quality.items()})
            metrics = {k: {"value": float(layers[k]), "unit": u} for k, u in PER_LAYER.items()}
            tracer.write(state / ".bench_out" / f"spans-{args.workload}-{args.seed}.json")
        else:
            metrics = {k: {"value": float(e2e[k]), "unit": u} for k, u in END_TO_END.items()}
        mark("report")
    finally:
        ray.shutdown()
        shutil.rmtree(work, ignore_errors=True)
        shutil.rmtree(state / ".bench_ray", ignore_errors=True)
    mark("ray_stop")

    report["phases_s"] = phases
    report["problems"] = problems
    return {
        "correct": not problems,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": metrics,
        "report": report,
    }


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path, required=True, help="where to write the result JSON")
    return p.parse_args(argv)


if __name__ == "__main__":
    a = parse_args()
    result = run(a)
    a.out.write_text(json.dumps(result))
