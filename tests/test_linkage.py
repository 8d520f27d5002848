"""End-to-end flagship pipeline tests: the F1 >= 0.99 gate
(BASELINE.json metric) plus conservation invariants (SURVEY.md §5)."""

from __future__ import annotations

import collections

import numpy as np

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from mel_ray.config import LinkageConfig


@pytest.mark.usefixtures("ray_session")
class TestLinkagePipeline:
    @pytest.fixture(scope="class")
    def result(self, tiny_corpus):
        from mel_ray.pipelines.linkage import run_linkage

        res = run_linkage(str(tiny_corpus / "files"))
        return tiny_corpus, res

    def test_f1_gate(self, result):
        import ray.data

        from mel_ray.stages.evaluate import linkage_f1

        corpus, res = result
        lp = ray.data.read_parquet(str(corpus / "labeled_pairs.parquet"))
        metrics = linkage_f1(lp, res.clusters)
        assert metrics["f1"].iloc[0] >= 0.99, metrics.to_string()

    def test_clusters_partition_all_records(self, result):
        corpus, res = result
        rows = res.clusters.take_all()
        n_input = pq.read_table(corpus / "files", columns=["lang"]).num_rows
        assert len(rows) == n_input
        # cluster_id = min(record_id) of the component -> cluster_id <= record_id
        for r in rows:
            assert r["cluster_id"] <= r["record_id"]

    def test_sha256_multiset_preserved(self, result):
        import hashlib

        corpus, res = result
        files = pq.read_table(corpus / "files")
        want = collections.Counter(
            hashlib.sha256(c.as_py().encode()).hexdigest() for c in files["content"]
        )
        got = collections.Counter(r["sha256"] for r in res.clusters.take_all())
        assert got == want

    def test_exact_duplicates_share_cluster(self, result):
        corpus, res = result
        rows = res.clusters.take_all()
        by_sha = collections.defaultdict(set)
        for r in rows:
            by_sha[r["sha256"]].add(r["cluster_id"])
        for sha, cids in by_sha.items():
            assert len(cids) == 1, f"identical content split across clusters: {sha}"

    def test_candidate_pairs_sound(self, result, tiny_corpus):
        """Every accepted pair has high true Jaccard (no hallucinated pairs)."""
        import numpy as np

        from mel_ray.functions.minhash import exact_jaccard
        from mel_ray.functions.shingles import line_shingles

        corpus, res = result
        files = pq.read_table(corpus / "files")
        labels = pq.read_table(corpus / "labels.parquet").to_pandas()
        row_of = {rid: i for i, rid in enumerate(labels.record_id)}
        v, off = line_shingles(files["content"].combine_chunks())
        accepted = [r for r in res.scored_pairs.take_all() if r["accepted"]]
        assert len(accepted) > 100
        for r in accepted[:500]:
            j = exact_jaccard(v, off, row_of[r["id_a"]], row_of[r["id_b"]])
            assert j > 0.35, (r, j)


@pytest.mark.usefixtures("ray_session")
def test_blocking_quality_matches_naive():
    import pyarrow.parquet as pq

    from mel_ray.corpusops import blocking_quality, linkage_scored_pairs
    from mel_ray.synth import ensure_corpus

    sf = "/root/testdata/sf0.001"
    got = blocking_quality(sf).iloc[0]
    corpus = ensure_corpus(sf)
    lp = pq.read_table(str(corpus / "labeled_pairs.parquet")).to_pandas()
    pos = lp[lp.is_match]
    pos_keys = set(zip(np.minimum(pos.id_a, pos.id_b), np.maximum(pos.id_a, pos.id_b)))
    cand = linkage_scored_pairs(sf).to_pandas()
    cand_keys = set(zip(cand.id_a, cand.id_b))
    n = got["n_records"]
    assert got["n_candidates"] == len(cand_keys)
    assert got["n_labeled_matches"] == len(pos_keys)
    assert got["matches_covered"] == len(pos_keys & cand_keys)
    assert got["reduction_ratio"] == round(1 - len(cand_keys) / (n * (n - 1) / 2), 6)
    assert got["pair_completeness"] == round(len(pos_keys & cand_keys) / len(pos_keys), 6)
    # the flagship's blocking must be both sharp and complete
    assert got["reduction_ratio"] > 0.99
    assert got["pair_completeness"] >= 0.99


@pytest.mark.usefixtures("ray_session")
def test_fs_weights_matches_naive():
    import pyarrow.parquet as pq

    from mel_ray.corpusops import fs_weights, linkage_scored_pairs
    from mel_ray.synth import ensure_corpus

    sf = "/root/testdata/sf0.001"
    got = fs_weights(sf).set_index("feature")
    corpus = ensure_corpus(sf)
    lp = pq.read_table(str(corpus / "labeled_pairs.parquet")).to_pandas()
    lp["id_a"], lp["id_b"] = (
        np.minimum(lp.id_a, lp.id_b),
        np.maximum(lp.id_a, lp.id_b),
    )
    cand = linkage_scored_pairs(sf).to_pandas()
    j = lp.merge(cand, on=["id_a", "id_b"], how="inner")
    n_m = max(int(j.is_match.sum()), 1)
    n_u = max(int((~j.is_match).sum()), 1)
    for name, thr in (("est_jaccard", 0.7), ("cosine", 0.5), ("path_jw", 0.9)):
        agree = j[name] >= thr
        m = round(int((agree & j.is_match).sum()) / n_m, 6)
        u = round(int((agree & ~j.is_match).sum()) / n_u, 6)
        assert got.loc[name, "m"] == pytest.approx(m, abs=2e-6)
        assert got.loc[name, "u"] == pytest.approx(u, abs=2e-6)
    # a discriminative feature separates matches from non-matches
    assert got.loc["est_jaccard", "m"] > got.loc["est_jaccard", "u"]


def _scored_and_clusters(res):
    """A result's scored pairs (all columns, sorted) and cluster table."""
    pairs = res.scored_pairs.to_pandas().sort_values(["id_a", "id_b"]).reset_index(drop=True)
    clusters = {r["record_id"]: r["cluster_id"] for r in res.clusters.take_all()}
    return pairs, clusters


def _assert_same_scored(want, got):
    assert list(want.columns) == list(got.columns)
    assert len(want.columns) == 9
    assert len(want) == len(got)
    for col in want.columns:
        wv, gv = want[col].to_numpy(), got[col].to_numpy()
        assert (wv == gv).all(), f"column {col} diverges between plans"


@pytest.mark.usefixtures("ray_session")
def test_partitioned_scoring_path_matches_broadcast(tiny_corpus, tmp_path):
    """The declared 100-TB path (verify -> attach -> PairScorer cascade,
    partitioned Dataset.joins; plus the partitioned left-outer cluster
    assign) must produce EXACTLY the broadcast fast path's results — the
    oracle-vs-optimized discipline of the reference's
    SimplifiedBruteForceSearcher (models/searchers/
    simplified_brute_force_searcher.py:1-20).  Two plans, each run with
    and without a checkpoint dir: band-major (id-range tasks score their
    own pairs) and partitioned: broadcast_limit_rows=0 forces every
    selector to the partitioned branch, and blocking from band-major to
    bucketed; each run records its choices, and no run commits a pair
    stage.  Then the same for an incremental delta, whose pairs pass the
    delta-touch filter."""
    from dataclasses import replace
    from pathlib import Path

    from mel_ray.pipelines.linkage import run_linkage, run_linkage_incremental

    base = LinkageConfig()
    forced = LinkageConfig(
        scoring=replace(base.scoring, broadcast_limit_rows=0),
        clustering=replace(base.clustering, assign_broadcast_limit_rows=0),
    )
    checkpointed = LinkageConfig(checkpoint_dir=str(tmp_path / "ck"))
    partitioned_ck = replace(forced, checkpoint_dir=str(tmp_path / "ck_partitioned"))
    runs = {
        name: run_linkage(str(tiny_corpus / "files"), cfg)
        for name, cfg in [
            ("streaming", base),
            ("checkpointed", checkpointed),
            ("partitioned", forced),
            ("partitioned_checkpointed", partitioned_ck),
        ]
    }
    broadcast_plan = {"blocking": "band_major", "scoring": "broadcast"}
    partitioned_plan = {"blocking": "bucketed", "scoring": "partitioned"}
    assert runs["streaming"].stats["plan"] == runs["checkpointed"].stats["plan"] == broadcast_plan
    assert runs["partitioned"].stats["plan"] == partitioned_plan
    assert runs["partitioned_checkpointed"].stats["plan"] == partitioned_plan
    assert not any("pairs" in res.stats for res in runs.values())
    for name in ("checkpointed", "partitioned_checkpointed"):
        assert not runs[name].stats["scored"]["restored"], name
    want_pairs, want_clusters = _scored_and_clusters(runs["streaming"])
    assert len(want_pairs) > 100
    for name in ("checkpointed", "partitioned", "partitioned_checkpointed"):
        assert runs[name].stats["blocking_bands"] == runs["streaming"].stats["blocking_bands"]
        pairs, clusters = _scored_and_clusters(runs[name])
        _assert_same_scored(want_pairs, pairs)
        assert clusters == want_clusters, name

    files = sorted(str(f) for f in (Path(tiny_corpus) / "files").rglob("*.parquet"))
    inc = {}
    for name, cfg in [("streaming", base), ("partitioned", forced)]:
        res = run_linkage_incremental(run_linkage(files[:-1], cfg), files[-1:], cfg)
        assert res.stats["plan"]["blocking"] == ("band_major" if cfg is base else "bucketed")
        inc[name] = _scored_and_clusters(res)
    assert len(inc["streaming"][0]) > 0
    _assert_same_scored(inc["streaming"][0], inc["partitioned"][0])
    assert inc["streaming"][1] == inc["partitioned"][1]
    assert set(inc["streaming"][1]) == set(want_clusters)


@pytest.mark.usefixtures("ray_session")
def test_partitioned_plan_links_empty_delta(tiny_corpus, tmp_path):
    """The partitioned plan with no candidate pair at all (a zero-row
    delta): the joins are skipped and the base clusters come back."""
    from dataclasses import replace
    from pathlib import Path

    from mel_ray.pipelines.linkage import run_linkage, run_linkage_incremental

    files = sorted(str(f) for f in (Path(tiny_corpus) / "files").rglob("*.parquet"))
    empty = tmp_path / "empty.parquet"
    pq.write_table(pq.read_table(files[-1]).slice(0, 0), empty)
    cfg = LinkageConfig(scoring=replace(LinkageConfig().scoring, broadcast_limit_rows=0))

    base = run_linkage(files[:-1], cfg)
    inc = run_linkage_incremental(base, [str(empty)], cfg)
    assert inc.stats["plan"]["scoring"] == "partitioned"
    assert inc.scored_pairs.count() == 0
    assert inc.scored_pairs.schema().names == base.scored_pairs.schema().names
    cols = ["record_id", "cluster_id"]
    want = base.clusters.to_pandas()[cols].sort_values("record_id").reset_index(drop=True)
    got = inc.clusters.to_pandas()[cols].sort_values("record_id").reset_index(drop=True)
    assert len(want) > 0 and got.equals(want)


@pytest.mark.usefixtures("ray_session")
def test_incremental_linkage_equals_full_run(tiny_corpus):
    """Daily-ingest contract: linking a delta batch against a base
    result (run_linkage_incremental) produces a cluster table IDENTICAL
    to a from-scratch run over base ∪ delta — same pair decisions (the
    band/salt/cap semantics see the same run lengths) and same labels
    (base connectivity enters as label edges; min-id labeling is
    closure-invariant)."""
    from pathlib import Path

    from mel_ray.pipelines.linkage import run_linkage, run_linkage_incremental

    files = sorted(str(f) for f in (Path(tiny_corpus) / "files").rglob("*.parquet"))
    assert len(files) >= 2, "need at least two shards to split base/delta"
    base_files, delta_files = files[:-1], files[-1:]

    full = run_linkage(str(tiny_corpus / "files"))
    base = run_linkage(base_files)
    inc = run_linkage_incremental(base, delta_files)

    want = (
        full.clusters.to_pandas()[["record_id", "cluster_id"]]
        .sort_values("record_id")
        .reset_index(drop=True)
    )
    got = (
        inc.clusters.to_pandas()[["record_id", "cluster_id"]]
        .sort_values("record_id")
        .reset_index(drop=True)
    )
    assert len(got) == len(want)
    assert (got.record_id.to_numpy() == want.record_id.to_numpy()).all()
    assert (got.cluster_id.to_numpy() == want.cluster_id.to_numpy()).all()
    assert inc.stats["exact"] is True  # no band salted, dropped or capped

    # the incremental scored set touches the delta only: every scored
    # pair has at least one member absent from the base feature table
    base_ids = set(
        base.features.to_pandas()["record_id"].to_numpy().tolist()
    )
    sp = inc.scored_pairs.to_pandas()
    assert len(sp) > 0
    touches_delta = (~sp.id_a.isin(base_ids)) | (~sp.id_b.isin(base_ids))
    assert touches_delta.all()


@pytest.mark.usefixtures("ray_session")
def test_incremental_from_checkpoint_equals_full_run(tiny_corpus, tmp_path):
    """Restart story: the base result is rehydrated from a CHECKPOINTED
    run's stage parquet (load_result_from_checkpoint) and the delta is
    merged incrementally — output identical to a from-scratch run over
    base ∪ delta (the run_linkage_job --delta path)."""
    from pathlib import Path

    from mel_ray.config import LinkageConfig
    from mel_ray.pipelines.linkage import (
        load_result_from_checkpoint,
        run_linkage,
        run_linkage_incremental,
    )

    files = sorted(str(f) for f in (Path(tiny_corpus) / "files").rglob("*.parquet"))
    base_files, delta_files = files[:-1], files[-1:]

    # checkpointed base run, then restore purely from disk
    run_linkage(base_files, LinkageConfig(checkpoint_dir=str(tmp_path / "ck")))
    base = load_result_from_checkpoint(str(tmp_path / "ck"))
    assert base.features is not None and base.clusters is not None

    inc = run_linkage_incremental(base, delta_files)
    full = run_linkage(str(tiny_corpus / "files"))

    want = (
        full.clusters.to_pandas()[["record_id", "cluster_id"]]
        .sort_values("record_id")
        .reset_index(drop=True)
    )
    got = (
        inc.clusters.to_pandas()[["record_id", "cluster_id"]]
        .sort_values("record_id")
        .reset_index(drop=True)
    )
    assert len(got) == len(want)
    assert (got.record_id.to_numpy() == want.record_id.to_numpy()).all()
    assert (got.cluster_id.to_numpy() == want.cluster_id.to_numpy()).all()


@pytest.mark.usefixtures("ray_session")
def test_incremental_chain_two_deltas_equals_full_run(tiny_corpus, tmp_path):
    """Daily-ingest chaining: base ⊕ delta₁ is committed back to disk
    (save_result_checkpoint), delta₂ links against the restored merge —
    the final clusters equal a from-scratch run over ALL shards (the
    merge is associative because each step preserves the exact-equality
    contract)."""
    from pathlib import Path

    from mel_ray.pipelines.linkage import (
        load_result_from_checkpoint,
        run_linkage,
        run_linkage_incremental,
        save_result_checkpoint,
    )

    files = sorted(str(f) for f in (Path(tiny_corpus) / "files").rglob("*.parquet"))
    assert len(files) >= 3, "need three shards for a two-delta chain"
    base_files, d1, d2 = files[:-2], files[-2:-1], files[-1:]

    base = run_linkage(base_files)
    step1 = run_linkage_incremental(base, d1)
    written = save_result_checkpoint(step1, str(tmp_path / "merged"))
    assert written["features"] == written["clusters"] > 0
    restored = load_result_from_checkpoint(str(tmp_path / "merged"))
    step2 = run_linkage_incremental(restored, d2)

    full = run_linkage(str(tiny_corpus / "files"))
    want = (
        full.clusters.to_pandas()[["record_id", "cluster_id"]]
        .sort_values("record_id")
        .reset_index(drop=True)
    )
    got = (
        step2.clusters.to_pandas()[["record_id", "cluster_id"]]
        .sort_values("record_id")
        .reset_index(drop=True)
    )
    assert len(got) == len(want)
    assert (got.record_id.to_numpy() == want.record_id.to_numpy()).all()
    assert (got.cluster_id.to_numpy() == want.cluster_id.to_numpy()).all()


@pytest.mark.usefixtures("ray_session")
def test_incremental_empty_delta_returns_base_clusters(tiny_corpus, tmp_path):
    """A zero-row delta links to nothing: the result is the base's
    cluster table, unchanged."""
    from pathlib import Path

    from mel_ray.pipelines.linkage import (
        load_result_from_checkpoint,
        run_linkage,
        run_linkage_incremental,
        save_result_checkpoint,
    )

    files = sorted(str(f) for f in (Path(tiny_corpus) / "files").rglob("*.parquet"))
    empty = tmp_path / "empty.parquet"
    pq.write_table(pq.read_table(files[-1]).slice(0, 0), empty)

    base = run_linkage(files[:-1])
    inc = run_linkage_incremental(base, [str(empty)])

    cols = ["record_id", "cluster_id", "repo", "path", "sha256"]
    want = base.clusters.to_pandas()[cols].sort_values("record_id").reset_index(drop=True)
    got = inc.clusters.to_pandas()[cols].sort_values("record_id").reset_index(drop=True)
    assert len(want) > 0
    assert got.equals(want)
    assert inc.stats["new_rows"] == 0
    assert inc.scored_pairs.count() == 0
    # its zero-row scored stage commits and restores with its columns
    save_result_checkpoint(inc, str(tmp_path / "ck"))
    back = load_result_from_checkpoint(str(tmp_path / "ck")).scored_pairs
    want = inc.scored_pairs.schema()
    assert back.count() == 0 and (back.schema().names, back.schema().types) == (want.names, want.types)


@pytest.mark.usefixtures("ray_session")
def test_incremental_commit_in_place_equals_full_run(tiny_corpus, tmp_path):
    """Daily loop with one checkpoint dir (``run_linkage_job.py
    --commit-checkpoint`` equal to ``--checkpoint-dir``): restore ->
    incremental -> commit into the same dir -> restore again gives the
    clusters of a from-scratch run over base ∪ delta.  A lazily restored
    result committed over itself must survive too: its writes read the
    very stages they replace."""
    from pathlib import Path

    from mel_ray.pipelines.linkage import (
        load_result_from_checkpoint,
        run_linkage,
        run_linkage_incremental,
        save_result_checkpoint,
    )

    files = sorted(str(f) for f in (Path(tiny_corpus) / "files").rglob("*.parquet"))
    ck = str(tmp_path / "ck")
    run_linkage(files[:-1], LinkageConfig(checkpoint_dir=ck))
    save_result_checkpoint(run_linkage_incremental(load_result_from_checkpoint(ck), files[-1:]), ck)
    save_result_checkpoint(load_result_from_checkpoint(ck), ck)

    cols = ["record_id", "cluster_id", "repo", "path", "sha256"]
    full = run_linkage(str(tiny_corpus / "files"))
    want = full.clusters.to_pandas()[cols].sort_values("record_id").reset_index(drop=True)
    got = load_result_from_checkpoint(ck).clusters.to_pandas()[cols]
    assert got.sort_values("record_id").reset_index(drop=True).equals(want)
    assert not [p for p in Path(ck).iterdir() if p.name.startswith(".")]  # staging removed


def _sorted_rows(ds, keys: list[str]) -> pa.Table:
    import ray

    t = pa.concat_tables(ray.get(ds.to_arrow_refs()))
    return t.sort_by([(k, "ascending") for k in keys]).combine_chunks()


@pytest.mark.usefixtures("ray_session")
def test_checkpoint_written_by_ray_data_restores_equal(tiny_corpus, tmp_path):
    """A checkpoint whose stages Ray Data's ``write_parquet`` wrote (its
    file names, several files per stage) restores to the same rows as
    one written a file per block; a zero-row stage that writer left as
    an empty data dir restores with no rows."""
    import shutil
    from pathlib import Path

    import ray.data

    from mel_ray.pipelines.linkage import (
        load_result_from_checkpoint,
        run_linkage,
        save_result_checkpoint,
    )

    ck, old = tmp_path / "ck", tmp_path / "old"
    save_result_checkpoint(run_linkage(str(tiny_corpus / "files")), str(ck))
    shutil.copytree(ck, old)
    keys = {"features": ["record_id"], "clusters": ["record_id"], "scored": ["id_a", "id_b"]}
    for stage in keys:
        data = old / stage / "data"
        t = pq.read_table(data)
        shutil.rmtree(data)
        cuts = [0, len(t) // 3, len(t) // 2, len(t)]
        ray.data.from_arrow([t.slice(a, b - a) for a, b in zip(cuts, cuts[1:])]).write_parquet(str(data))
        assert len(list(data.glob("*.parquet"))) >= 2, stage
        assert not any(f.name.startswith("part-") for f in data.iterdir())
    new, back = load_result_from_checkpoint(str(ck)), load_result_from_checkpoint(str(old))
    assert new.feature_token == back.feature_token
    for stage, k in keys.items():
        field = "scored_pairs" if stage == "scored" else stage
        want = _sorted_rows(getattr(new, field), k)
        assert len(want) > 0 and want.equals(_sorted_rows(getattr(back, field), k)), stage

    for f in (old / "scored" / "data").iterdir():
        f.unlink()
    assert load_result_from_checkpoint(str(old)).scored_pairs.count() == 0


@pytest.mark.usefixtures("ray_session")
def test_daily_loop_runs_no_ray_data_execution(tiny_corpus, tmp_path, monkeypatch):
    """The daily loop — link, save, load, link a delta incrementally,
    save — reads, writes, maps and unions no Ray Data dataset: every
    step is plain tasks over block refs.  Its clusters equal a
    from-scratch run's."""
    from pathlib import Path

    import ray.data

    from mel_ray.pipelines.linkage import (
        load_result_from_checkpoint,
        run_linkage,
        run_linkage_incremental,
        save_result_checkpoint,
    )

    def refuse(name):
        def call(*args, **kwargs):
            raise AssertionError(f"{name} ran in the daily loop")

        return call

    files = sorted(str(f) for f in (Path(tiny_corpus) / "files").rglob("*.parquet"))
    monkeypatch.setattr(ray.data, "read_parquet", refuse("read_parquet"))
    for name in ("write_parquet", "map_batches", "union"):
        monkeypatch.setattr(ray.data.Dataset, name, refuse(name))
    save_result_checkpoint(run_linkage(files[:-1]), str(tmp_path / "base"))
    inc = run_linkage_incremental(load_result_from_checkpoint(str(tmp_path / "base")), files[-1:])
    written = save_result_checkpoint(inc, str(tmp_path / "next"))
    got = _sorted_rows(load_result_from_checkpoint(str(tmp_path / "next")).clusters, ["record_id"])
    monkeypatch.undo()

    want = _sorted_rows(run_linkage(str(tiny_corpus / "files")).clusters, ["record_id"])
    assert written["clusters"] == len(want) > 0
    assert got.select(want.column_names).equals(want)


def _planted(tiny_corpus, n: int = 100):
    """Shard 0 of the tiny corpus plus ``n`` exact copies of its first
    record at distinct vendored paths: with n=100 every band run of the
    copies exceeds salt_limit=64."""
    from pathlib import Path

    import pyarrow as pa

    files = sorted(str(f) for f in (Path(tiny_corpus) / "files").rglob("*.parquet"))
    t = pq.read_table(files[0])
    copies = t.slice(0, 1).take(np.zeros(n, dtype=np.int64))
    copies = copies.set_column(
        copies.schema.get_field_index("path"),
        "path",
        pa.array([f"vendor{i:03d}/copied.py" for i in range(n)]),
    )
    return pa.concat_tables([t, copies])


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize(
    "limits",
    [{}, {"salt_limit": 8, "stopband_limit": 80, "max_pairs_per_group": 20}],
    ids=["default", "drops_and_caps"],
)
def test_band_major_pairs_equal_bucketed(tiny_corpus, tmp_path, limits):
    """Band-major blocking gives the bucketed plan's pairs and band
    accounting.  The corpus holds 100, 30 and 7 exact copies (runs over
    the default salt_limit; under the small limits a dropped, a salted
    and a star-capped run) and records without content, which neither
    plan may pair; then the pair filter of a zero-row incremental delta."""
    from dataclasses import replace

    import pyarrow as pa
    import ray

    from mel_ray.stages import blocking as B
    from mel_ray.stages import ingest as I
    from mel_ray.state.accounting import new_stats_sink

    t = _planted(tiny_corpus)
    extra = []
    for row, n, tag in [(1, 30, "b"), (2, 7, "c"), (3, 6, "empty")]:
        copies = t.slice(row, 1).take(np.zeros(n, dtype=np.int64))
        content = ["", "\n  \n", "", "\t", "", " "] if tag == "empty" else copies["content"]
        copies = copies.set_column(copies.schema.get_field_index("content"), "content", pa.array(content))
        paths = pa.array([f"{tag}{i:03d}/copied.py" for i in range(n)])
        extra.append(copies.set_column(copies.schema.get_field_index("path"), "path", paths))
    corpus = tmp_path / "planted"
    corpus.mkdir()
    pq.write_table(pa.concat_tables([t, *extra]), corpus / "part-0.parquet")

    cfg = replace(LinkageConfig(), blocking=replace(LinkageConfig().blocking, **limits))
    feats = B.featurize(I.ingest(I.read_corpus(str(corpus))), cfg).materialize()
    f = feats.to_pandas()
    empty_ids = set(f.record_id[f.path.str.startswith("empty")])
    assert len(empty_ids) == 6

    def both_plans(pair_filter=None):
        got = []
        for build in (B.band_major_pairs, B.candidate_pairs):
            sink = new_stats_sink()
            refs = build(feats, cfg.blocking, stats_sink=sink, pair_filter=pair_filter).to_arrow_refs()
            tables = [t for t in ray.get(refs) if len(t)]
            pairs = [p for t in tables for p in zip(t["id_a"].to_pylist(), t["id_b"].to_pylist())]
            got.append((sorted(pairs), B.band_totals(sink)))
            ray.get(sink.drop.remote())
            assert len(set(pairs)) == len(pairs)
            assert not empty_ids & {i for p in pairs for i in p}
        assert got[0] == got[1]
        return got[0]

    pairs, bands = both_plans()
    assert len(pairs) > 0 and all(a < b for a, b in pairs)
    if limits:
        assert all(bands[k] > 0 for k in B.BAND_COUNTS), bands
    else:
        assert bands["salted_bands"] >= cfg.blocking.num_bands
    # a zero-row incremental delta: the same runs, and a filter that keeps no pair
    assert both_plans(lambda t: t.slice(0, 0)) == ([], bands)


@pytest.mark.usefixtures("ray_session")
def test_restored_checkpointed_run_reports_band_accounting(tiny_corpus, tmp_path):
    """The checkpointed scored stage keeps its band counts in its
    manifest: a rerun that restores every stage reports the same
    accounting."""
    from mel_ray.pipelines.linkage import run_linkage

    planted = tmp_path / "planted"
    planted.mkdir()
    pq.write_table(_planted(tiny_corpus), planted / "part-0.parquet")
    cfg = LinkageConfig(checkpoint_dir=str(tmp_path / "ck"))

    built = run_linkage(str(planted), cfg).stats
    restored = run_linkage(str(planted), cfg).stats
    stages = ("features", "scored", "components", "clusters")
    assert not any(built[s]["restored"] for s in stages)
    assert all(restored[s]["restored"] for s in stages)
    assert restored["blocking_bands"] == built["blocking_bands"]
    assert built["blocking_bands"]["salted_bands"] >= cfg.blocking.num_bands


@pytest.mark.usefixtures("ray_session")
def test_incremental_reports_band_accounting(tiny_corpus, tmp_path):
    """Incremental emission runs over base ∪ delta, so its band
    accounting equals a from-scratch run's, salted runs that only the
    union crosses included — and the run says it may not be exact: the
    base labels join the 50 base copies that the union's salting splits."""
    from mel_ray.pipelines.linkage import run_linkage, run_linkage_incremental

    planted = _planted(tiny_corpus)
    paths = {}
    for name, rows in [
        ("all", np.arange(len(planted))),
        ("base", np.arange(0, len(planted), 2)),  # 50 copies: below salt_limit
        ("delta", np.arange(1, len(planted), 2)),
    ]:
        paths[name] = [str(tmp_path / f"{name}.parquet")]
        pq.write_table(planted.take(rows), paths[name][0])

    full = run_linkage(paths["all"]).stats["blocking_bands"]
    inc = run_linkage_incremental(run_linkage(paths["base"]), paths["delta"])
    assert inc.stats["blocking_bands"] == full
    assert full["salted_bands"] >= LinkageConfig().blocking.num_bands
    assert inc.stats["exact"] is False


@pytest.mark.usefixtures("ray_session")
def test_incremental_rejects_base_of_other_feature_config(tiny_corpus, tmp_path):
    """A base committed under one featurizer config must not be linked
    with features built under another; a checkpoint without a feature
    token is rejected too."""
    import json
    from pathlib import Path

    from mel_ray.config import BlockingConfig
    from mel_ray.pipelines.linkage import (
        load_result_from_checkpoint,
        run_linkage,
        run_linkage_incremental,
        save_result_checkpoint,
    )

    files = sorted(str(f) for f in (Path(tiny_corpus) / "files").rglob("*.parquet"))
    cfg64 = LinkageConfig(blocking=BlockingConfig(num_hashes=64))
    ck = tmp_path / "ck"
    save_result_checkpoint(run_linkage(files[:-1], cfg64), str(ck))
    base = load_result_from_checkpoint(str(ck))
    with pytest.raises(ValueError, match="feature config"):
        run_linkage_incremental(base, files[-1:])
    inc = run_linkage_incremental(base, files[-1:], cfg64)
    assert inc.clusters.count() == pq.read_table(files, columns=["lang"]).num_rows

    manifest = ck / "features" / "manifest.json"
    m = json.loads(manifest.read_text())
    del m["feature_token"]
    manifest.write_text(json.dumps(m))
    with pytest.raises(ValueError, match="None"):
        run_linkage_incremental(load_result_from_checkpoint(str(ck)), files[-1:], cfg64)


@pytest.mark.usefixtures("ray_session")
def test_session_stats_sink_keeps_runs_apart(tiny_corpus, tmp_path):
    """One StatsSink actor serves the whole session: each run reads only
    its own band accounting and drops its entries afterwards."""
    from pathlib import Path

    import pyarrow as pa
    import ray

    from mel_ray.pipelines.linkage import run_linkage
    from mel_ray.state.accounting import new_stats_sink, session_stats_sink

    files = sorted(str(f) for f in (Path(tiny_corpus) / "files").rglob("*.parquet"))
    t = pq.read_table(files[0])
    n = 100  # exact copies of one record: every band run exceeds salt_limit=64
    copies = t.slice(0, 1).take(np.zeros(n, dtype=np.int64))
    copies = copies.set_column(
        copies.schema.get_field_index("path"),
        "path",
        pa.array([f"vendor{i:03d}/copied.py" for i in range(n)]),
    )
    planted = tmp_path / "planted"
    planted.mkdir()
    pq.write_table(pa.concat_tables([t, copies]), planted / "part-0.parquet")

    sink = session_stats_sink()
    # a run still in flight: its counts must not leak into the others
    other = new_stats_sink()
    ray.get(other.put.remote("blocking", 0, {"salted_bands": 1000}))
    before = set(ray.get(sink.runs.remote()))
    first: dict = {}
    for corpus in [str(planted), str(tiny_corpus / "files")] * 2:
        bands = run_linkage(corpus).stats["blocking_bands"]
        assert bands == first.setdefault(corpus, bands), corpus
        assert set(ray.get(sink.runs.remote())) <= before
    assert ray.get(other.totals.remote("blocking")) == {"salted_bands": 1000}
    ray.get(other.drop.remote())
    # a checkpointed run reads the same counts back from its scored stage
    for i, (corpus, bands) in enumerate(first.items()):
        ck = LinkageConfig(checkpoint_dir=str(tmp_path / f"ck{i}"))
        assert run_linkage(corpus, ck).stats["blocking_bands"] == bands, corpus
    assert first[str(planted)]["salted_bands"] >= LinkageConfig().blocking.num_bands
    assert first[str(planted)] != first[str(tiny_corpus / "files")]


def _assert_one_chunk_blocks(ds) -> None:
    """Every non-empty block of ``ds`` holds one chunk per column, and
    its ``sig`` matrix is a view of the block's Arrow data buffer."""
    import ray

    from mel_ray.stages.blocking import binary_matrix

    blocks = [t for t in ray.get(ds.to_arrow_refs()) if len(t)]
    assert blocks
    for t in blocks:
        assert {t[c].num_chunks for c in t.column_names} == {1}, {
            c: t[c].num_chunks for c in t.column_names
        }
        sig = t["sig"].chunk(0)
        first = np.frombuffer(sig.buffers()[1], np.int32)[sig.offset]
        view = binary_matrix(t["sig"], np.uint32)
        assert view.__array_interface__["data"][0] == sig.buffers()[2].address + first


@pytest.mark.usefixtures("ray_session")
def test_feature_blocks_hold_one_chunk_per_column(tmp_path):
    """Feature blocks are contiguous: streaming run_linkage, a
    checkpointed build, a partitioned checkpoint read back and an
    incremental delta all give blocks with one Arrow chunk per column,
    so the band-range tasks and the scorer read sig/emb through
    zero-copy views.  A 2,400-row corpus puts 300 rows in each of the 8
    blocks, more than one 128-row featurize slice."""
    from mel_ray.pipelines.linkage import run_linkage, run_linkage_incremental
    from mel_ray.synth import generate_corpus
    from mel_ray.util import shuffle_partitions

    files = sorted(str(f) for f in (generate_corpus(tmp_path / "c", 2400) / "files").glob("*.parquet"))
    streaming = run_linkage(files)
    assert streaming.features.num_blocks() == shuffle_partitions()
    _assert_one_chunk_blocks(streaming.features)
    # one input file: one committed features stage of P files, read
    # back one block per file
    one = tmp_path / "one.parquet"
    pq.write_table(pq.read_table(files), one)
    checkpointed = run_linkage(str(one), LinkageConfig(checkpoint_dir=str(tmp_path / "ck")))
    _assert_one_chunk_blocks(checkpointed.features)
    # several input files: a partitioned features stage of more files
    # than blocks, read back by the build and by a restoring rerun
    cfg = LinkageConfig(checkpoint_dir=str(tmp_path / "ck_parts"))
    built = run_linkage(files, cfg)
    assert built.stats["features"]["partitions_built"] == len(files) > 1
    written = list((tmp_path / "ck_parts" / "features" / "data").rglob("*.parquet"))
    assert len(written) > shuffle_partitions()
    restored = run_linkage(files, cfg)
    assert restored.stats["features"]["restored"]
    for res in (built, restored):
        assert res.features.num_blocks() == shuffle_partitions()
        _assert_one_chunk_blocks(res.features)
    inc = run_linkage_incremental(run_linkage(files[:-1]), files[-1:])
    assert inc.stats["new_rows"] == 600
    _assert_one_chunk_blocks(inc.features)


def _write_inputs(tiny_corpus, root, case: str):
    """The tiny corpus's 800 rows, re-sharded for one input-split case:
    -> (the corpus path to read, its files).  One shard of each case is
    written through pandas (schema metadata), one with small row groups,
    and the ``more_files`` and ``file_list`` cases hold a zero-row file."""
    from pathlib import Path

    from mel_ray.util import shuffle_partitions

    t = pq.read_table(Path(tiny_corpus) / "files")
    p = shuffle_partitions()
    d = root / case
    d.mkdir()
    if case == "fewer_files":
        cuts = [0, 300, 550, 800]
    else:
        cuts = np.linspace(0, len(t), p + 4).astype(int).tolist()
    out = []
    for i, (a, b) in enumerate(zip(cuts[:-1], cuts[1:])):
        f = d / f"part-{i:05d}.parquet"
        if i == 1:
            t.slice(a, b - a).to_pandas().to_parquet(f)
        else:
            pq.write_table(t.slice(a, b - a), f, row_group_size=64 if i == 2 else 8192)
        out.append(str(f))
    if case == "fewer_files":
        return str(d), out
    empty = d / "part-empty.parquet"
    pq.write_table(t.slice(0, 0), empty)
    out.append(str(empty))
    if case == "more_files":
        return str(d), out
    listed = [out[0], out[1], out[-1], out[2]]  # fewer files than P, in this order
    return listed, listed


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("case", ["fewer_files", "more_files", "file_list"])
def test_featurize_input_split_is_exact(tiny_corpus, tmp_path, case):
    """featurize_input's P tasks read every input row exactly once:
    the same records and byte-equal features as the Ray Data read ->
    ingest -> featurize path, in P metadata-free blocks (on that block
    count the bucketed plan skips its coalescing repartition)."""
    import ray

    from mel_ray.pipelines.linkage import featurize_input
    from mel_ray.stages import blocking as B
    from mel_ray.stages import ingest as I
    from mel_ray.util import shuffle_partitions

    cfg = LinkageConfig()
    path, files = _write_inputs(tiny_corpus, tmp_path, case)
    if case == "fewer_files":
        assert len(files) < shuffle_partitions()
    elif case == "more_files":
        assert len(files) > shuffle_partitions()
    assert any(pq.read_schema(f).metadata for f in files)

    got = featurize_input(path, cfg)
    assert got.num_blocks() == shuffle_partitions()
    blocks = ray.get(got.to_arrow_refs())
    assert all(t.schema.metadata is None for t in blocks)
    got_t = pa.concat_tables(blocks).sort_by("record_id")
    records = I.ingest(I.read_corpus(path)).to_arrow_refs()
    want_ids = np.sort(
        np.concatenate([t["record_id"].to_numpy() for t in ray.get(records) if t.num_columns])
    )
    assert len(want_ids) == sum(pq.read_metadata(f).num_rows for f in files) > 0
    assert (got_t["record_id"].to_numpy() == want_ids).all()
    want = B.featurize(I.ingest(I.read_corpus(path)), cfg).to_arrow_refs()
    want_t = pa.concat_tables([t for t in ray.get(want) if t.num_columns]).sort_by("record_id")
    assert got_t.equals(want_t)

    if case != "fewer_files":
        # a zero-row delta: P typed empty blocks
        empty = featurize_input([files[-1] if case == "more_files" else files[2]], cfg)
        assert empty.count() == 0 and empty.num_blocks() == shuffle_partitions()
        assert empty.schema().names == got_t.column_names
