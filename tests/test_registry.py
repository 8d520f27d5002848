"""Stage registry (§2.10): named dispatch + composition reproduce the
explicitly-wired pipeline stages."""

from __future__ import annotations

import pytest


@pytest.mark.usefixtures("ray_session")
class TestRegistry:
    def test_dispatch_and_unknown_name(self):
        from mel_ray.stages.registry import get_stage, list_stages

        assert "ingest" in list_stages()
        assert get_stage("featurize").name == "featurize"
        with pytest.raises(KeyError, match="available"):
            get_stage("nope")

    def test_composed_stages_match_explicit_wiring(self, tiny_corpus):
        import ray.data

        from mel_ray.config import LinkageConfig
        from mel_ray.stages import blocking as B
        from mel_ray.stages import ingest as I
        from mel_ray.stages.registry import run_stages

        cfg = LinkageConfig()
        raw = I.read_corpus(str(tiny_corpus / "files"))
        via_registry = run_stages(["ingest", "featurize"], raw, cfg).to_pandas()
        explicit = (
            I.ingest(I.read_corpus(str(tiny_corpus / "files")))
            .map_batches(
                lambda b: B.featurize_batch(
                    b, cfg.blocking, cfg.scoring.embed_dim, cfg.scoring.embed_kgram
                ),
                batch_format="pyarrow",
                zero_copy_batch=True,
            )
            .to_pandas()
        )
        a = via_registry.sort_values("record_id").reset_index(drop=True)
        b = explicit.sort_values("record_id").reset_index(drop=True)
        assert a.equals(b)

    def test_band_stats_surfaced(self, tiny_corpus):
        """no-silent-caps: candidate_pairs reports dropped/salted band
        counts to a stats sink when given one (they may be zero on the
        tiny corpus, but the keys must exist and be non-negative ints)."""
        import ray

        from mel_ray.config import LinkageConfig
        from mel_ray.stages import blocking as B
        from mel_ray.stages import ingest as I
        from mel_ray.stages.registry import run_stages
        from mel_ray.state.accounting import new_stats_sink

        cfg = LinkageConfig()
        feats = run_stages(
            ["ingest", "featurize"], I.read_corpus(str(tiny_corpus / "files")), cfg
        )
        sink = new_stats_sink()
        pairs = B.candidate_pairs(feats, cfg.blocking, stats_sink=sink).materialize()
        stats = ray.get(sink.totals.remote("blocking"))
        ray.get(sink.drop.remote())
        assert pairs.count() > 0
        assert stats["dropped_bands"] >= 0 and stats["salted_bands"] >= 0
        # plain path: the same pairs without a sink
        plain = B.candidate_pairs(feats, cfg.blocking).to_pandas()
        assert (plain.id_a >= 0).all()
        assert len(plain) == pairs.count()


class TestJobConfig:
    """Config-file job composition (mel_ray/jobs.py — the gin +
    run_action surface, run_action_gin.py:104-119)."""

    def test_load_applies_nested_overrides_and_rejects_unknown_keys(self, tmp_path):
        from mel_ray.jobs import load_job

        cfg = tmp_path / "job.yaml"
        cfg.write_text(
            "kind: linkage\ninput: /tmp/x\n"
            "config:\n  blocking: {num_bands: 16}\n  checkpoint_dir: /tmp/ck\n"
        )
        spec = load_job(cfg)
        assert spec["config"].blocking.num_bands == 16
        assert spec["config"].blocking.num_hashes == 128  # untouched default
        assert spec["config"].checkpoint_dir == "/tmp/ck"

        bad = tmp_path / "bad.yaml"
        bad.write_text("kind: linkage\ninput: /tmp/x\nconfig: {blocking: {nope: 1}}\n")
        with pytest.raises(KeyError, match="nope"):
            load_job(bad)
        badstage = tmp_path / "badstage.yaml"
        badstage.write_text("kind: stages\nread: /tmp/x\nstages: [wat]\n")
        with pytest.raises(KeyError, match="available"):
            load_job(badstage)

    def test_flagship_config_file_runs(self, ray_session, tiny_corpus, tmp_path):
        """The checked-in flagship config, run end to end through the
        job runner, equals the explicitly-wired pipeline."""
        import yaml

        from mel_ray.config import LinkageConfig
        from mel_ray.jobs import load_job, run_job
        from mel_ray.pipelines.linkage import run_linkage

        base = yaml.safe_load(open("configs/linkage.yaml"))
        base["input"] = str(tiny_corpus / "files")
        cfg = tmp_path / "job.yaml"
        cfg.write_text(yaml.safe_dump(base))
        out = run_job(load_job(cfg))
        got = (
            out["clusters"].to_pandas().sort_values("record_id").reset_index(drop=True)
        )
        want = (
            run_linkage(str(tiny_corpus / "files"), LinkageConfig())
            .clusters.to_pandas()
            .sort_values("record_id")
            .reset_index(drop=True)
        )
        assert got.equals(want)

    def test_stages_job_runs(self, ray_session, tiny_corpus, tmp_path):
        from mel_ray.jobs import load_job, run_job

        cfg = tmp_path / "stages.yaml"
        cfg.write_text(
            f"kind: stages\nread: {tiny_corpus / 'files'}\nstages: [ingest, featurize]\n"
        )
        out = run_job(load_job(cfg))
        df = out["dataset"].to_pandas()
        assert {"record_id", "sig", "emb"} <= set(df.columns)
        assert len(df) > 0


def test_driver_window_holds_oracle_bearing_queries():
    """The driver verifies the FIRST 50 queries() entries in insertion
    order; every SQL-oracle-bearing query must sit inside that window,
    and the only rows-only window slots are the LSH flagship and its F1
    gate.  Pins the registry ordering against accidental reshuffles."""
    from mel_ray import entrypoints as ep

    names = list(ep.queries())
    oracles = set(ep.oracle_sql())
    assert len(names) >= 50
    window = names[:50]
    # 47 oracle-bearing window slots + three rows-only checks: the two
    # flagship rows and knn_ivf (round-5 rotation: the partitioned-ANN
    # family's externally-verified row; its hash-exact naive oracle
    # lives in tests/test_ops.py)
    assert [n for n in window if n not in oracles] == [
        "knn_ivf",
        "linkage_clusters",
        "linkage_f1_metrics",
    ]
    # the only oracle-bearing queries OUTSIDE the window are redundant
    # variants of in-window families (still verified by the local checker)
    assert oracles - set(window) == {
        "unique_batcher",       # training-side extra (S4/O6), local-checked
        "grouped_stats",        # moments family: grouped_agg in window
        "bloom_semi_join",      # same oracle as semi_join (J4, Bloom plan)
        "token_pack",           # prefix-scan packing; token family in window
        "weighted_sample",      # sampling family: stratified_sample in window
        "sliding_window_counts",  # window family: windowed_agg in window
        "topk_global",          # same oracle as sort_limit (O3)
        "intersect_distinct",   # set-op family: union_distinct in window
        "except_distinct",      # set-op family: anti_join in window
        "global_shuffle",       # identity oracle (multiset preservation)
        "doc_quality",          # doc_quality_filter/_pct_filter in window
        "doc_bpe_token_count",  # doc_tokens_bpe (real BPE) in window (M6/M7)
        "doc_md5_fingerprint",  # sha fingerprints verified via dedup ops
        "knn_capped",           # per-label-cap variant of in-window knn_bruteforce
        "corpus_boilerplate_lines",  # line-dedup family: corpus_dup_groups in window
        "doc_dup_ngram_fraction",  # quality family: doc_quality_filter in window
        "mean_agg",             # r5 rotation out: grouped_agg covers plain aggs
        "distinct_count",       # r5 rotation out: grouped_agg/grouped_topk family
        "event_type_distribution",  # r5 rotation out: grouped count distribution
        "first_n_distinct",     # r5 rotation out: per-key distinct family
        "doc_mention_context_cut",  # tokenization family: doc_tokens_bpe in window
        "skew_join",            # salted-plan variant of in-window hash_join
        "grouped_corr",         # moments family: grouped_agg in window
        "ranked_per_key",       # window family: windowed_agg/sessionize in window
        "left_outer_join",      # join family: hash_join/broadcast_join in window
        "doc_pmi_bigrams",      # count-then-join family: doc_tfidf in window
        "doc_decontaminate",    # broadcast-semi-join family: semi_join in window
        "grouped_mode",         # argmax-over-counts: grouped_argmax in window
        "ntile_per_key",        # bucketed-window family: sessionize/running_sum in window
        "grouped_concat",       # grouped-agg family: grouped_agg/grouped_topk in window
        "grouped_zscore",       # broadcast-stats family: broadcast_join in window
        "fuzzy_lev_join",       # edit-distance join: PassJoin plan; fuzzy_jw_join in window
        "doc_mask_stopwords",   # r5 rotation out: text-transform family well covered in window
        "full_outer_join",      # join family: hash_join/left_outer_join covered
        "grouped_entropy",      # distribution-stat family: event_type_distribution covered
    }
