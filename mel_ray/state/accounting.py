"""Shared accounting sink: the one band-accounting channel (no-silent-caps
without a materialization barrier).

The blocking stage's band accounting (dropped / salted / capped groups)
is recorded out of band in this tiny actor, never in the pair rows, so
pairs stream straight into the scorer.  Entries are KEYED BY (run,
stage, bucket) so task retries / speculative re-execution overwrite
rather than double-count (per-bucket values are deterministic) and
consecutive or concurrent runs never mix.  Producers ``ray.get`` their
put so a finished producer task implies a recorded entry; reading totals
after the consuming stage materializes is therefore race-free.  A
checkpointed run copies its totals into the ``scored`` stage manifest
(state/manifest.py), so a restored run reports them without re-emitting.

ONE sink actor serves a whole driver session, because every new actor is
a new worker process (interpreter start-up + imports) that each warm run
would pay for.  Each run gets its own token via :func:`new_stats_sink`
and drops its entries once it has read its totals.

This is the raw-actor escape hatch the Dataset API genuinely cannot
express (a side-channel aggregate over a stage consumed exactly once) —
cf. the reference's StatisticsLogger side channel
(``src/utils/statistics_logger.py``), which logs out-of-band of the
dataflow for the same reason.
"""

from __future__ import annotations

import uuid

import ray


@ray.remote(num_cpus=0)
class StatsSink:
    """Idempotent keyed counter store: (run, stage, key) -> counts dict."""

    def __init__(self):
        self._entries: dict[tuple[str, str, int], dict] = {}

    def put(self, run: str, stage: str, key: int, counts: dict) -> None:
        self._entries[(run, stage, key)] = counts

    def totals(self, run: str, stage: str) -> dict:
        out: dict[str, int] = {}
        for (r, s, _), counts in self._entries.items():
            if r == run and s == stage:
                for name, v in counts.items():
                    out[name] = out.get(name, 0) + int(v)
        return out

    def drop(self, run: str) -> None:
        self._entries = {k: v for k, v in self._entries.items() if k[0] != run}

    def runs(self) -> list[str]:
        return sorted({r for r, _, _ in self._entries})


class _RunMethod:
    """``sink.<method>.remote(...)`` with the run token prepended."""

    def __init__(self, actor, name: str, run: str):
        self._actor, self._name, self._run = actor, name, run

    def remote(self, *args):
        return getattr(self._actor, self._name).remote(self._run, *args)


class RunStats:
    """One run's view of the session sink: ``put`` / ``totals`` / ``drop``
    keep the actor-method call shape.  Picklable, so it rides task closures."""

    def __init__(self, actor, run: str):
        for name in ("put", "totals", "drop"):
            setattr(self, name, _RunMethod(actor, name, run))


# (job id, node id) -> the session's sink handle, held so the actor outlives
# each run's handles; a new session (new raylet) never reuses a dead one.
_SESSION_SINK: dict[tuple[str, str], "ray.actor.ActorHandle"] = {}


def session_stats_sink() -> "ray.actor.ActorHandle":
    """The driver session's sink actor, started on first use."""
    ctx = ray.get_runtime_context()
    key = (ctx.get_job_id(), ctx.get_node_id())
    sink = _SESSION_SINK.get(key)
    if sink is None:
        sink = StatsSink.options(name=f"mel_ray_stats_sink_{key[0]}", get_if_exists=True).remote()
        _SESSION_SINK.clear()
        _SESSION_SINK[key] = sink
    return sink


def new_stats_sink() -> RunStats:
    """A fresh run token on the session sink; call ``.drop.remote()`` once
    the run's totals are read."""
    return RunStats(session_stats_sink(), uuid.uuid4().hex)
