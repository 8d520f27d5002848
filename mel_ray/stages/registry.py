"""Named Stage protocol + registry — the user-extension surface
(SURVEY.md §2.10).

Mirrors the reference's advertised extension point: ``PipelineStep``
(``src/tokenization/pipeline/base.py:5-10`` — "Adding new pipeline
steps can be done easily by extending ... PipelineStep") composed by
``Pipeline.add`` (base.py:17-27), with the action-name dispatch of
``choose_action`` (``src/tokenization/run_action.py:39-97``).

A Stage is a named unary Dataset transform ``fn(ds, ctx) -> ds`` with a
declared config type; the registry keys stages by name so pipelines can
be wired from config (the gin-file analogue).  Multi-input steps (the
flagship's pair joins) remain explicit code — the registry covers the
chainable per-dataset stages, exactly like the reference's generator
chain.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

import ray.data

StageFn = Callable[["ray.data.Dataset", Any], "ray.data.Dataset"]


@dataclass(frozen=True)
class Stage:
    name: str
    fn: StageFn
    description: str = ""
    config_type: type | None = None


_REGISTRY: dict[str, Stage] = {}


def register_stage(
    name: str, *, description: str = "", config_type: type | None = None
) -> Callable[[StageFn], StageFn]:
    """Decorator: ``@register_stage("normalize")`` on an ``fn(ds, ctx)``."""

    def deco(fn: StageFn) -> StageFn:
        if name in _REGISTRY:
            raise ValueError(f"stage {name!r} already registered")
        _REGISTRY[name] = Stage(name, fn, description, config_type)
        return fn

    return deco


def get_stage(name: str) -> Stage:
    """choose_action analogue: exact-name dispatch with a helpful error."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown stage {name!r}; available: {sorted(_REGISTRY)}"
        ) from None


def list_stages() -> dict[str, str]:
    return {s.name: s.description for s in _REGISTRY.values()}


def run_stages(
    names: list[str], ds: "ray.data.Dataset", ctx: Any = None
) -> "ray.data.Dataset":
    """Pipeline.add composition: fold the named stages over a Dataset."""
    for name in names:
        ds = get_stage(name).fn(ds, ctx)
    return ds


# --------------------------------------------------------------------------
# built-in stages (the chainable core of the flagship)
# --------------------------------------------------------------------------


def _register_builtins() -> None:
    from ..config import LinkageConfig

    @register_stage(
        "ingest",
        description="sha256 + record_id + repo canonicalization (S5/M11)",
        config_type=LinkageConfig,
    )
    def _ingest(ds, ctx):
        from . import ingest as I

        renames = getattr(ctx, "renames", None) if ctx is not None else None
        return I.ingest(ds, renames=renames)

    @register_stage(
        "featurize",
        description="minhash signature + hashed-ngram embedding per record (M6/T1)",
        config_type=LinkageConfig,
    )
    def _featurize(ds, ctx):
        from ..config import LinkageConfig as LC
        from . import blocking as B

        return B.featurize(ds, ctx if ctx is not None else LC())

    @register_stage(
        "candidate_pairs",
        description="LSH band expansion -> salted bucketed pair emission (D6)",
        config_type=LinkageConfig,
    )
    def _pairs(ds, ctx):
        from ..config import LinkageConfig as LC
        from . import blocking as B

        cfg = ctx if ctx is not None else LC()
        return B.candidate_pairs(ds, cfg.blocking)

    @register_stage(
        "media_features",
        description="actor-pool media feature extraction (multimodal plumbing)",
    )
    def _media(ds, ctx):
        from .multimodal import extract_media_features

        return extract_media_features(ds)


_register_builtins()
