"""Experiment runner: campaign/analysis caching and batch execution.

The paper-scale campaign takes ~15 s; every experiment shares one
:class:`StudyAnalysis` per configuration so a full figure sweep costs one
campaign.  Results are memoized at two levels:

* in-process, so one sweep builds each analysis once;
* on disk via :mod:`repro.cache`, so *separate* processes (repeated CLI
  invocations, benchmark sessions, parallel figure jobs) skip
  re-simulation entirely.
"""

from __future__ import annotations

from ..analysis.report import StudyAnalysis
from ..cache import CampaignCache, config_digest, default_cache
from ..core.rng import DEFAULT_SEED
from ..faultinjection.campaign import CampaignResult, run_campaign
from ..faultinjection.config import paper_campaign_config, quick_campaign_config
from .base import REGISTRY, ExperimentResult

# Importing these modules populates the registry.
from . import (  # noqa: F401  (import for side effects)
    ablations,
    coverage_figs,
    error_figs,
    future_work,
    multibit_figs,
    resilience_exps,
    sdc_exps,
    temperature_figs,
)

#: Order in which `run_all` executes (paper order).
EXPERIMENT_ORDER: tuple[str, ...] = (
    "headline",
    "fig01",
    "fig02",
    "fig03",
    "table1",
    "fig04",
    "fig05",
    "fig06",
    "fig07",
    "fig08",
    "fig09",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "table2",
    "sec1_exascale_projection",
    "sec2_beam_vs_field",
    "sec3c_alignment",
    "sec3d_undetectable",
    "sec3g_pearson",
    "sec3i_prediction",
    "ml_prediction",
    "sec4_resilience",
    "sec4_checkpoint_sim",
    "sec4_scrubbing",
    "whatif_ecc_campaign",
    "ablation_swizzle",
    "ablation_ecc",
    "ablation_ecc_overhead",
    "ablation_quarantine_trigger",
    "ablation_seed_stability",
    "futurework_stress",
    "futurework_swap",
)


#: In-process memo: config digest -> shared StudyAnalysis.
_ANALYSES: dict[str, StudyAnalysis] = {}


def _cacheable(result: CampaignResult) -> CampaignResult:
    """A copy worth persisting: no derived frames, no run-local metrics."""
    return CampaignResult(
        config=result.config,
        registry=result.registry,
        tracks=result.tracks,
        archive=result.archive,
        n_observations=result.n_observations,
    )


def get_analysis(
    seed: int = DEFAULT_SEED,
    quick: bool = False,
    *,
    workers: int | None = None,
    backend: str | None = None,
    use_cache: bool = True,
    cache: CampaignCache | None = None,
    retry=None,
    unit_timeout: float | None = None,
) -> StudyAnalysis:
    """The shared analysis for a seed (campaign runs once, then cached).

    ``workers``/``backend`` control how a cache *miss* is simulated; they
    never affect the result (all backends are bit-identical), so hits and
    misses are interchangeable.  ``use_cache=False`` bypasses both the
    in-process memo and the disk cache.  ``retry``/``unit_timeout`` go to
    :func:`repro.faultinjection.run_campaign` on a cache miss (without a
    ``retry`` policy a lost node raises); sub-budget recoveries are
    bit-identical, so they share the cache key with plain runs.  A
    *degraded* run (nodes exhausted their retry budget) is returned to
    this caller but never cached — on disk or in the memo — because its
    node population is incomplete and the cache key cannot distinguish it
    from a healthy run.
    """
    config = (
        quick_campaign_config(seed) if quick else paper_campaign_config(seed)
    )
    key = config_digest(config)
    if use_cache and key in _ANALYSES:
        return _ANALYSES[key]

    result: CampaignResult | None = None
    store = cache if cache is not None else default_cache()
    if use_cache:
        loaded = store.load(key)
        if isinstance(loaded, CampaignResult):
            result = loaded
    if result is None:
        result = run_campaign(
            config,
            workers=workers,
            backend=backend,
            retry=retry,
            unit_timeout=unit_timeout,
        )
        if use_cache and result.degraded is None:
            store.store(key, _cacheable(result))

    analysis = StudyAnalysis(result)
    if use_cache and result.degraded is None:
        _ANALYSES[key] = analysis
    return analysis


def clear_analysis_memo() -> None:
    """Drop the in-process analysis memo (tests, long-lived servers)."""
    _ANALYSES.clear()


def run_experiment(
    exp_id: str, analysis: StudyAnalysis | None = None, seed: int = DEFAULT_SEED
) -> ExperimentResult:
    """Run one registered experiment."""
    if exp_id not in REGISTRY:
        raise KeyError(
            f"unknown experiment {exp_id!r}; known: {sorted(REGISTRY)}"
        )
    if analysis is None:
        analysis = get_analysis(seed)
    return REGISTRY[exp_id](analysis)


def run_all(
    analysis: StudyAnalysis | None = None, seed: int = DEFAULT_SEED
) -> list[ExperimentResult]:
    """Every experiment, in paper order."""
    if analysis is None:
        analysis = get_analysis(seed)
    missing = set(REGISTRY) - set(EXPERIMENT_ORDER)
    if missing:
        raise RuntimeError(f"experiments missing from EXPERIMENT_ORDER: {missing}")
    return [REGISTRY[e](analysis) for e in EXPERIMENT_ORDER]
