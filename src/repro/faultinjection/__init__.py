"""Fault injection: event processes, fault models, and the year campaign."""

from .campaign import (
    CampaignMetrics,
    CampaignResult,
    DegradedNode,
    DegradedResult,
    run_campaign,
)
from .catalogue import (
    TABLE_I,
    MultiBitPattern,
    beyond_double_faults,
    double_bit_faults,
    total_multibit_faults,
    undetectable_patterns,
)
from .config import (
    BackgroundConfig,
    CampaignConfig,
    CataloguePlacement,
    DegradingNodeConfig,
    StuckNodeConfig,
    WeakBitConfig,
    paper_campaign_config,
    quick_campaign_config,
)
from .models import Observation
from .processes import nhpp_times, piecewise_poisson_times, poisson_times
from .sessions import (
    BASE_ITER_HOURS,
    PATTERN_ALTERNATING,
    PATTERN_COUNTING,
    SessionTrack,
    build_session_track,
)

__all__ = [
    "BackgroundConfig",
    "BASE_ITER_HOURS",
    "CampaignConfig",
    "CampaignMetrics",
    "CampaignResult",
    "CataloguePlacement",
    "DegradedNode",
    "DegradedResult",
    "DegradingNodeConfig",
    "MultiBitPattern",
    "Observation",
    "PATTERN_ALTERNATING",
    "PATTERN_COUNTING",
    "SessionTrack",
    "StuckNodeConfig",
    "TABLE_I",
    "WeakBitConfig",
    "beyond_double_faults",
    "build_session_track",
    "double_bit_faults",
    "nhpp_times",
    "paper_campaign_config",
    "piecewise_poisson_times",
    "poisson_times",
    "quick_campaign_config",
    "run_campaign",
    "total_multibit_faults",
    "undetectable_patterns",
]
