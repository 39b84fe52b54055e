"""Campaign configuration, with the paper-calibrated defaults.

Every number here is traced to a statement in the paper (cited inline).
``paper_campaign_config()`` is the configuration used by all figure/table
experiments; ``quick_campaign_config()`` is a scaled-down machine and
window for fast tests.
"""

from __future__ import annotations

import datetime as _dt
from dataclasses import dataclass, field, replace

from ..cluster.registry import TopologyConfig
from ..core import timeutils
from ..core.errors import ConfigurationError
from ..core.rng import DEFAULT_SEED
from ..environment.calendar import AcademicCalendar
from ..scheduler.jobs import ActivityConfig


def _day(year: int, month: int, day: int) -> int:
    """Study day index of a calendar date."""
    return (_dt.date(year, month, day) - timeutils.STUDY_EPOCH.date()).days


@dataclass(frozen=True)
class StuckNodeConfig:
    """The faulty node responsible for >98% of raw error lines (Sec III-B).

    A stuck component corrupts a fixed set of words; the scanner re-logs
    every one of them each verify pass, for months.  The node is filtered
    out of the characterization exactly as the paper did.
    """

    node: str = "21-09"
    n_addresses: int = 33
    #: Each stuck word has this many bits stuck low (charge-loss defect).
    bits_per_address: int = 1


@dataclass(frozen=True)
class DegradingNodeConfig:
    """Node 02-04: onset in August, >1000 errors/day by November (Fig 12)."""

    node: str = "02-04"
    onset_day: int = _day(2015, 8, 1)
    #: End of the exponential ramp; the rate then plateaus at
    #: ``final_rate_per_day`` ("over 1000 errors per day in November
    #: without any sign of improvement") until monitoring stops.
    ramp_end_day: int = _day(2015, 11, 1)
    initial_rate_per_day: float = 4.5
    final_rate_per_day: float = 1200.0
    #: Monitoring stops late November, resumes for two days mid-December,
    #: then nothing until the end of the study (Fig 12 discussion).
    monitoring_gaps: tuple[tuple[int, int], ...] = (
        (_day(2015, 11, 28), _day(2015, 12, 15)),
        (_day(2015, 12, 17), timeutils.STUDY_DAYS),
    )
    #: Fraction of glitch events corrupting a single word; the rest corrupt
    #: several words at the same instant (Sec III-C simultaneity).
    p_isolated: float = 0.72
    #: One glitch event corrupts exactly ``max_group_bits`` words ("one
    #: such failure could corrupt up to 36 bits spread across different
    #: memory words", Sec III-C).
    inject_max_event: bool = True
    #: Geometric mean of group size for multi-word glitches (>= 2).
    group_size_mean: float = 3.0
    #: Largest total bits in one event ("up to 36 bits", Sec III-C).
    max_group_bits: int = 36
    #: Distinct corrupted bit positions ("almost 30 different corruption
    #: patterns" over ~11,000 addresses, Sec III-H).
    bit_pool: tuple[int, ...] = tuple(range(0, 14))
    #: Fraction of flips 1->0 on this node (global target ~90%, Sec III-C).
    p_one_to_zero: float = 0.89
    #: Number of distinct corrupted addresses ("over 11,000").
    n_addresses: int = 11400
    #: The corrupted addresses live on a few physical bit-line columns of
    #: one bank, and most multi-word glitches strike within one column —
    #: the paper's hypothesis that simultaneous errors hit cells "in
    #: physical proximity or alignment (row, column, bank)" while the
    #: controller maps them to logical addresses megabytes apart
    #: ("different regions of the memory").
    n_defective_columns: int = 4
    defective_bank: int = 3
    #: Fraction of multi-word glitches confined to one physical column.
    p_column_aligned: float = 0.9


@dataclass(frozen=True)
class WeakBitConfig:
    """A node with one intermittently leaking cell (04-05 / 58-02, Sec III-H)."""

    node: str
    bit: int
    word_index: int
    #: Error bursts arrive in episodes so a 30-day quarantine window can
    #: absorb several bursts (Table II's node-day economics: ~6 quarantine
    #: entries machine-wide at the 30-day setting -> 180 node-days).
    n_episodes: int = 3
    bursts_per_episode: int = 8
    episode_span_days: float = 30.0
    burst_days_min: float = 1.4
    burst_days_max: float = 3.4
    burst_rate_per_day_min: float = 50.0
    burst_rate_per_day_max: float = 100.0
    #: Consecutive-iteration re-detections per firing (repeat compression).
    mean_repeat: float = 2.0
    #: Sparse single firings spread over the whole study, outside bursts:
    #: these land on otherwise-quiet days and make up most of the "~50
    #: errors during normal days" of Sec III-I.
    trickle_rate_per_day: float = 0.04
    #: Episodes cluster in the autumn term (between the vacation scanning
    #: peaks): this both matches Fig 10/11's September-December error
    #: concentration and produces the paper's weak *anti*-correlation
    #: between daily scanning volume and daily errors (Sec III-G).
    episode_window_days: tuple[int, int] | None = (231, 312)
    p_episode_in_window: float = 0.7


@dataclass(frozen=True)
class BackgroundConfig:
    """Isolated single-bit upsets over the healthy population (Fig 3).

    Calibrated so that "all other nodes combined had less than 30 memory
    errors" (Sec III-H).
    """

    rate_per_node_hour: float = 1.8e-6
    p_one_to_zero: float = 0.9
    #: Rate multiplier for the overheating SoC-12 slots while they are
    #: still powered (heat-damaged cells; provides the small >60 C error
    #: population of Fig 7).
    overheating_rate_multiplier: float = 75.0


@dataclass(frozen=True)
class CataloguePlacement:
    """Where and when the Table I multi-bit faults happen.

    * The two high-occurrence double-bit patterns and both 3-bit patterns
      recur on the degrading node (their November clustering drives
      Fig 11, and their simultaneity with single-bit errors gives the
      44 double+single / 2 triple+single / 1 double+double counts).
    * The remaining doubles recur each on one fixed node (a recurring
      weak multi-cell defect), times solar-modulated (Fig 6).
    * The seven >3-bit faults are the isolated-SDC population of Sec
      III-D: five otherwise-silent nodes, four of them adjacent to the
      overheating SoC-12 slots; two pairs share a calendar day (March and
      May) hours apart.
    """

    #: pattern key (expected, corrupted) -> node for recurring patterns.
    recurring_nodes: tuple[tuple[tuple[int, int], str], ...] = (
        ((0xFFFFFFFF, 0xFFFF7BFF), "02-04"),
        ((0xFFFFFFFF, 0xFFFF77FF), "02-04"),
        ((0xFFFFFFFF, 0xFFFF75FF), "02-04"),
        ((0xFFFFFFFF, 0xFFFFF1FF), "02-04"),
        ((0xFFFFFFFF, 0xFFFFF9FF), "02-04"),
        ((0xFFFFFFFF, 0xFFFFF3FF), "02-04"),
        ((0xFFFFFFFF, 0xFFFFF5FF), "43-03"),
        ((0xFFFFFFFF, 0xFFFF7DFF), "08-14"),
        ((0x000003C1, 0x000003C2), "55-07"),
        ((0xFFFFFFFF, 0xFFFFEEFF), "35-05"),
        ((0x000016BB, 0x000016B8), "47-02"),
    )
    #: Hosts of the >3-bit isolated faults.  "45-11" hosts three of them
    #: (the node with several); the other four nodes host one each and
    #: have no other error in the whole study.  Four of the five hosts sit
    #: adjacent to the overheating SoC-12 slots (Sec III-D).
    undetectable_hosts: tuple[tuple[int, str], ...] = (
        (0, "45-11"),  # 4-bit 0x00000461
        (1, "14-11"),  # 4-bit 0x00002957
        (2, "45-11"),  # 4-bit 0x000071b2
        (3, "23-13"),  # 5-bit
        (4, "45-11"),  # 6-bit
        (5, "37-11"),  # 8-bit
        (6, "52-08"),  # 9-bit (the one host away from SoC 12)
    )
    #: Study days of the >3-bit faults (same order as undetectable_hosts):
    #: two on one March day, hours apart; two on one May day (Fig 11).
    undetectable_days: tuple[int, ...] = (
        _day(2015, 3, 14),
        _day(2015, 3, 14),
        _day(2015, 2, 19),
        _day(2015, 5, 22),
        _day(2015, 5, 22),
        _day(2015, 3, 2),
        _day(2015, 3, 26),
    )
    #: How many of the degrading node's double-bit faults co-occur with a
    #: single-bit error elsewhere in its memory (Sec III-C: 44).
    doubles_with_companion: int = 44
    #: Both 3-bit faults co-occur with a single-bit error (Sec III-C: 2).
    triples_with_companion: int = 2
    #: One pair of double-bit faults shares a timestamp (Sec III-C).
    double_double_pairs: int = 1


@dataclass(frozen=True)
class CampaignConfig:
    """Everything the campaign simulator needs."""

    seed: int = DEFAULT_SEED
    n_days: int = timeutils.STUDY_DAYS
    topology: TopologyConfig = field(default_factory=TopologyConfig)
    calendar: AcademicCalendar = field(default_factory=AcademicCalendar)
    activity: ActivityConfig = field(default_factory=ActivityConfig)
    #: Daemon stochastics (see sessions.build_session_track).
    p_full_alloc: float = 0.92
    p_alloc_fail: float = 0.002
    leak_mean_mb: float = 400.0
    p_truncation: float = 0.004
    p_counting: float = 0.05
    #: Probability that a deep-vacation day has no jobs at all (full-day
    #: idle windows merge into multi-day sessions).
    p_zero_jobs_vacation: float = 0.8

    stuck: StuckNodeConfig = field(default_factory=StuckNodeConfig)
    degrading: DegradingNodeConfig = field(default_factory=DegradingNodeConfig)
    weak_bits: tuple[WeakBitConfig, ...] = (
        WeakBitConfig(
            node="04-05",
            bit=17,
            word_index=77_321_554,
            episode_window_days=(222, 295),
        ),
        WeakBitConfig(
            node="58-02",
            bit=3,
            word_index=401_118_209,
            episode_window_days=(252, 318),
        ),
    )
    background: BackgroundConfig = field(default_factory=BackgroundConfig)
    placement: CataloguePlacement = field(default_factory=CataloguePlacement)
    #: Day:night modulation of the multi-bit channel (environment model).
    multibit_day_night_ratio: float = 5.5

    #: Execution controls.  These steer *how* the campaign is computed,
    #: never *what* it produces: every backend/worker combination yields a
    #: bit-identical result for the same seed, so they are excluded from
    #: cache digests (see :data:`EXECUTION_FIELDS`).
    workers: int = 1
    backend: str = "auto"

    #: Nodes excluded from the background model because the paper requires
    #: them silent (the isolated-SDC hosts) or they have dedicated models.
    def reserved_nodes(self) -> set[str]:
        reserved = {self.stuck.node, self.degrading.node}
        reserved.update(w.node for w in self.weak_bits)
        reserved.update(n for _, n in self.placement.recurring_nodes)
        reserved.update(n for _, n in self.placement.undetectable_hosts)
        return reserved

    def validate(self) -> None:
        if self.degrading.onset_day >= self.degrading.ramp_end_day:
            raise ConfigurationError("degrading ramp must have positive length")
        if not 0.0 <= self.p_counting <= 1.0:
            raise ConfigurationError("p_counting must be a probability")
        self.activity.validate()
        hosts = [n for _, n in self.placement.undetectable_hosts]
        if len(self.placement.undetectable_days) != len(hosts):
            raise ConfigurationError("undetectable days/hosts length mismatch")
        if self.workers != -1 and self.workers < 1:
            raise ConfigurationError("workers must be >= 1 (or -1 for all CPUs)")
        from ..parallel import BACKENDS

        if self.backend not in BACKENDS:
            raise ConfigurationError(
                f"backend must be one of {BACKENDS}, got {self.backend!r}"
            )


#: CampaignConfig fields that steer execution without affecting results;
#: cache digests must ignore them (a 4-worker run answers a serial query).
EXECUTION_FIELDS: tuple[str, ...] = ("workers", "backend")


def paper_campaign_config(seed: int = DEFAULT_SEED) -> CampaignConfig:
    """The configuration behind every figure/table experiment."""
    config = CampaignConfig(seed=seed)
    config.validate()
    return config


def quick_campaign_config(seed: int = DEFAULT_SEED) -> CampaignConfig:
    """A small, fast machine for tests: fewer healthy nodes, same actors.

    The special-role nodes (stuck, degrading, weak-bit, catalogue hosts)
    are untouched, so every pipeline stage still sees every phenomenon;
    only the healthy background population shrinks via a shorter study.
    """
    config = CampaignConfig(
        seed=seed,
        n_days=120,
        topology=TopologyConfig(
            soc12_off_start_hours=40 * 24.0,
            soc12_off_end_hours=120 * 24.0,
            blade33_off_start_hours=30 * 24.0,
            blade33_off_end_hours=90 * 24.0,
        ),
        degrading=replace(
            DegradingNodeConfig(),
            onset_day=30,
            ramp_end_day=100,
            monitoring_gaps=((100, 105), (107, 120)),
        ),
        weak_bits=(
            WeakBitConfig(node="04-05", bit=17, word_index=77_321_554, n_episodes=3),
            WeakBitConfig(node="58-02", bit=3, word_index=401_118_209, n_episodes=3),
        ),
        placement=replace(
            CataloguePlacement(),
            undetectable_days=(41, 41, 18, 110, 110, 29, 53),
        ),
    )
    config.validate()
    return config
