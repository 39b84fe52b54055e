"""Dataset assembly and the leak-free split property tests.

The leak-freedom checks introspect the *plan objects* — every feature
plan must structurally bound the time column strictly below its
reference instant — which is a stronger guarantee than spot-checking
extracted values.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.ml import (
    DatasetSpec,
    FeatureSpec,
    build_dataset,
    feature_plans,
    label_plan,
    reference_times,
    time_split,
)

from .conftest import SPLIT_HOURS, STUDY_HOURS


def _time_bounds(plan) -> tuple[float, float]:
    """(max lower bound, min upper bound) the plan places on ``t``."""
    lo, hi = -np.inf, np.inf
    for pred in plan.filters:
        if pred.column != "t":
            continue
        if pred.op in ("ge", "gt"):
            lo = max(lo, float(pred.value))
        elif pred.op in ("lt", "le"):
            hi = min(hi, float(pred.value))
        else:
            pytest.fail(f"unexpected op on t: {pred.op}")
    return lo, hi


@pytest.mark.parametrize("t0", [168.0, 250.0, 399.5])
def test_feature_plans_bound_t_below_t0(t0):
    """Structural leak-freedom: every plan constrains t to [*, t0)."""
    spec = FeatureSpec()
    plans = feature_plans(t0, spec)
    assert set(plans) >= {"multibit", "bits", "temperature", "night", "scan"}
    for key, plan in plans.items():
        lo, hi = _time_bounds(plan)
        assert hi <= t0, f"plan {key!r} reads t >= t0"
        assert lo >= t0 - spec.lookback_hours, (
            f"plan {key!r} reaches beyond the lookback"
        )
        # The bound is strict: 'lt', never 'le'.
        ops = {p.op for p in plan.filters if p.column == "t"}
        assert "le" not in ops and "gt" not in ops


def test_label_plan_covers_exactly_the_horizon():
    spec = FeatureSpec()
    plan = label_plan(300.0, spec)
    lo, hi = _time_bounds(plan)
    assert lo == 300.0
    assert hi == 300.0 + spec.horizon_hours


def test_reference_times_geometry():
    spec = DatasetSpec(
        features=FeatureSpec(),
        start_hours=0.0,
        end_hours=STUDY_HOURS,
        stride_hours=24.0,
    )
    times = reference_times(spec)
    assert times[0] == spec.features.lookback_hours
    assert times[-1] <= STUDY_HOURS - spec.features.horizon_hours
    assert np.allclose(np.diff(times), 24.0)
    # A span too short for lookback + horizon yields no samples.
    short = DatasetSpec(
        features=FeatureSpec(), start_hours=0.0, end_hours=100.0
    )
    assert reference_times(short).shape == (0,)


def test_dataset_shape(dataset, engine):
    n_universe = len(engine.source.shards().nodes)
    spec = DatasetSpec(
        features=FeatureSpec(),
        start_hours=0.0,
        end_hours=STUDY_HOURS,
        stride_hours=24.0,
    )
    n_times = reference_times(spec).shape[0]
    assert dataset.n_samples == n_times * n_universe
    assert dataset.X.shape == (dataset.n_samples, len(dataset.feature_names))
    assert dataset.y.shape == (dataset.n_samples,)
    assert 0.0 < dataset.base_rate < 0.5


def test_time_split_is_leak_free(dataset, splits):
    train, evals = splits
    horizon = dataset.horizon_hours
    assert train.n_samples and evals.n_samples
    # Train label horizons close at or before the split instant...
    assert np.all(train.t0 + horizon <= SPLIT_HOURS)
    # ...eval references start at or after it...
    assert np.all(evals.t0 >= SPLIT_HOURS)
    # ...and samples straddling the boundary are dropped, not assigned.
    straddle = (dataset.t0 + horizon > SPLIT_HOURS) & (
        dataset.t0 < SPLIT_HOURS
    )
    assert train.n_samples + evals.n_samples + int(straddle.sum()) == (
        dataset.n_samples
    )


def test_select_keeps_columns_aligned(dataset):
    mask = dataset.y == 1
    positives = dataset.select(mask)
    assert positives.n_samples == int(mask.sum())
    assert np.all(positives.y == 1)
    idx = np.flatnonzero(mask)
    assert positives.nodes == tuple(dataset.nodes[i] for i in idx)
    assert np.array_equal(positives.X, dataset.X[idx])
