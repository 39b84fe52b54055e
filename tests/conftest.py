"""Shared fixtures: campaigns are expensive, so they are session-scoped."""

from __future__ import annotations

import pytest

from repro.analysis.report import StudyAnalysis
from repro.faultinjection import (
    paper_campaign_config,
    quick_campaign_config,
    run_campaign,
)


@pytest.fixture(scope="session")
def quick_campaign():
    """A small fast campaign exercising every phenomenon (~4 s once)."""
    return run_campaign(quick_campaign_config())


@pytest.fixture(scope="session")
def quick_analysis(quick_campaign) -> StudyAnalysis:
    return StudyAnalysis(quick_campaign)


@pytest.fixture(scope="session")
def paper_campaign_result():
    """The full paper-calibrated campaign (~15 s once per test session)."""
    return run_campaign(paper_campaign_config())


@pytest.fixture(scope="session")
def paper_analysis(paper_campaign_result) -> StudyAnalysis:
    return StudyAnalysis(paper_campaign_result)


@pytest.fixture
def node_01_02_raises(monkeypatch):
    """Node 01-02's unit raises RuntimeError, as a dead blade's would."""
    from repro.faultinjection import campaign

    real = campaign.gen_background

    def gen_background(track, config, rng):
        if track.node == "01-02":
            raise RuntimeError("dead blade")
        return real(track, config, rng)

    monkeypatch.setattr(campaign, "gen_background", gen_background)
