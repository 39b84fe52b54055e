"""Configuration validation tests."""

import dataclasses

import pytest

from repro.core.errors import ConfigurationError
from repro.faultinjection.config import (
    CataloguePlacement,
    DegradingNodeConfig,
    paper_campaign_config,
    quick_campaign_config,
)
from repro.scheduler.jobs import ActivityConfig


class TestPaperConfig:
    def test_validates(self):
        paper_campaign_config().validate()

    def test_study_window(self):
        assert paper_campaign_config().n_days == 425

    def test_reserved_nodes_cover_special_roles(self):
        config = paper_campaign_config()
        reserved = config.reserved_nodes()
        assert config.stuck.node in reserved
        assert config.degrading.node in reserved
        for w in config.weak_bits:
            assert w.node in reserved
        for _, n in config.placement.undetectable_hosts:
            assert n in reserved

    def test_degrading_onset_in_august(self):
        config = paper_campaign_config()
        # 2015-08-01 is study day 181.
        assert config.degrading.onset_day == 181

    def test_undetectable_hosts_shape(self):
        placement = CataloguePlacement()
        hosts = [n for _, n in placement.undetectable_hosts]
        assert len(hosts) == 7
        assert len(set(hosts)) == 5  # 7 faults in 5 nodes
        # One node holds three of them.
        assert max(hosts.count(h) for h in set(hosts)) == 3

    def test_companion_budgets(self):
        placement = CataloguePlacement()
        assert placement.doubles_with_companion == 44
        assert placement.triples_with_companion == 2
        assert placement.double_double_pairs == 1


class TestQuickConfig:
    def test_validates(self):
        quick_campaign_config().validate()

    def test_shorter_window(self):
        assert quick_campaign_config().n_days < 200


class TestValidation:
    def test_bad_ramp_rejected(self):
        config = dataclasses.replace(
            paper_campaign_config(),
            degrading=dataclasses.replace(
                DegradingNodeConfig(), onset_day=100, ramp_end_day=50
            ),
        )
        with pytest.raises(ConfigurationError):
            config.validate()

    def test_bad_probability_rejected(self):
        config = dataclasses.replace(paper_campaign_config(), p_counting=1.5)
        with pytest.raises(ConfigurationError):
            config.validate()

    def test_no_windows_per_day_rejected(self):
        config = dataclasses.replace(
            quick_campaign_config(), activity=ActivityConfig(max_windows=0)
        )
        with pytest.raises(ConfigurationError, match="max_windows"):
            config.validate()

    def test_negative_mean_windows_rejected(self):
        config = dataclasses.replace(
            quick_campaign_config(), activity=ActivityConfig(mean_windows=-0.5)
        )
        with pytest.raises(ConfigurationError, match="mean_windows"):
            config.validate()

    def test_negative_idle_jitter_rejected(self):
        config = dataclasses.replace(
            quick_campaign_config(), activity=ActivityConfig(idle_jitter=-0.01)
        )
        with pytest.raises(ConfigurationError, match="idle_jitter"):
            config.validate()
