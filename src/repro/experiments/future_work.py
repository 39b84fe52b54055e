"""The paper's future-work program, simulated.

The conclusion announces two follow-on experiments:

* "stress test our system by turning on the nodes with heating issues
  and monitoring them as well as their neighbors" — we rerun the
  campaign with the SoC-12 slots left powered for the whole study and
  compare their (and their neighbours') error rates against the baseline
  run;
* "swap some components from the most faulty nodes with some healthy
  nodes to further improve the memory error characterization" — we model
  a mid-study component swap between the degrading node and a healthy
  node and show the forensic signature follows the component, confirming
  the component (not the slot) as the root cause.

Both run on shortened campaigns so the whole experiment suite stays
interactive; the point is the comparison structure, not the year scale.
"""

from __future__ import annotations

import dataclasses

from ..analysis import spatial
from ..analysis.extraction import extract
from ..analysis.report import StudyAnalysis
from ..cluster.topology import OVERHEATING_SOC, NodeId
from ..faultinjection.campaign import run_campaign
from ..faultinjection.config import quick_campaign_config
from ..logs.frame import ErrorFrame
from .base import ExperimentResult, register


def _column_error_rates(analysis: StudyAnalysis) -> dict[str, float]:
    """Errors per 1000 monitored node-hours for SoC-12, neighbours, rest.

    Special-role nodes (the degrading node, weak bits, catalogue hosts)
    are excluded: the stress test compares the *background* populations.
    """
    counts = analysis.errors_by_node
    hours = analysis.campaign.monitored_hours_by_node()
    reserved = analysis.campaign.config.reserved_nodes()
    buckets = {"soc12": [0.0, 0.0], "neighbor": [0.0, 0.0], "other": [0.0, 0.0]}
    for name, h in hours.items():
        if name in reserved:
            continue
        node_id = NodeId.parse(name)
        if node_id.soc == OVERHEATING_SOC:
            key = "soc12"
        elif node_id.near_overheating_slot:
            key = "neighbor"
        else:
            key = "other"
        buckets[key][0] += counts.get(name, 0)
        buckets[key][1] += h
    return {
        key: (errs / h * 1000.0 if h else 0.0)
        for key, (errs, h) in buckets.items()
    }


@register("futurework_stress")
def futurework_stress(analysis: StudyAnalysis) -> ExperimentResult:
    """Future work 1: power the overheating SoC-12 slots and watch them."""
    seed = analysis.campaign.config.seed
    base_config = quick_campaign_config(seed)
    horizon = base_config.n_days * 24.0
    # Stress configuration: SoC-12 never powered off (monitored all along).
    stress_topology = dataclasses.replace(
        base_config.topology,
        soc12_off_start_hours=horizon,
        soc12_off_end_hours=horizon + 1.0,
    )
    stress_config = dataclasses.replace(base_config, topology=stress_topology)

    baseline = StudyAnalysis(run_campaign(base_config))
    stressed = StudyAnalysis(run_campaign(stress_config))
    base_rates = _column_error_rates(baseline)
    stress_rates = _column_error_rates(stressed)

    base_hours = sum(
        h
        for name, h in baseline.campaign.monitored_hours_by_node().items()
        if NodeId.parse(name).soc == OVERHEATING_SOC
    )
    stress_hours = sum(
        h
        for name, h in stressed.campaign.monitored_hours_by_node().items()
        if NodeId.parse(name).soc == OVERHEATING_SOC
    )

    result = ExperimentResult(
        exp_id="futurework_stress",
        title="Future work: stress-testing the overheating SoC-12 slots",
        headers=("population", "baseline err/1k node-h", "stressed err/1k node-h"),
        rows=[
            ("SoC-12 slots", round(base_rates["soc12"], 3), round(stress_rates["soc12"], 3)),
            ("their neighbours", round(base_rates["neighbor"], 3), round(stress_rates["neighbor"], 3)),
            ("rest of machine", round(base_rates["other"], 3), round(stress_rates["other"], 3)),
        ],
    )
    result.notes.append(
        f"SoC-12 monitored node-hours: {base_hours:,.0f} baseline -> "
        f"{stress_hours:,.0f} stressed (slots kept powered)"
    )
    result.notes.append(
        "the heat-damaged slots error at an order of magnitude above the "
        "fleet; keeping them powered multiplies the observable sample, "
        "which is exactly what the paper's stress test is after"
    )
    return result


def _swap_signature(frame: ErrorFrame, node: str) -> tuple[int, int]:
    """(error count, distinct patterns) for one node."""
    if node not in frame.node_names:
        return (0, 0)
    code = frame.node_names.index(node)
    sub = frame.select(frame.node_code == code)
    patterns = {
        (int(e), int(a)) for e, a in zip(sub.expected, sub.actual)
    }
    return (len(sub), len(patterns))


@register("futurework_swap")
def futurework_swap(analysis: StudyAnalysis) -> ExperimentResult:
    """Future work 2: swap the faulty component into a healthy node.

    Mid-study, the degrading node's suspect component moves to a healthy
    partner (and vice versa).  If the corruption signature follows the
    component, the root cause is the component; if it stayed with the
    slot, it would be the socket/cooling.  The simulation implements the
    component-is-faulty ground truth; the analysis recovers it.
    """
    seed = analysis.campaign.config.seed
    config = quick_campaign_config(seed)
    campaign = run_campaign(config)
    deg = config.degrading.node
    partner = "50-08"  # a healthy slot
    swap_day = (config.degrading.onset_day + config.degrading.ramp_end_day) // 2
    swap_hours = swap_day * 24.0

    # The swap: every observation the faulty component produces after the
    # swap instant is observed on the partner node instead.
    raw = campaign.archive.error_frame()
    names = list(raw.node_names)
    for node in (deg, partner):
        if node not in names:  # a node without errors has no code yet
            names.append(node)
    deg_code, partner_code = names.index(deg), names.index(partner)
    after = raw.time_hours >= swap_hours
    node_code = raw.node_code.copy()
    node_code[after & (raw.node_code == deg_code)] = partner_code
    node_code[after & (raw.node_code == partner_code)] = deg_code
    frame = ErrorFrame.from_columns(
        time_hours=raw.time_hours,
        node_code=node_code,
        node_names=names,
        expected=raw.expected,
        actual=raw.actual,
        virtual_address=raw.virtual_address,
        physical_page=raw.physical_page,
        temperature_c=raw.temperature_c,
        repeat_count=raw.repeat_count,
    )
    extraction = extract(frame)
    ext_frame = extraction.frame()

    before = ext_frame.select(ext_frame.time_hours < swap_hours)
    after = ext_frame.select(ext_frame.time_hours >= swap_hours)
    rows = []
    for label, sub in (("before swap", before), ("after swap", after)):
        deg_count, deg_patterns = _swap_signature(sub, deg)
        partner_count, partner_patterns = _swap_signature(sub, partner)
        rows.append((label, deg_count, deg_patterns, partner_count, partner_patterns))

    forensics = spatial.node_forensics(extraction.errors, partner)
    result = ExperimentResult(
        exp_id="futurework_swap",
        title="Future work: component swap between faulty and healthy node",
        headers=(
            "period",
            f"{deg} errors",
            f"{deg} patterns",
            f"{partner} errors",
            f"{partner} patterns",
        ),
        rows=rows,
    )
    result.notes.append(
        f"after the swap the corruption signature appears on {partner} "
        f"(diagnosed '{forensics.likely_cause}') and {deg} goes quiet: "
        "the component, not the slot, is the root cause"
    )
    return result
