"""Sec III-D and Sec III-G: undetectable errors and the Pearson check."""

from __future__ import annotations

import numpy as np

from ..analysis import spatial
from ..analysis.report import StudyAnalysis
from ..cluster.topology import NodeId
from ..core import bitops, timeutils
from ..ecc import SECDED_32, Outcome
from .base import ExperimentResult, register


@register("sec3d_undetectable")
def sec3d_undetectable(analysis: StudyAnalysis) -> ExperimentResult:
    """Sec III-D: the isolated >3-bit (SECDED-escaping) faults."""
    undetectable = sorted(
        (e for e in analysis.errors if e.n_bits > 3),
        key=lambda e: e.first_seen_hours,
    )
    outcomes = [
        SECDED_32.decode_flips(e.expected, e.flip_mask).outcome
        for e in undetectable
    ]
    counts = analysis.errors_by_node
    rows = []
    for e, secded in zip(undetectable, outcomes):
        node_id = NodeId.parse(e.node)
        rows.append(
            (
                str(timeutils.date_of(e.first_seen_hours)),
                e.node,
                e.n_bits,
                bitops.format_word(e.expected),
                bitops.format_word(e.actual),
                "yes" if node_id.near_overheating_slot else "no",
                counts.get(e.node, 0),
                "no" if e.temperature_c is None else f"{e.temperature_c:.0f}C",
                secded.name.lower(),
            )
        )
    hosts = {e.node for e in undetectable}
    lonely = sum(1 for e in undetectable if counts.get(e.node, 0) == 1)
    near = sum(1 for h in hosts if NodeId.parse(h).near_overheating_slot)
    sdc = outcomes.count(Outcome.SDC)
    result = ExperimentResult(
        exp_id="sec3d_undetectable",
        title="Undetectable (>3-bit) errors: isolation analysis",
        headers=(
            "date",
            "node",
            "bits",
            "expected",
            "corrupted",
            "near SoC-12",
            "node's total errors",
            "temp logged",
            "SECDED outcome",
        ),
        rows=rows,
    )
    result.notes.append(
        f"{len(undetectable)} faults in {len(hosts)} nodes (paper: 7 in 5)"
    )
    result.notes.append(
        f"faults whose host had only that one error: {lonely} (paper: 4)"
    )
    result.notes.append(
        f"hosts near the overheating SoC-12 slots: {near} (paper: 4)"
    )
    result.notes.append(
        f"faults escaping SECDED as silent corruption when replayed "
        f"through the honest codec: {sdc} of {len(undetectable)}"
    )
    return result


@register("sec1_exascale_projection")
def sec1_exascale_projection(analysis: StudyAnalysis) -> ExperimentResult:
    """Sec I/VI: project the measured rates to extreme-scale machines."""
    from ..analysis.projection import (
        measured_rates,
        paper_processor_example,
        project,
    )
    from ..kernels.ecc import secded_classify
    from ..resilience import table2

    frame = analysis.frame.exclude_nodes(
        [analysis.campaign.config.degrading.node]
    )
    codes = secded_classify(frame.expected, frame.actual)
    n_detected = int(np.count_nonzero(codes == Outcome.DETECTED))
    q30 = table2(analysis.frame, analysis.campaign.study_hours)[-1]
    rates = measured_rates(
        n_errors_raw=len(frame),
        n_errors_quarantined=q30.n_errors,
        n_detected_under_ecc=n_detected,
        total_node_hours=analysis.campaign.total_node_hours(),
    )
    rows = []
    for label, rate in rates.items():
        proj = project(rate, label)
        for p in proj.points:
            rows.append(
                (
                    label,
                    f"{p.n_nodes:,}",
                    f"{p.machine_mtbf_hours:,.2f} h",
                    f"{p.checkpoint_interval_hours:.2f} h",
                    f"{p.waste_fraction:.1%}",
                )
            )
    result = ExperimentResult(
        exp_id="sec1_exascale_projection",
        title="Measured rates projected to extreme-scale fleets",
        headers=("operating point", "nodes", "machine MTBF", "ckpt interval", "waste"),
        rows=rows,
    )
    result.notes.append(
        f"the paper's own Sec I example (25-year processors x 100k) gives "
        f"{paper_processor_example():.1f} h machine MTBF; the measured "
        "operating points show how far policy (quarantine) and protection "
        "(ECC) move that curve"
    )
    result.notes.append(
        "independence across nodes assumed, as in the paper's arithmetic; "
        "the measured spatio-temporal correlation makes the raw projection "
        "pessimistic and the quarantined one achievable"
    )
    return result


@register("sec2_beam_vs_field")
def sec2_beam_vs_field(analysis: StudyAnalysis) -> ExperimentResult:
    """Sec I/II argument: accelerated beam tests vs a year in the field.

    The beam measures the background physics correctly but knows nothing
    of degrading components, weak bits or burstiness — the populations
    that dominate the real field error rate.
    """
    from ..faultinjection.beam import (
        BeamTestConfig,
        compare_with_field,
        run_beam_test,
    )

    beam = run_beam_test(BeamTestConfig())
    reserved = analysis.campaign.config.reserved_nodes()
    background = sum(
        1
        for e in analysis.errors
        if e.node not in reserved and e.n_bits == 1
    )
    field_bit_hours = (
        analysis.campaign.total_terabyte_hours() * 1024 * 1024 * 8 * 1024 * 1024
    )
    cmp = compare_with_field(
        beam,
        background_errors=background,
        total_errors=analysis.extraction.n_errors,
        field_bit_hours=field_bit_hours,
    )
    result = ExperimentResult(
        exp_id="sec2_beam_vs_field",
        title="Accelerated beam test vs field measurement",
        headers=("quantity", "value"),
        rows=[
            ("beam upsets observed", beam.n_upsets),
            ("beam acceleration factor", f"{beam.acceleration:.0e}"),
            ("beam-predicted field rate (/bit-h)", f"{cmp.beam_predicted_rate:.2e}"),
            ("field background rate (/bit-h)", f"{cmp.field_background_rate:.2e}"),
            ("field TOTAL rate (/bit-h)", f"{cmp.field_total_rate:.2e}"),
            ("background / prediction", f"{cmp.background_ratio:.1f}x"),
            ("total / prediction", f"{cmp.total_underestimate:,.0f}x"),
        ],
    )
    result.notes.append(
        "paper Sec I: beam estimates 'are not exact as those accelerated "
        "soft error studies fail to consider factors such as the impact "
        "of temperature or neutron flux variation' — and, above all, the "
        "pathological populations: the beam nails the background physics "
        "(ratio ~1) but the real field rate is orders of magnitude higher"
    )
    return result


@register("sec3c_alignment")
def sec3c_alignment(analysis: StudyAnalysis) -> ExperimentResult:
    """Sec III-C hypothesis test: are simultaneous corruptions physically
    aligned (same bank/row) despite scattered logical addresses?"""
    from ..analysis import alignment as align

    groups = [g for g in analysis.groups if g.is_simultaneous]
    stats = align.alignment_stats(groups)
    spread = align.logical_spread(groups)
    result = ExperimentResult(
        exp_id="sec3c_alignment",
        title="Physical alignment of simultaneous corruptions",
        headers=("quantity", "value"),
        rows=[
            ("simultaneity groups analysed", stats.n_groups),
            (
                "groups confined to one physical column",
                f"{stats.fraction_same_column:.1%}",
            ),
            ("groups confined to one bank", f"{stats.fraction_same_bank:.1%}"),
            (
                "random-pairing baseline (same column)",
                f"{stats.baseline_same_column:.2%}",
            ),
            (
                "column-alignment enrichment",
                f"{stats.column_alignment_ratio:,.1f}x",
            ),
            ("median logical spread within a group", f"{spread/1e6:.0f} MB"),
        ],
    )
    result.notes.append(
        "paper: 'we suspect that the affected memory cells are in physical "
        "proximity or alignment (row, column, bank) however the memory "
        "controller maps them to different address words' — with the "
        "simulated controller's geometry the hypothesis is testable, and "
        "holds: same-column alignment is strongly enriched over the "
        "random-pairing baseline while the same groups span gigabytes of "
        "logical address space."
    )
    return result


@register("sec3g_pearson")
def sec3g_pearson(analysis: StudyAnalysis) -> ExperimentResult:
    """Sec III-G: scanning volume does not induce the observed errors."""
    p = analysis.pearson
    result = ExperimentResult(
        exp_id="sec3g_pearson",
        title="Pearson correlation: daily TB-hours scanned vs daily errors",
        headers=("quantity", "paper", "measured"),
        rows=[
            ("Pearson r", "-0.17966", f"{p.r:+.5f}"),
            ("p-value", "0.0002", f"{p.p_value:.2g}"),
            ("days", "~425", p.n),
            ("weak anti-correlation", "yes", "yes" if p.is_weak and p.r < 0 else "no"),
        ],
    )
    result.notes.append(
        "paper: 'the memory scanning methodology does not influence in "
        "any way the number of memory errors observed'"
    )
    return result


@register("whatif_ecc_campaign")
def whatif_ecc_campaign(analysis: StudyAnalysis) -> ExperimentResult:
    """What the same year looks like on a SECDED-protected machine.

    Every extracted fault is replayed through the honest (39,32) codec:
    corrected faults become invisible ECC-counter ticks, detected ones
    become machine-check crashes, escapes stay silent corruption.  This
    is the translation layer between this study's raw numbers and every
    prior ECC-counter-based field study the paper contrasts itself with.
    """
    from ..kernels.ecc import secded_classify

    frame = analysis.frame
    codes = secded_classify(frame.expected, frame.actual)
    corrected, detected, sdc = (
        int(n) for n in np.bincount(codes, minlength=len(Outcome))
    )
    study_hours = analysis.campaign.study_hours
    rows = [
        ("ECC corrections (invisible to users)", corrected),
        ("machine-check crashes (detected uncorrectable)", detected),
        ("silent corruptions escaping ECC", sdc),
        (
            "user-perceived crash MTBF",
            f"{study_hours / detected:,.1f} h" if detected else "inf",
        ),
        (
            "silent-corruption interval",
            f"{study_hours / sdc / 24:,.1f} days" if sdc else "inf",
        ),
    ]
    result = ExperimentResult(
        exp_id="whatif_ecc_campaign",
        title="The same year on a SECDED-protected machine",
        headers=("quantity", "value"),
        rows=rows,
    )
    result.notes.append(
        "this is what an ECC-counter-based study (the related work the "
        "paper contrasts itself with) would have seen: tens of thousands "
        "of corrections, a handful of crashes — and zero visibility into "
        "the simultaneity, bit-structure and SDC analyses this study "
        "could do on the raw stream"
    )
    return result


@register("headline")
def headline(analysis: StudyAnalysis) -> ExperimentResult:
    """Abstract/Sec III-B headline statistics, paper vs measured."""
    report = analysis.report()
    result = ExperimentResult(
        exp_id="headline",
        title="Headline statistics",
        headers=("metric", "paper", "measured"),
        rows=list(report.rows()),
    )
    conc = spatial.concentration_stats(
        analysis.errors_by_node, analysis.campaign.registry.n_scanned
    )
    result.notes.append(
        f"{conc.nodes_for_999} nodes ({conc.node_fraction:.2%} of the "
        f"machine) carry {conc.top_fraction:.2%} of all errors "
        "(paper: >99.9% of errors in <1% of nodes)"
    )
    return result
