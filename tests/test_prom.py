"""Prometheus exposition: renderer, validator and reader.

The renderer is self-checking by construction — everything
``render_prometheus`` emits must pass ``validate_exposition``, and the
validator must in turn reject the classic exposition mistakes (dup
families, interleaved samples, malformed values) so the CI smoke step
actually guards something.
"""

import math

import pytest

from repro.obs import Metrics, collecting
from repro.obs.prom import (
    CONTENT_TYPE,
    parse_exposition,
    render_prometheus,
    sanitize_metric_name,
    validate_exposition,
)

pytestmark = pytest.mark.telemetry


# -- names ----------------------------------------------------------------


def test_sanitize_maps_dots_and_prefix():
    assert sanitize_metric_name("service.cache.hit", "repro") == (
        "repro_service_cache_hit"
    )
    assert sanitize_metric_name("plain") == "plain"


def test_sanitize_rewrites_illegal_characters():
    assert sanitize_metric_name("a-b c%d") == "a_b_c_d"
    # a leading digit is illegal in Prometheus names
    assert sanitize_metric_name("9lives").startswith("_")


def test_content_type_pins_the_text_format_version():
    assert "version=0.0.4" in CONTENT_TYPE
    assert CONTENT_TYPE.startswith("text/plain")


# -- rendering ------------------------------------------------------------


def _snapshot(**overrides):
    snapshot = {"counters": {}, "gauges": {}, "histograms": {}}
    snapshot.update(overrides)
    return snapshot


def test_counters_render_as_total_families():
    text = render_prometheus(
        _snapshot(counters={"service.submitted": 3, "flow.allocated": 1})
    )
    samples = parse_exposition(text)
    assert samples["repro_service_submitted_total"] == 3
    assert samples["repro_flow_allocated_total"] == 1
    assert "# TYPE repro_service_submitted_total counter" in text


def test_colliding_sanitized_counters_are_summed():
    # "a.b" and "a_b" sanitize to the same family; the renderer must
    # not emit two samples with one name (that would be invalid)
    text = render_prometheus(_snapshot(counters={"a.b": 2, "a_b": 5}))
    assert validate_exposition(text) == []
    assert parse_exposition(text)["repro_a_b_total"] == 7


def test_non_numeric_gauges_are_skipped():
    text = render_prometheus(
        _snapshot(gauges={"service.queue_depth": 4, "service.label": "1/3"})
    )
    samples = parse_exposition(text)
    assert samples["repro_service_queue_depth"] == 4
    assert "repro_service_label" not in text


#: every duration the engines and the allocation steps record, as the
#: family it renders to (each the name its summary family once had)
DURATION_FAMILIES = (
    "repro_state_space_execute_seconds",
    "repro_constrained_execute_seconds",
    "repro_mcr_enumerate_seconds",
    "repro_mcr_lawler_seconds",
    "repro_mcr_howard_seconds",
    "repro_allocate_binding_seconds",
    "repro_allocate_binding_aware_seconds",
    "repro_allocate_scheduling_seconds",
    "repro_allocate_slices_seconds",
)


def test_durations_render_as_histogram_families(
    simple_cycle_graph, example_application, example_architecture
):
    from repro.core.strategy import ResourceAllocator
    from repro.throughput.howard import howard_max_cycle_ratio
    from repro.throughput.mcr import (
        max_cycle_ratio_exact,
        max_cycle_ratio_numeric,
    )
    from repro.throughput.state_space import throughput

    with collecting() as metrics:
        throughput(simple_cycle_graph)
        max_cycle_ratio_exact(simple_cycle_graph)
        max_cycle_ratio_numeric(simple_cycle_graph)
        howard_max_cycle_ratio(simple_cycle_graph)
        ResourceAllocator().allocate(example_application, example_architecture)
    text = render_prometheus(metrics.snapshot())
    assert validate_exposition(text) == []
    samples = parse_exposition(text)
    for family in DURATION_FAMILIES:
        assert f"# TYPE {family} histogram" in text
        assert samples[f"{family}_count"] >= 1
        assert samples[f'{family}_bucket{{le="+Inf"}}'] == (
            samples[f"{family}_count"]
        )
    assert "summary" not in text


def test_histograms_render_cumulative_buckets():
    metrics = Metrics()
    for value in (0.5, 1.5, 1.5, 99.0):
        metrics.histogram("service.wait", value, buckets=(1.0, 2.0, 4.0))
    text = render_prometheus(metrics.snapshot())
    samples = parse_exposition(text)
    family = "repro_service_wait"
    assert samples[f'{family}_bucket{{le="1.0"}}'] == 1
    assert samples[f'{family}_bucket{{le="2.0"}}'] == 3  # cumulative
    assert samples[f'{family}_bucket{{le="4.0"}}'] == 3
    assert samples[f'{family}_bucket{{le="+Inf"}}'] == 4
    assert samples[f"{family}_count"] == 4
    assert samples[f"{family}_sum"] == pytest.approx(102.5)
    assert validate_exposition(text) == []


def test_special_float_values_render_legibly():
    text = render_prometheus(
        _snapshot(gauges={"inf": math.inf, "ninf": -math.inf})
    )
    assert "repro_inf +Inf" in text
    assert "repro_ninf -Inf" in text
    assert validate_exposition(text) == []


def test_empty_snapshot_renders_empty():
    assert render_prometheus(_snapshot()) == ""
    assert validate_exposition("") == []


def test_full_registry_round_trip_is_valid():
    metrics = Metrics()
    metrics.counter("state_space.states", 42)
    metrics.gauge("slices.shared_slice", 5)
    metrics.histogram("mcr.howard_seconds", 0.002)
    metrics.histogram("service.attempt_seconds", 0.25)
    text = render_prometheus(metrics.snapshot())
    assert validate_exposition(text) == []
    assert parse_exposition(text)["repro_state_space_states_total"] == 42


# -- validation -----------------------------------------------------------


def test_validate_flags_duplicate_type_lines():
    text = "# TYPE a counter\na 1\n# TYPE a counter\n"
    assert any("duplicate TYPE" in p for p in validate_exposition(text))


def test_validate_flags_malformed_samples():
    assert any(
        "malformed sample" in p
        for p in validate_exposition("not a metric line at all {\n")
    )
    assert any(
        "malformed sample" in p for p in validate_exposition("name 1 extra\n")
    )


def test_validate_flags_duplicate_samples():
    text = 'a{x="1"} 1\na{x="1"} 2\n'
    assert any("duplicate sample" in p for p in validate_exposition(text))


def test_validate_flags_interleaved_families():
    text = "a 1\nb 2\na_sum 3\n"
    assert any("non-consecutive" in p for p in validate_exposition(text))


def test_validate_accepts_suffixed_family_runs():
    # _bucket/_sum/_count belong to one histogram family — consecutive
    text = (
        "# TYPE h histogram\n"
        'h_bucket{le="1"} 1\nh_bucket{le="+Inf"} 2\nh_sum 3.0\nh_count 2\n'
    )
    assert validate_exposition(text) == []


# -- parsing --------------------------------------------------------------


def test_parse_skips_comments_and_junk():
    samples = parse_exposition(
        "# HELP x whatever\n# TYPE x counter\nx 4\n?!garbage\n\n"
    )
    assert samples == {"x": 4.0}


def test_parse_keeps_label_sets_distinct():
    samples = parse_exposition('s{quantile="0.5"} 1\ns{quantile="0.95"} 2\n')
    assert samples['s{quantile="0.5"}'] == 1.0
    assert samples['s{quantile="0.95"}'] == 2.0
