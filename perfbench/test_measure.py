"""Tests of the benchmark's own helpers (run with ``PYTHONPATH=src python -m pytest perfbench``)."""

import asyncio
import time

import pytest

from perfbench.measure import (
    Span,
    Tracer,
    extreme_groups,
    histogram_mean_delta,
    histogram_sum_count,
    metric_total,
    parse_prometheus,
    percentile,
    self_time,
    two_speed_percentile,
)


class TestPercentile:
    def test_nearest_rank_and_samples_beyond(self):
        values = list(range(1, 101))  # 1..100
        assert percentile(values, 50) == (50, 50)
        assert percentile(values, 90) == (90, 10)
        assert percentile(values, 99) == (99, 1)
        assert percentile(values, 100) == (100, 0)

    def test_unsorted_input_and_small_samples(self):
        assert percentile([5.0, 1.0, 3.0], 50) == (3.0, 1)
        # A p90 over 5 samples is the maximum, with nothing beyond it.
        assert percentile([4, 2, 5, 1, 3], 90) == (5, 0)
        assert percentile([7.5], 99) == (7.5, 0)

    @pytest.mark.parametrize("q", [0, -1, 101])
    def test_rejects_out_of_range_q(self, q):
        with pytest.raises(ValueError):
            percentile([1, 2, 3], q)

    def test_rejects_empty_sample(self):
        with pytest.raises(ValueError):
            percentile([], 50)


def _span(name, start, end, span_id, parent_id=None):
    return Span(name, start, end, span_id, parent_id)


class TestSelfTime:
    def test_subtracts_children(self):
        parent = _span("http.get", 0.0, 10.0, 1)
        children = [_span("async.get", 1.0, 4.0, 2, 1), _span("async.get", 5.0, 7.0, 3, 1)]
        assert self_time(parent, children) == pytest.approx(5.0)

    def test_no_children_is_the_whole_span(self):
        assert self_time(_span("leaf", 2.0, 3.5, 1), []) == pytest.approx(1.5)


class TestTracer:
    def test_nesting_and_self_times(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                time.sleep(0.01)
        inner, outer = tracer.spans
        assert (inner.name, outer.name) == ("inner", "outer")
        assert inner.parent_id == outer.span_id and outer.parent_id is None
        (outer_self,) = tracer.self_times("outer")
        assert outer_self == pytest.approx(outer.duration - inner.duration)

    def test_grandchildren_and_siblings_are_not_subtracted(self):
        tracer = Tracer()
        with tracer.span("root"):
            with tracer.span("child"):
                with tracer.span("grandchild"):
                    time.sleep(0.002)
        with tracer.span("root"):
            pass
        grandchild, child, first, second = tracer.spans
        assert tracer.self_times("root") == [
            pytest.approx(first.duration - child.duration),
            pytest.approx(second.duration),
        ]
        assert tracer.self_times("child") == [
            pytest.approx(child.duration - grandchild.duration)
        ]

    def test_spans_nest_across_a_thread_hop(self):
        tracer = Tracer()

        def blocking():
            with tracer.span("library.get"):
                pass

        async def main():
            with tracer.span("async.get"):
                await asyncio.to_thread(blocking)

        asyncio.run(main())
        child = tracer.named("library.get")[0]
        parent = tracer.named("async.get")[0]
        assert child.parent_id == parent.span_id

    def test_sibling_roots_have_no_parent(self):
        tracer = Tracer()
        for _ in range(2):
            with tracer.span("op"):
                pass
        first, second = tracer.spans
        assert first.span_id != second.span_id
        assert first.parent_id is None and second.parent_id is None


class TestTwoSpeed:
    def test_extremes_by_group_total(self):
        groups = [[1.0, 1.0], [3.0], [0.5, 0.5, 0.5], [2.0, 2.5], [1.8]]
        # Totals 2, 3, 1.5, 4.5 and 1.8: a third of five rounds up to two.
        fast, slow = extreme_groups(groups, 1 / 3)
        assert sorted(fast) == [0.5, 0.5, 0.5, 1.8]
        assert sorted(slow) == [2.0, 2.5, 3.0]

    def test_keeps_one_group_a_side_and_ignores_empty_ones(self):
        assert extreme_groups([[], [2.0], [], [5.0]], 0.01) == ([2.0], [5.0])
        assert extreme_groups([[4.0]], 0.5) == ([4.0], [4.0])

    @pytest.mark.parametrize("share", [0, -0.5, 0.75])
    def test_rejects_a_share_outside_0_half(self, share):
        with pytest.raises(ValueError):
            extreme_groups([[1.0]], share)

    def test_mean_of_the_two_sides_does_not_follow_the_mix(self):
        fast, slow = [[1.0]] * 3, [[1.5]] * 3
        # Whether a run spends half or most of its time slow, the value
        # stays halfway between the two speeds.
        assert two_speed_percentile(fast + slow, 1 / 6, 50)[0] == 1.25
        assert two_speed_percentile(fast + slow * 3, 1 / 6, 50)[0] == 1.25

    def test_reports_the_fewer_samples_beyond(self):
        groups = [[1.0] * 10, [3.0] * 40]
        value, beyond = two_speed_percentile(groups, 0.5, 90)
        assert value == 2.0 and beyond == 1


METRICS_TEXT = """\
# HELP zsmiles_server_request_seconds Wall time from parsed request to response written
# TYPE zsmiles_server_request_seconds histogram
zsmiles_server_request_seconds_bucket{route="single",le="0.001"} 3
zsmiles_server_request_seconds_bucket{route="single",le="+Inf"} 4
zsmiles_server_request_seconds_sum{route="single"} 0.0125
zsmiles_server_request_seconds_count{route="single"} 4
zsmiles_server_request_seconds_sum{route="batch"} 0.5
zsmiles_server_request_seconds_count{route="batch"} 2
# TYPE zsmiles_server_errors_total counter
zsmiles_server_errors_total{type="NotFound"} 2
zsmiles_server_errors_total{type="ProtocolError"} 1
zsmiles_store_blocks_decoded_total 17
"""


class TestPrometheusParsing:
    def test_samples_are_keyed_by_name_and_sorted_labels(self):
        samples = parse_prometheus(METRICS_TEXT)
        assert samples[("zsmiles_store_blocks_decoded_total", ())] == 17.0
        key = ("zsmiles_server_request_seconds_bucket", (("le", "+Inf"), ("route", "single")))
        assert samples[key] == 4.0

    def test_histogram_sum_and_count_by_label(self):
        samples = parse_prometheus(METRICS_TEXT)
        name = "zsmiles_server_request_seconds"
        assert histogram_sum_count(samples, name, route="single") == (0.0125, 4.0)
        assert histogram_sum_count(samples, name, route="batch") == (0.5, 2.0)
        assert histogram_sum_count(samples, name) == (0.5125, 6.0)
        assert histogram_sum_count(samples, name, route="stream") == (0.0, 0.0)

    def test_counter_total_over_labels(self):
        samples = parse_prometheus(METRICS_TEXT)
        assert metric_total(samples, "zsmiles_server_errors_total") == 3.0
        assert metric_total(samples, "zsmiles_server_errors_total", type="NotFound") == 2.0
        assert metric_total(samples, "absent_total") == 0.0

    def test_mean_between_two_scrapes(self):
        before = parse_prometheus(METRICS_TEXT)
        after = parse_prometheus(
            METRICS_TEXT.replace(
                'seconds_sum{route="single"} 0.0125', 'seconds_sum{route="single"} 0.0425'
            ).replace('seconds_count{route="single"} 4', 'seconds_count{route="single"} 10')
        )
        mean, count = histogram_mean_delta(
            before, after, "zsmiles_server_request_seconds", route="single"
        )
        assert count == 6 and mean == pytest.approx(0.005)
        assert histogram_mean_delta(
            before, after, "zsmiles_server_request_seconds", route="batch"
        ) == (0.0, 0)

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_prometheus("this is not a sample line at all\n")

    def test_parses_the_server_registry_rendering(self):
        from repro.telemetry.metrics import MetricsRegistry

        registry = MetricsRegistry(enabled=True)
        histogram = registry.histogram("demo_seconds", "demo", labels=("route",))
        histogram.labels("single").observe(0.25)
        histogram.labels("single").observe(0.75)
        registry.counter("demo_total", "demo").inc(3)
        samples = parse_prometheus(registry.render())
        assert histogram_sum_count(samples, "demo_seconds", route="single") == (1.0, 2.0)
        assert metric_total(samples, "demo_total") == 3.0
