"""The fastest-per-position estimator and the span arithmetic, on synthetic data."""

import random
import statistics

from benchmarks.e2e.harness import fastest_per_position, percentile
from benchmarks.e2e.tracing import Tracer, self_times, totals_by_name


def test_fastest_per_position_sees_through_stalls_no_whole_block_escapes():
    rng = random.Random(5)
    true_cost = [0.004 + 0.001 * (k % 5) for k in range(64)]  # one block's requests
    calm = [[cost * (1 + rng.uniform(0.0, 0.01)) for cost in true_cost] for _ in range(30)]
    # a neighbour slows two requests in three, in every block
    stalled = [
        [value * (1 + rng.uniform(0.15, 0.45)) if rng.random() < 0.67 else value for value in block]
        for block in calm
    ]
    block_walls = [sum(block) for block in stalled]
    assert min(block_walls) > sum(true_cost) * 1.10  # the best block is 10 % off
    estimate = sum(fastest_per_position(stalled))
    assert abs(estimate - sum(true_cost)) / sum(true_cost) < 0.01
    assert abs(estimate - sum(fastest_per_position(calm))) / sum(true_cost) < 0.005
    assert abs(statistics.median(fastest_per_position(stalled)) - 0.006) / 0.006 < 0.01


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 95) == 95
    assert percentile(values, 99) == 99
    assert percentile([7.0], 99) == 7.0


def _span(name, start, end, parent):
    return [name, "core", "1:0:0", start, end, parent]


def test_self_time_is_duration_minus_children():
    spans = [
        _span("handle", 0.0, 10.0, None),
        _span("parse", 0.5, 1.5, 0),
        _span("detect", 2.0, 8.0, 0),
        _span("execute", 2.5, 6.5, 2),
        _span("layout", 3.0, 4.0, 3),
        _span("render", 8.0, 9.5, 0),
    ]
    own = self_times(spans)
    assert own == [10.0 - 1.0 - 6.0 - 1.5, 1.0, 6.0 - 4.0, 4.0 - 1.0, 1.0, 1.5]
    # self times partition the root span exactly
    assert abs(sum(own) - 10.0) < 1e-12
    assert totals_by_name(spans, own)["handle"] == 1.5


class _Layer:
    @staticmethod
    def encode(value):
        return str(value)

    @classmethod
    def build(cls, value):
        return cls.encode(value) + "!"

    def run(self, value):
        return self.build(value)


def test_wrap_records_nested_spans_and_unwrap_restores():
    before = {name: _Layer.__dict__[name] for name in ("encode", "build", "run")}
    tracer = Tracer()
    seen = []
    tracer.wrap(_Layer, "encode", "layer.encode")
    tracer.wrap(_Layer, "build", "layer.build")
    tracer.wrap(
        _Layer, "run", "layer.run",
        probe=lambda tracer, args, kwargs: lambda result: seen.append((args[1], result)),
    )
    tracer.request = "1:2:3"
    assert _Layer().run(4) == "4!"
    assert seen == [(4, "4!")]
    assert [(s[0], s[5]) for s in tracer.spans] == [
        ("layer.run", None), ("layer.build", 0), ("layer.encode", 1),
    ]
    assert all(s[2] == "1:2:3" and s[4] >= s[3] for s in tracer.spans)
    tracer.unwrap()
    assert {name: _Layer.__dict__[name] for name in before} == before
    assert _Layer().run(4) == "4!" and len(tracer.spans) == 3
