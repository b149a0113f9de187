"""Span recording and self-time attribution."""

import threading

import pytest

import run
from spans import Tracer, self_times


def span(name, start, end, parent=-1):
    return [name, start, end, parent, 0, 0]


def test_self_time_is_span_minus_children():
    spans = [span("bench.op", 0.0, 10.0),
             span("estimators.a", 1.0, 9.0, 0),
             span("models.eval", 2.0, 5.0, 1),
             span("inputs.sample", 6.0, 7.0, 1)]
    assert self_times(spans) == pytest.approx([2.0, 4.0, 3.0, 1.0])


def test_overlapping_children_split_shared_time_and_add_up_to_root():
    spans = [span("root", 0.0, 10.0),
             span("a", 1.0, 4.0, 0),
             span("b", 3.0, 6.0, 0),
             span("c", 2.0, 3.0, 1)]
    # root: 10 - |[1, 6]|; a: [1, 2] + half of [3, 4]; b: [4, 6] + half of [3, 4].
    got = self_times(spans)
    assert got == pytest.approx([5.0, 1.5, 2.5, 1.0])
    assert sum(got) == pytest.approx(10.0)


def test_child_covering_parent_leaves_no_self_time():
    spans = [span("root", 0.0, 4.0), span("a", 0.0, 4.0, 0), span("b", 1.0, 2.0, 1)]
    assert self_times(spans) == pytest.approx([0.0, 3.0, 1.0])


def test_worker_thread_spans_hang_under_the_waiting_span():
    tracer = Tracer()

    def work():
        with tracer.span("models.eval"):
            pass

    with tracer.span("estimators.x") as outer:
        worker = threading.Thread(target=work)
        worker.start()
        worker.join(timeout=10)
    assert not worker.is_alive()
    assert tracer.spans[1][0] == "models.eval" and tracer.spans[1][3] == outer


def test_traced_estimator_at_two_workers_adds_up():
    import shapeff
    from shapeff import estimators

    tracer = Tracer()
    tracer.install()
    try:
        with tracer.span("bench.op"):
            rep = estimators.estimate_shapley_all(
                shapeff.ishigami(), shapeff.ishigami_space(),
                shapeff.EstimatorConfig(n=3 * 4096 + 5, seed=1, workers=2))
    finally:
        tracer.uninstall()
    assert estimators.estimate_shapley_all.__name__ == "estimate_shapley_all"
    assert not hasattr(estimators.estimate_shapley_all, "__wrapped__")
    m, self_sum = run.layer_metrics(tracer.spans, rounds=1)
    root = tracer.spans[0][2] - tracer.spans[0][1]
    assert self_sum == pytest.approx(root, rel=1e-9)
    assert m["models.evals"] == rep.eval_count == 4 * (3 * 4096 + 5)
    assert m["estimators.evals_over_contract"] == 1.0
    assert m["inputs.sample_calls"] == 8 and m["models.batches"] == 16


def test_tail_leaves_at_least_ten_above_at_the_highest_percentile():
    for m in range(11, 400):
        values = [float(v) for v in range(m)]
        value, p = run.tail(values)
        assert sum(v > value for v in values) >= run.TAIL_BEYOND
        rank_next = -(-(p + 1) * m // 100)
        assert p == 99 or m - rank_next < run.TAIL_BEYOND, m


def test_tail_examples_and_too_few_ops():
    assert run.tail([float(v) for v in range(100)]) == (89.0, 90)
    assert run.tail([float(v) for v in range(11)]) == (0.0, 9)
    with pytest.raises(ValueError):
        run.tail([1.0] * 10)
