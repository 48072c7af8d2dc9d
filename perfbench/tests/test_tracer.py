"""The tracer's wrappers count, time, nest and come off again."""

import time
import types

import pytest

from perfbench.tracer import Tracer


class Stack:
    def outer(self, n):
        return self.inner(n) + self.leaf(n)

    def inner(self, n):
        return sum(self.leaf(i) for i in range(n))

    def leaf(self, n):
        return n

    def boom(self):
        raise ValueError("boom")


def recurse(n):
    return 0 if n == 0 else 1 + MODULE.recurse(n - 1)


MODULE = types.SimpleNamespace(recurse=recurse)


def countdown(n):
    """Recurses through this module's global binding, like ``estimate_size``."""
    return 0 if n == 0 else 1 + countdown(n - 1)


def test_counts_and_self_times_partition_the_root():
    originals = {name: Stack.__dict__[name] for name in ("outer", "inner", "leaf")}
    tracer = Tracer()
    tracer.span(Stack, "outer", "app.outer", id_of=lambda args, result: ("m", args[1]))
    tracer.count(Stack, "inner", "app.inner")
    tracer.count(Stack, "leaf", "lib.leaf")
    assert Stack().outer(4) == 6 + 4
    assert tracer.restore()
    assert all(Stack.__dict__[name] is fn for name, fn in originals.items())
    assert tracer.calls("app.outer") == 1
    assert tracer.calls("app.inner") == 1
    assert tracer.calls("lib.leaf") == 5
    total_self = sum(tracer.self_s(n) for n in ("app.outer", "app.inner", "lib.leaf"))
    assert total_self == pytest.approx(tracer.incl_s("app.outer"), abs=1e-6)
    layers = tracer.self_s_by_prefix()
    assert set(layers) == {"app", "lib"}
    assert tracer.span_count == 1
    assert tracer.span_ids[0] == ("m", 4)
    assert tracer.span_parent[0] == -1


def test_recursive_calls_are_timed_once():
    tracer = Tracer()
    tracer.count(MODULE, "recurse", "lib.recurse")
    assert MODULE.recurse(5) == 5
    assert tracer.restore()
    assert MODULE.recurse is recurse
    assert tracer.calls("lib.recurse") == 6
    assert tracer.incl_s("lib.recurse") == pytest.approx(tracer.self_s("lib.recurse"), abs=1e-6)


def test_nested_spans_record_their_parent():
    tracer = Tracer()
    tracer.span(Stack, "outer", "app.outer")
    tracer.span(Stack, "leaf", "lib.leaf")
    Stack().outer(1)
    tracer.restore()
    names = [tracer.names[i] for i in tracer.span_name]
    # spans are numbered in the order they start
    assert names[0] == "app.outer"
    assert all(parent == 0 for parent in list(tracer.span_parent)[1:])
    assert all(end >= start for start, end in zip(tracer.span_start, tracer.span_end))


def test_exceptions_propagate_and_leave_no_open_frame():
    tracer = Tracer()
    tracer.span(Stack, "boom", "app.boom")
    with pytest.raises(ValueError):
        Stack().boom()
    assert tracer.restore()
    assert tracer.calls("app.boom") == 1
    assert tracer._frames == [] and tracer._open == []


def test_count_everywhere_wraps_every_binding():
    def helper():
        return 1

    a = types.SimpleNamespace(helper=helper)
    b = types.SimpleNamespace(alias=helper, other=len)
    tracer = Tracer()
    tracer.count_everywhere([a, b], helper, "lib.helper")
    a.helper()
    b.alias()
    assert tracer.calls("lib.helper") == 2
    assert tracer.restore()
    assert a.helper is helper and b.alias is helper and b.other is len


def test_spans_are_written_out(tmp_path):
    tracer = Tracer()
    tracer.span(Stack, "leaf", "lib.leaf", id_of=lambda args, result: result)
    Stack().leaf(7)
    tracer.restore()
    path = tmp_path / "spans.tsv.gz"
    tracer.write_spans(path)
    import gzip

    lines = gzip.open(path, "rt").read().splitlines()
    assert lines[0].split("\t") == ["index", "name", "start_ns", "end_ns", "parent", "id"]
    assert lines[1].split("\t")[1] == "lib.leaf"
    assert lines[1].split("\t")[-1] == "7"


def test_flattened_recursion_counts_outermost_calls_only():
    import sys

    module = sys.modules[__name__]
    original = countdown
    tracer = Tracer()
    tracer.count_everywhere([module], original, "lib.countdown", flatten=True)
    assert module.countdown is not original
    assert module.countdown(5) == 5
    assert module.countdown(3) == 3
    assert tracer.calls("lib.countdown") == 2
    assert tracer.restore()
    assert module.countdown is original


class Sampled:
    """Program calls inside which the benchmark takes a speed sample, as
    the ``SIGALRM`` handler does when it fires during a traced call."""

    def outer(self):
        return self.work()

    def work(self):
        return self.sample() + 1

    def sample(self):
        time.sleep(0.05)
        return 0


def test_excluded_time_leaves_every_enclosing_call():
    tracer = Tracer()
    tracer.span(Sampled, "outer", "app.outer")
    tracer.count(Sampled, "work", "app.work")
    tracer.exclude(Sampled, "sample", "bench.speed_sample")
    assert Sampled().outer() == 1
    assert tracer.restore()
    assert tracer.calls("bench.speed_sample") == 1
    assert tracer.incl_s("bench.speed_sample") >= 0.05
    # neither the call the sample fired in nor its caller holds the sample
    assert 0 <= tracer.incl_s("app.work") < 0.01
    assert 0 <= tracer.incl_s("app.outer") < 0.01
    assert 0 <= tracer.self_s("app.outer") < 0.01
    assert tracer.attributed_s(skip_layers=("bench",)) < 0.01


def test_roots_are_left_out_of_attributed_time():
    tracer = Tracer()
    tracer.span(Stack, "outer", "app.outer", root=True)
    tracer.count(Stack, "leaf", "lib.leaf")
    Stack().outer(3)
    tracer.call("bench.block", time.sleep, 0.02)
    assert tracer.restore()
    assert tracer.roots == {"app.outer", "bench.block"}
    assert tracer.attributed_s() == pytest.approx(tracer.self_s("lib.leaf"))
