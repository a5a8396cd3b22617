"""Hypothesis property tests for the discrete-event kernel."""

import heapq

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import AllOf, AnyOf, Container, Environment, Resource, Store


@given(st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=20))
@settings(max_examples=50, deadline=None)
def test_sequential_timeouts_sum(delays):
    """Property: sequential timeouts advance time by exactly their sum."""
    env = Environment()

    def proc(env):
        for d in delays:
            yield env.timeout(d)

    env.process(proc(env))
    env.run()
    assert abs(env.now - sum(delays)) < 1e-9


@given(st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=20))
@settings(max_examples=50, deadline=None)
def test_parallel_timeouts_max(delays):
    """Property: parallel processes finish at the max of their delays."""
    env = Environment()

    def proc(env, d):
        yield env.timeout(d)

    for d in delays:
        env.process(proc(env, d))
    env.run()
    assert abs(env.now - max(delays)) < 1e-9


@given(
    st.lists(st.floats(min_value=0.01, max_value=10.0), min_size=2, max_size=12),
    st.integers(min_value=1, max_value=4),
)
@settings(max_examples=40, deadline=None)
def test_resource_conservation(holds, capacity):
    """Property: a capacity-c resource never admits more than c users, and
    total busy time is conserved (makespan >= sum/capacity, >= max)."""
    env = Environment()
    res = Resource(env, capacity=capacity)
    peak = [0]

    def user(env, res, hold):
        with res.request() as req:
            yield req
            peak[0] = max(peak[0], res.count)
            yield env.timeout(hold)

    for hold in holds:
        env.process(user(env, res, hold))
    env.run()
    assert peak[0] <= capacity
    assert env.now >= max(holds) - 1e-9
    assert env.now >= sum(holds) / capacity - 1e-9
    assert res.count == 0


@given(st.lists(st.floats(min_value=0.1, max_value=5.0), min_size=1, max_size=10))
@settings(max_examples=40, deadline=None)
def test_event_ordering_matches_heap(delays):
    """Property: completion order equals sorted delay order (stable ties)."""
    env = Environment()
    order = []

    def proc(env, i, d):
        yield env.timeout(d)
        order.append(i)

    for i, d in enumerate(delays):
        env.process(proc(env, i, d))
    env.run()
    expected = [i for d, i in sorted((d, i) for i, d in enumerate(delays))]
    assert order == expected


@given(st.lists(st.integers(min_value=0, max_value=1000), min_size=1, max_size=30))
@settings(max_examples=40, deadline=None)
def test_store_is_fifo(items):
    """Property: a Store delivers items in insertion order."""
    env = Environment()
    store = Store(env)
    got = []

    def producer(env, store):
        for item in items:
            yield store.put(item)

    def consumer(env, store):
        for _ in items:
            got.append((yield store.get()))

    env.process(producer(env, store))
    env.process(consumer(env, store))
    env.run()
    assert got == items


@given(
    st.lists(st.floats(min_value=0.1, max_value=10.0), min_size=1, max_size=15),
    st.floats(min_value=20.0, max_value=100.0),
)
@settings(max_examples=40, deadline=None)
def test_container_level_conserved(amounts, capacity):
    """Property: after matched puts and gets, the level returns to start."""
    env = Environment()
    tank = Container(env, capacity=capacity, init=0.0)

    def producer(env, tank):
        for a in amounts:
            yield tank.put(min(a, capacity))

    def consumer(env, tank):
        for a in amounts:
            yield tank.get(min(a, capacity))

    env.process(producer(env, tank))
    env.process(consumer(env, tank))
    env.run()
    assert abs(tank.level) < 1e-9


@given(st.lists(st.floats(min_value=0.1, max_value=10.0), min_size=1, max_size=8))
@settings(max_examples=40, deadline=None)
def test_allof_anyof_bracketing(delays):
    """Property: AnyOf fires at min(delays), AllOf at max(delays)."""
    env = Environment()
    stamps = {}

    def waiter(env):
        events_any = [env.timeout(d) for d in delays]
        events_all = [env.timeout(d) for d in delays]
        yield AnyOf(env, events_any)
        stamps["any"] = env.now
        yield AllOf(env, events_all)
        stamps["all"] = env.now

    env.process(waiter(env))
    env.run()
    assert abs(stamps["any"] - min(delays)) < 1e-9
    assert abs(stamps["all"] - max(delays)) < 1e-9


# -- random process graphs ---------------------------------------------------------
#
# A graph is a list of processes, each a list of steps over a few shared
# events: sleep, wait on a shared event, succeed or fail one, or wait on an
# all_of / any_of mixing shared events with a timeout.  Failures are
# delivered as ``Boom`` and caught where they land; a process may also end
# by raising.  Watchers wait on every shared event and every process, so
# no failure goes unhandled.

N_SHARED = 4


class Boom(Exception):
    """The failure shared events and raising processes carry."""


_shared_index = st.integers(min_value=0, max_value=N_SHARED - 1)
_delay = st.integers(min_value=0, max_value=3).map(float)  # ties are common
_step = st.one_of(
    st.tuples(st.just("sleep"), _delay),
    st.tuples(st.just("wait"), _shared_index),
    st.tuples(st.just("trigger"), _shared_index, st.booleans()),
    st.tuples(st.sampled_from(["all", "any"]),
              st.lists(_shared_index, max_size=3), _delay),
)
_graph = st.lists(
    st.tuples(st.lists(_step, max_size=6), st.booleans()),
    min_size=1, max_size=6,
)


class _DispatchCountingEnv(Environment):
    """Counts how often each event is popped and its callbacks run."""

    def __init__(self):
        super().__init__()
        self.dispatched = {}

    def step(self):
        event = self._queue[0][3]
        self.dispatched[event] = self.dispatched.get(event, 0) + 1
        super().step()


def _run_graph(graph):
    """Run *graph*; returns (env, every process, callback counts by event)."""
    env = _DispatchCountingEnv()
    shared = [env.event() for _ in range(N_SHARED)]
    fired = {}

    def watched(event):
        # Count this event's callbacks from the moment it is yielded.
        if event.callbacks is not None and event not in fired:
            fired[event] = 0
            event.callbacks.append(lambda ev: fired.__setitem__(ev, fired[ev] + 1))
        return event

    def body(steps, raises):
        for step in steps:
            kind = step[0]
            try:
                if kind == "sleep":
                    yield watched(env.timeout(step[1]))
                elif kind == "wait":
                    yield watched(shared[step[1]])
                elif kind == "trigger":
                    event = shared[step[1]]
                    if not event.triggered:
                        event.succeed(step[1]) if step[2] else event.fail(Boom())
                else:
                    parts = [shared[i] for i in step[1]] + [env.timeout(step[2])]
                    compose = env.all_of if kind == "all" else env.any_of
                    yield watched(compose(parts))
            except Boom:
                pass
        if raises:
            raise Boom()

    def watch(event):
        try:
            yield event
        except Boom:
            pass

    processes = [env.process(body(steps, raises)) for steps, raises in graph]
    watchers = [env.process(watch(event)) for event in shared + processes]
    env.run()
    return env, processes + watchers, fired


@given(_graph)
@settings(max_examples=150, deadline=None)
def test_no_event_runs_its_callbacks_twice(graph):
    """Property: every event is dispatched, and its callbacks run, at most once."""
    env, _, fired = _run_graph(graph)
    assert all(count == 1 for count in env.dispatched.values())
    assert all(count <= 1 for count in fired.values())
    # A processed event was dispatched, and one that was never triggered
    # was not.
    for event, count in fired.items():
        assert count == (1 if event.processed else 0)
        assert event.triggered or event not in env.dispatched


@given(_graph)
@settings(max_examples=150, deadline=None)
def test_drained_run_leaves_no_process_runnable(graph):
    """Property: once ``run()`` drains, every process has finished, failed,
    or is parked on an event that never triggered."""
    _, processes, _ = _run_graph(graph)
    for process in processes:
        if process.triggered:
            assert process.processed
            assert process.ok or isinstance(process.value, Boom)
        else:
            assert process.target is not None
            assert not process.target.triggered
