import os
import time

import pytest

from straus import parallel
from straus.parallel import pmap
from straus.sieve import PrimeRange
from straus.verify import sweep

_CLOCK = [0.0]  # a fake perf_counter that each _costed call advances


def _fake_clock():
    return _CLOCK[0]


def _costed(item):
    """Pretend item (i, seconds) took that long; return (i, pid)."""
    i, seconds = item
    _CLOCK[0] += seconds
    return i, os.getpid()


_WARMED = []  # whether _first_call_costly was called in this process


def _first_call_costly(item):
    """_costed, plus 10 s on the first call."""
    if not _WARMED:
        _WARMED.append(True)
        _CLOCK[0] += 10.0
    return _costed(item)


def _slow_pid(_item):
    time.sleep(0.01)
    return os.getpid()


def _pid(_item):
    return os.getpid()


@pytest.fixture
def fake_clock(monkeypatch):
    monkeypatch.setattr(parallel, "perf_counter", _fake_clock)


def _in_parent(results):
    return [pid == os.getpid() for _i, pid in results]


def _no_pool(_method):
    raise AssertionError("a process pool was started")


class TestPmap:
    def test_one_worker_stays_in_process(self):
        assert set(pmap(_pid, range(16), workers=1)) == {os.getpid()}

    def test_a_costly_short_list_forks(self, fake_clock):
        # 7 items: item 2 warms up, item 3 is timed, and the other 5 project 0.5 s
        results = pmap(_costed, [(i, 0.1) for i in range(7)], workers=2)
        assert [i for i, _pid in results] == list(range(7))
        assert _in_parent(results) == [i in (2, 3) for i in range(7)]

    def test_first_call_costs_stay_out_of_the_projection(self, fake_clock):
        # 0.1 s in all, after a first call that costs 10 s (an import, say)
        _WARMED.clear()
        items = [(i, 1e-4) for i in range(1000)]
        assert all(_in_parent(pmap(_first_call_costly, items, workers=2)))

    def test_one_item_opens_no_pool(self, monkeypatch):
        monkeypatch.setattr(parallel, "get_context", _no_pool)
        monkeypatch.setattr(parallel, "_POOL_START_S", -1.0)  # a pool always pays
        assert pmap(_pid, [0], workers=2) == [os.getpid()]


def _sampled(n):
    """Indices that pmap runs in the parent for n >= 16 items at 2 workers:
    the untimed item 7 and the timed sample."""
    return {7} | {i for i in range(n) if i % 16 == 8}


class TestSampledPmap:
    """The timed sample that decides whether pmap forks."""

    def test_cheap_items_stay_in_process(self, fake_clock):
        items = [(i, 1e-6) for i in range(10_000)]  # 0.01 s in all
        assert pmap(_costed, items, workers=2) == [(i, os.getpid()) for i in range(10_000)]

    def test_a_costly_tail_forks(self, fake_clock):
        # the first tenth is free and the rest costs 0.45 s: a head probe
        # would see nothing, the strided sample sees the tail
        items = [(i, 0.0 if i < 100 else 5e-4) for i in range(1000)]
        results = pmap(_costed, items, workers=2)
        assert [i for i, _pid in results] == list(range(1000))
        in_parent = _in_parent(results)
        assert {i for i, flag in enumerate(in_parent) if flag} == _sampled(1000)

    def test_short_sweeps_are_probed_too(self, fake_clock):
        cheap = [(i, 1e-4) for i in range(20)]
        assert all(_in_parent(pmap(_costed, cheap, workers=2)))
        costly = [(i, 0.1) for i in range(20)]
        in_parent = _in_parent(pmap(_costed, costly, workers=2))
        assert {i for i, flag in enumerate(in_parent) if flag} == {7, 8}

    def test_real_clock_forks_slow_items(self):
        # sleeps only lengthen under load, so this cannot flip to in-process
        pids = pmap(_slow_pid, range(32), workers=2)
        assert {i for i, pid in enumerate(pids) if pid == os.getpid()} == _sampled(32)

    def test_sweeps_are_probed(self, fake_clock, monkeypatch):
        # the fake clock stands still, so the sample projects no cost
        monkeypatch.setattr(parallel, "get_context", _no_pool)
        r = PrimeRange(2, 10_000)
        assert sweep("conj1", r, workers=2).exceptions == (193,)

    def test_order_kept_across_the_fork(self, monkeypatch):
        monkeypatch.setattr(parallel, "_POOL_START_S", -1.0)  # always fork
        assert pmap(str, range(1000), workers=2) == [str(i) for i in range(1000)]

    @pytest.mark.parametrize(
        "claim, store",
        [("conj1", False), ("conj2", False), ("conj3-pattern", False),
         ("conj3-pattern", True), ("conj5-pattern", True)],
    )
    def test_forked_ledgers_equal_in_process_ones(self, claim, store, monkeypatch):
        r = PrimeRange(2, 10_000)
        expected = sweep(claim, r, workers=1, store_witnesses=store)
        monkeypatch.setattr(parallel, "_POOL_START_S", -1.0)
        assert sweep(claim, r, workers=2, store_witnesses=store) == expected
