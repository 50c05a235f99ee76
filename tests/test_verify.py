"""`run_suite` hands out every suite's jobs (a plain suite is one job,
`additivity` is ten) to one pool of threads: its records, their order,
the scan memo's counts and the failure it reports are those of the
suites run one after another, and a second pass in the same process
builds nothing."""

from __future__ import annotations

import functools
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from frwt import cache_info, frft, memo, verify
from frwt.cli import main
from frwt.verify import SUITE_ORDER, run_suite

from conftest import set_workers


@pytest.fixture(scope="module")
def all_from_a_cleared_memo():
    memo._clear()
    reports = run_suite("all")
    return reports, cache_info()


def test_all_equals_the_suites_run_alone(all_from_a_cleared_memo):
    reports, _ = all_from_a_cleared_memo
    alone = [rep for name in SUITE_ORDER for rep in run_suite(name)]
    assert [rep.to_json() for rep in reports] == [rep.to_json() for rep in alone]


def test_verify_additivity_prints_its_line_of_verify_all(capsys):
    assert main(["verify", "additivity"]) == 0
    alone = capsys.readouterr().out
    assert main(["verify", "all"]) == 0
    lines = capsys.readouterr().out.splitlines(keepends=True)
    assert [line for line in lines if '"frft_order_additivity"' in line] == [alone]


def test_the_additivity_pairs_run_on_both_lanes(all_from_a_cleared_memo, monkeypatch):
    # the first pair on each thread waits for the other thread's first
    set_workers(monkeypatch, 2)
    both = threading.Barrier(2, timeout=30)
    lock = threading.Lock()
    seen = []
    real_pair = verify._additivity_pair

    def pair(*args):
        me = threading.current_thread()
        with lock:
            first = me not in seen
            seen.append(me)
        if first:
            both.wait()
        return real_pair(*args)

    monkeypatch.setattr(verify, "_additivity_pair", pair)
    reports = run_suite("additivity")
    assert len(seen) == 10 and len(set(seen)) == 2
    reference, _ = all_from_a_cleared_memo
    assert [rep.to_json() for rep in reports] == [rep.to_json() for rep in reference if rep.name == "frft_order_additivity"]


def test_all_reads_the_scan_memo_the_same_way_every_pass(all_from_a_cleared_memo):
    # 4 distinct scans, each asked for again whichever lane asks first
    _, info = all_from_a_cleared_memo
    assert (info["scan"].misses, info["scan"].hits) == (4, 16)


def test_all_sorts_each_morrey_scan_once(all_from_a_cleared_memo):
    # 18 morrey_norm calls over 3 distinct (grid, centers, radii) scans
    _, info = all_from_a_cleared_memo
    assert (info["ball_orders"].misses, info["ball_orders"].hits) == (3, 15)


def test_a_cold_pass_keeps_at_most_6_mib(all_from_a_cleared_memo):
    _, info = all_from_a_cleared_memo
    assert sum(i.bytes for i in info.values()) <= 6 << 20


def test_a_second_pass_builds_nothing(all_from_a_cleared_memo):
    """The memo holds all that a pass builds, so a second pass misses no
    key of any builder."""
    _, first = all_from_a_cleared_memo
    # the suites run alone in test_all_equals_the_suites_run_alone may
    # have run before this test
    before = cache_info()
    run_suite("all")
    after = cache_info()
    assert sum(info.misses for info in first.values()) > 0
    assert {name: after[name].misses - before[name].misses for name in after} == dict.fromkeys(after, 0)


def test_two_verify_all_processes_print_the_same_records():
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), env.get("PYTHONPATH", "")])
    argv = [sys.executable, "-m", "frwt.cli", "verify", "all"]
    procs = [subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env) for _ in range(2)]
    (out_a, err_a), (out_b, err_b) = (proc.communicate() for proc in procs)
    assert [proc.returncode for proc in procs] == [0, 0], err_a + err_b
    assert len(out_a.splitlines()) == 29
    assert out_a == out_b


def test_the_earlier_of_two_failing_suites_is_reported(monkeypatch, capsys):
    # two lanes even on one CPU; the later suite raises first, and no
    # suite starts once it has
    set_workers(monkeypatch, 2)
    later_raised = threading.Event()
    ran = []

    def earlier(cfg):
        later_raised.wait(timeout=30)
        time.sleep(0.1)
        raise ValueError("parseval broke")

    def later(cfg):
        try:
            raise ArithmeticError("additivity broke")
        finally:
            later_raised.set()

    monkeypatch.setitem(verify._SUITES, "parseval", earlier)
    monkeypatch.setitem(verify._SUITES, "additivity", later)
    for name in SUITE_ORDER[2:]:
        monkeypatch.setitem(verify._SUITES, name, lambda cfg, name=name: ran.append(name) or [])
    assert main(["verify", "all"]) == 6
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "suite error: all: ValueError: parseval broke\n"
    assert ran == []


def _one_job_per_thread(on_caller, on_helper):
    """The first two of _run_jobs's jobs with two threads: the caller's job
    waits until the helper has taken the other one, so each thread runs
    one; on_helper gets the helper's Thread and on_caller waits on it."""
    helper = []
    taken = threading.Event()

    def work():
        if threading.current_thread() is threading.main_thread():
            taken.wait(timeout=30)
            on_caller(helper[0])
        else:
            helper.append(threading.current_thread())
            taken.set()
            on_helper(helper[0])

    return [work, work]


def test_no_block_starts_once_one_has_raised(monkeypatch):
    set_workers(monkeypatch, 2)
    ran = []

    def fail(thread):
        raise ArithmeticError("job failed on the helper")

    first_two = _one_job_per_thread(lambda thread: thread.join(timeout=30), fail)
    # the caller's job returns once the helper has raised and stopped
    with pytest.raises(ArithmeticError, match="on the helper"):
        verify._run_jobs(first_two + [functools.partial(ran.append, k) for k in range(2, 6)])
    assert ran == []


@pytest.mark.skipif(frft._openblas_thread_calls() is None, reason="numpy's OpenBLAS exports no thread calls")
def test_an_interrupt_at_the_join_still_joins_and_restores_openblas(monkeypatch):
    get_threads, set_threads, _ = frft._openblas_thread_calls()
    set_workers(monkeypatch, 2)
    real_join = threading.Thread.join
    joined, seen = [], []

    def join(thread, timeout=None):
        joined.append(thread)
        if len(joined) == 1:
            raise KeyboardInterrupt
        return real_join(thread, timeout)

    def work():
        seen.append(get_threads())
        time.sleep(0.001)

    monkeypatch.setattr(threading.Thread, "join", join)
    before = get_threads()
    # a count other than one, so that a count left at one shows
    set_threads(2)
    try:
        with pytest.raises(KeyboardInterrupt):
            verify._run_jobs([work] * 4)
        after = get_threads()
    finally:
        set_threads(before)
    assert after == 2
    assert seen == [1] * 4
    # the join of the one helper went on after the interrupt
    assert len(joined) == 2 and len(set(joined)) == 1 and not joined[0].is_alive()
