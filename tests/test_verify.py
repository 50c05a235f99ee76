"""`run_suite("all")` runs the nine suites as concurrent blocks: its
records, their order, the scan memo's counts and the failure it reports
are those of the suites run one after another, and a second pass in the
same process builds nothing."""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from frwt import cache_info, memo, verify
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
