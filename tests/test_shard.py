"""gen-num and gen-txt across forked workers: the same bytes as one process.

Every test here starts at most two workers. The usable CPUs are pinned
(two unless a test pins one), so the worker count does not depend on the
host, and ``os.fork`` is counted, so each test knows whether a worker
really ran.
"""

import os

import pytest

from numtext import numgen, shard
from numtext.cli import run
from numtext.numgen import NumGenConfig, generate_num
from numtext.txtgen import TxtGenConfig, generate_txt

#: Three blocks, the last one short: worker 2 owns block 1, this process blocks 0 and 2.
COUNT = 2 * shard.BLOCK_SIZE + 37


def _pin_cpus(monkeypatch, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))


@pytest.fixture
def forks(monkeypatch):
    """Two usable CPUs; the list collects one entry per fork."""
    _pin_cpus(monkeypatch, 2)
    calls, real_fork = [], os.fork

    def counted_fork():
        calls.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    yield calls
    with pytest.raises(ChildProcessError):  # every worker was reaped
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("emit", ["examples", "raw"])
@pytest.mark.parametrize("command", ["gen-num", "gen-txt"])
def test_two_workers_write_the_bytes_of_one(tmp_path, monkeypatch, capsysbinary, forks, command, emit):
    argv = [command, "--count", str(COUNT), "--seed", "3", "--emit", emit]
    one, two = tmp_path / "one.jsonl", tmp_path / "two.jsonl"
    _pin_cpus(monkeypatch, 1)
    assert run(argv + ["--out", str(one)]) == 0
    assert forks == []
    _pin_cpus(monkeypatch, 2)
    assert run(argv + ["--out", str(two)]) == 0
    assert forks == [1]
    assert run(argv + ["--out", "-"]) == 0
    assert forks == [1, 1]
    assert two.read_bytes() == one.read_bytes()
    assert capsysbinary.readouterr().out == one.read_bytes()
    assert len(one.read_bytes().splitlines()) == 1 + COUNT
    assert sorted(p.name for p in tmp_path.iterdir()) == ["one.jsonl", "two.jsonl"]


def test_one_worker_per_usable_cpu_and_none_for_one_block(tmp_path, forks):
    assert run(["gen-num", "--count", str(COUNT), "--seed", "3", "--out", str(tmp_path / "a.jsonl")]) == 0
    assert forks == [1]
    assert run(["gen-num", "--count", str(shard.BLOCK_SIZE), "--seed", "3", "--out", str(tmp_path / "b.jsonl")]) == 0
    assert forks == [1]


@pytest.mark.parametrize("generate, config", [(generate_num, NumGenConfig()), (generate_txt, TxtGenConfig())])
def test_start_gives_that_slice_of_the_run_from_zero(generate, config):
    full = list(generate(60, config, seed=4))
    assert list(generate(25, config, seed=4, start=20)) == full[20:45]


def _expression(index):
    return next(generate_num(1, NumGenConfig(), seed=5, start=index)).expression


def test_a_worker_self_check_failure_is_the_one_process_error_line(tmp_path, monkeypatch, capsys, forks):
    # Index 700 is in block 1 (worker 2), index 1200 in block 2 (this
    # process); one process fails on 700 first, and so must two.
    first, later = _expression(700), _expression(1200)
    real_eval = numgen.eval_expr

    def wrong_twice(expression, frac_digits=2):
        return real_eval(expression, frac_digits) + (1 if expression in (first, later) else 0)

    monkeypatch.setattr(numgen, "eval_expr", wrong_twice)
    lines = []
    for cpus in (1, 2):
        _pin_cpus(monkeypatch, cpus)
        out = tmp_path / f"w{cpus}.jsonl"
        assert run(["gen-num", "--count", str(COUNT), "--seed", "5", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        lines.append([line for line in err.splitlines() if line.startswith("error: ")])
        assert list(tmp_path.iterdir()) == []  # neither the target nor a temp file
    assert forks == [1]
    assert lines[0] == lines[1] and len(lines[0]) == 1
    assert first in lines[0][0]


def _exit_3():
    os._exit(3)


def _raise_runtime_error():
    raise RuntimeError("worker failure")


@pytest.mark.parametrize("fail", [_exit_3, _raise_runtime_error], ids=["exit", "raise"])
def test_a_worker_that_fails_costs_time_not_the_run(tmp_path, monkeypatch, capfd, forks, fail):
    # The worker fails on index 700 (block 1, which it owns); this process
    # then builds that block and the rest itself, as one process would.
    argv = ["gen-num", "--count", str(COUNT), "--seed", "5", "--out"]
    one, two = tmp_path / "one.jsonl", tmp_path / "two.jsonl"
    _pin_cpus(monkeypatch, 1)
    assert run(argv + [str(one)]) == 0
    parent, failing = os.getpid(), _expression(700)
    real_eval = numgen.eval_expr

    def fail_in_the_worker(expression, frac_digits=2):
        if expression == failing and os.getpid() != parent:
            fail()
        return real_eval(expression, frac_digits)

    monkeypatch.setattr(numgen, "eval_expr", fail_in_the_worker)
    _pin_cpus(monkeypatch, 2)
    capfd.readouterr()
    assert run(argv + [str(two)]) == 0
    assert forks == [1]
    assert capfd.readouterr() == ("", "")
    assert two.read_bytes() == one.read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["one.jsonl", "two.jsonl"]
