"""Build a command's per-index work on every usable CPU, in index order.

:func:`blocks` splits the indices 0..count-1 into blocks of
:data:`BLOCK_SIZE`; there is one worker per usable CPU, but no more than
there are blocks, and block k belongs to worker ``k % workers``. Worker 0 is
the calling process; each other worker is a forked child that builds its
blocks in order and sends each one, as bytes, through its own pipe. The
caller gets every block in index order, so what it writes or adds up does
not depend on the worker count, and memory stays at about one block per
forked worker, on each side, plus the pipe buffers. With one CPU or one
block nothing forks; pinning the process to one CPU (for example with
``taskset -c 0``) gives the one-process run. :func:`write_blocks` writes
records this way (``gen-num``, ``gen-txt``, ``ingest``, ``derive-class``),
and ``scoring.build_report`` scores questions this way (``score``).

A worker sends blocks and nothing else: on any failure it stops sending
and exits, and the caller builds every block it did not send, as it builds
its own. A block depends only on its indices, so the output, or the error
line, is the one-process run's; a worker that dies costs time, not the
run. A deterministic hard crash (``os._exit`` inside ``build``) ends the
caller as it would end one process.

Workers are forked, not spawned: a spawned worker would import the package
again, which costs about a third of a 3000-record run, and the command-line
process has no threads to break a fork.
"""

from __future__ import annotations

import io
import os
import struct
from collections.abc import Callable, Iterator
from contextlib import closing

from .corpus import write_examples

#: Indices per block: fine enough to share a few thousand records evenly
#: between two workers, coarse enough that framing costs nothing.
BLOCK_SIZE = 500

#: A frame is a block's length, then the block.
_HEADER = struct.Struct(">Q")

#: POSIX's SIGKILL; importing ``signal`` would cost every command start a millisecond.
_SIGKILL = 9


def usable_cpus() -> int:
    """The number of CPUs this process may run on; 1 where it cannot fork."""
    if not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def blocks(build: Callable[[int, int], bytes], count: int) -> Iterator[tuple[int, int, bytes | None]]:
    """Yield ``(a, b, block)`` for each block [a, b) of [0, count), in order.

    ``block`` is the ``build(a, b)`` bytes that a forked worker sent, or
    None where the caller must build [a, b) itself: a block of its own, or
    one a worker did not send. The caller builds it as it likes, so it can
    write its own blocks straight to their sink. Workers fork at the first
    ``next()``, not at the call. However the iteration ends, exhausted or
    closed (use ``contextlib.closing``), every child is stopped and reaped.
    """
    spans = [(a, min(a + BLOCK_SIZE, count)) for a in range(0, count, BLOCK_SIZE)]
    workers = max(1, min(usable_cpus(), len(spans)))
    children: dict[int, tuple[int, io.BufferedReader]] = {}  # worker -> (pid, read end of its pipe)
    try:
        for worker in range(1, workers):
            children[worker] = _fork(build, spans[worker::workers], children.values())
        for index, (a, b) in enumerate(spans):
            yield a, b, _receive(children, index % workers)
    finally:
        # Every block is in, or the run failed: either way no child has work left.
        for pid, pipe in children.values():
            os.kill(pid, _SIGKILL)
            pipe.close()
            os.waitpid(pid, 0)


def write_blocks(records, count: int, sink, meta: dict) -> None:
    """Write the meta record, then ``records(a, b)``, the records of indices
    a..b-1, for each block [a, b) of [0, count), as :func:`blocks` gives them."""

    def build(a: int, b: int) -> bytes:
        buffer = io.BytesIO()
        write_examples(records(a, b), buffer)
        return buffer.getvalue()

    write_examples((), sink, meta=meta)
    with closing(blocks(build, count)) as built:
        for a, b, block in built:
            if block is None:  # straight to the sink: a block of big records is never held here
                write_examples(records(a, b), sink)
            else:
                sink.write(block)


def _receive(children: dict, worker: int) -> bytes | None:
    """The next block from ``worker``'s pipe, or None if this process must build it:
    a block of its own, or of a worker that stopped sending (a short header or
    payload), which is then reaped and leaves ``children``."""
    if worker not in children:
        return None
    pid, pipe = children[worker]
    header = pipe.read(_HEADER.size)
    if len(header) == _HEADER.size:
        (size,) = _HEADER.unpack(header)
        payload = pipe.read(size)
        if len(payload) == size:
            return payload
    del children[worker]
    pipe.close()
    os.waitpid(pid, 0)
    return None


def _fork(build, spans: list[tuple[int, int]], inherited) -> tuple[int, io.BufferedReader]:
    """Fork a worker that sends ``build(a, b)`` for each of ``spans`` in order; return its pid and pipe."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid:
        os.close(write_fd)
        return pid, os.fdopen(read_fd, "rb")
    # The worker never returns into the caller, whose cleanup is not its own,
    # and prints nothing: the caller builds whatever it did not send.
    try:
        os.close(read_fd)
        for _, pipe in inherited:
            pipe.close()
        with os.fdopen(write_fd, "wb") as pipe:
            for a, b in spans:
                block = build(a, b)
                pipe.write(_HEADER.pack(len(block)))
                pipe.write(block)
    finally:
        os._exit(0)
