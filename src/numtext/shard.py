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
:func:`over_spans` reads a JSONL file this way, one block per span of
whole lines: ``mix`` indexes each source and ``audit`` counts its input.

A worker flushes each block as it is built, so the caller never waits on a
block that sits in the worker's buffer while the next one is built.

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
from functools import partial

from .corpus import iter_examples, write_examples

#: Indices per block: fine enough to share a few thousand records evenly
#: between two workers, coarse enough that framing costs nothing.
BLOCK_SIZE = 500

#: Bytes per span of a JSONL file that :func:`over_spans` reads and builds as one block.
SPAN_BYTES = 1 << 16

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


def blocks(
    build: Callable[[int, int], bytes], count: int, size: int = BLOCK_SIZE
) -> Iterator[tuple[int, int, bytes | None]]:
    """Yield ``(a, b, block)`` for each block [a, b) of [0, count), in order;
    every block but the last holds ``size`` indices.

    ``block`` is the ``build(a, b)`` bytes that a forked worker sent, or
    None where the caller must build [a, b) itself: a block of its own, or
    one a worker did not send. The caller builds it as it likes, so it can
    write its own blocks straight to their sink. Workers fork at the first
    ``next()``, not at the call. However the iteration ends, exhausted or
    closed (use ``contextlib.closing``), every child is stopped and reaped.
    """
    spans = [(a, min(a + size, count)) for a in range(0, count, size)]
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
                pipe.flush()  # a small block would wait in the buffer while the next one is built
    finally:
        os._exit(0)


def _line_spans(read) -> list[tuple[int, int, int]]:
    """``(start, stop, first line number)`` of each span of whole lines that
    ``read`` gives from byte 0, about SPAN_BYTES each."""
    spans, start, lineno, size = [], 0, 1, SPAN_BYTES
    while chunk := read(size, start):
        stop = chunk.rfind(b"\n") + 1 if len(chunk) == size else len(chunk)
        if stop:
            spans.append((start, start + stop, lineno))
            lineno += chunk.count(b"\n", 0, stop)
            start, size = start + stop, SPAN_BYTES
        else:  # a line longer than the span
            size *= 2
    return spans


def over_spans(handle, build: Callable[[Iterator], bytes]) -> Iterator[bytes]:
    """``build(records)`` for each span of whole lines of a binary JSONL
    stream, in order, ``records`` being the span's ``corpus.iter_examples`` rows.

    Each span is one block of :func:`blocks`. A worker reads its spans with
    ``os.pread``, and this process builds any span a worker did not send, so
    the result, or the error, is the one-process run's. A stream of one span
    forks nothing, and one that cannot seek is read here as one span.
    """
    if not handle.seekable():
        yield build(iter_examples(handle))
        return
    read = partial(os.pread, handle.fileno())  # moves no file offset that a forked worker shares
    spans = _line_spans(read)

    def build_span(index: int, _=None) -> bytes:
        start, stop, lineno = spans[index]
        return build(iter_examples(io.BytesIO(read(stop - start, start)), start, lineno))

    with closing(blocks(build_span, len(spans), size=1)) as built:
        for index, _, block in built:
            yield build_span(index) if block is None else block
