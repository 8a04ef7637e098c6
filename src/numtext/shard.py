"""Write a command's per-index work on every usable CPU, in index order.

:func:`write_blocks` splits the indices 0..count-1 into blocks of
:data:`BLOCK_SIZE` and calls the caller's ``write(a, b, out)`` once for
each block [a, b); what it writes to ``out`` is the block. There is one
worker per usable CPU, but no more than there are blocks, and block k
belongs to worker ``k % workers``. Worker 0 is the calling process, which
writes its own blocks straight into the sink; each other worker is a
forked child that writes its blocks, in order, into a buffer that it
sends through its own pipe. The sink gets every block in index order, so
what it holds does not depend on the worker count, and memory stays at
about one block per forked worker, on each side, plus the pipe buffers.
With one CPU or one block nothing forks; pinning the process to one CPU
(for example with ``taskset -c 0``) gives the one-process run. ``gen-num``,
``gen-txt``, ``ingest`` and ``derive-class`` write their records this way,
and ``score`` its per-question scores. :func:`over_spans` reads a JSONL
file this way, one block per span of SPAN_BYTES: ``mix`` indexes each
source and ``audit`` counts its input. A worker finds the lines of its own
spans, so the calling process reads nothing of the file before it forks.

A worker flushes each block as it is written, so the sink never waits on a
block that sits in the worker's buffer while the next one is written.

A worker sends blocks and nothing else: on any failure it stops sending
and exits, and the calling process writes every block it did not send, as
it writes its own. A block depends only on its indices, so the output, or
the error line, is the one-process run's; a worker that dies costs time,
not the run. A deterministic hard crash (``os._exit`` inside ``write``)
ends the caller as it would end one process.

Workers are forked, not spawned: a spawned worker would import the package
again, which costs about a third of a 3000-record run, and the command-line
process has no threads to break a fork.
"""

from __future__ import annotations

import io
import os
import struct
from collections.abc import Callable
from functools import partial

#: Indices per block: fine enough to share a few thousand records evenly
#: between two workers, coarse enough that framing costs nothing.
BLOCK_SIZE = 500

#: Bytes per span of a JSONL file that :func:`over_spans` reads and writes as one block.
SPAN_BYTES = 1 << 16

#: Bytes of the first read at a span's cut, which a line longer than that doubles.
_CUT_BYTES = 1 << 12

#: Bytes per read when lines are counted for an error message.
_COUNT_BYTES = 1 << 20

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


def write_blocks(
    write: Callable[[int, int, io.BufferedIOBase], None], count: int, sink, size: int = BLOCK_SIZE
) -> None:
    """Call ``write(a, b, out)`` for each block [a, b) of [0, count), so that
    ``sink.write`` gets the blocks, as bytes, in index order; every block but
    the last holds ``size`` indices.

    ``out`` is ``sink`` for a block of this process, or one of a worker that
    did not send it, so a block of big records is never held here; a worker's
    ``out`` is the buffer it sends. A count of 0 writes nothing and forks
    nothing. However the run ends, every child is stopped and reaped.
    """
    spans = [(a, min(a + size, count)) for a in range(0, count, size)]
    workers = max(1, min(usable_cpus(), len(spans)))
    children: dict[int, tuple[int, io.BufferedReader]] = {}  # worker -> (pid, read end of its pipe)
    try:
        for worker in range(1, workers):
            children[worker] = _fork(write, spans[worker::workers], children.values())
        for index, (a, b) in enumerate(spans):
            block = _receive(children, index % workers)
            if block is None:
                write(a, b, sink)
            else:
                sink.write(block)
    finally:
        # Every block is in, or the run failed: either way no child has work left.
        for pid, pipe in children.values():
            os.kill(pid, _SIGKILL)
            pipe.close()
            os.waitpid(pid, 0)


def _receive(children: dict, worker: int) -> bytes | None:
    """The next block from ``worker``'s pipe, or None if this process must write it:
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


def _fork(write, spans: list[tuple[int, int]], inherited) -> tuple[int, io.BufferedReader]:
    """Fork a worker that sends what ``write(a, b, out)`` writes for each of ``spans``
    in order; return its pid and pipe."""
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
    # and prints nothing: the caller writes whatever it did not send.
    try:
        os.close(read_fd)
        for _, pipe in inherited:
            pipe.close()
        with os.fdopen(write_fd, "wb") as pipe:
            for a, b in spans:
                buffer = io.BytesIO()
                write(a, b, buffer)
                pipe.write(_HEADER.pack(buffer.tell()))
                pipe.write(buffer.getbuffer())
                pipe.flush()  # a small block would wait in the buffer while the next one is written
    finally:
        os._exit(0)


def _cut(fd: int, offset: int, limit: int) -> int:
    """The offset of the first line that starts at or after byte ``offset``, or
    ``limit`` if none starts before it; the search reads up to ``limit``."""
    at, size = offset - 1, _CUT_BYTES
    while at < limit and (chunk := os.pread(fd, min(size, limit - at), at)):
        newline = chunk.find(b"\n")
        if newline >= 0:
            return at + newline + 1
        at, size = at + len(chunk), size * 2
    return limit


def _lineno(fd: int, offset: int) -> int:
    """The number of the line that starts at byte ``offset``."""
    chunks = (os.pread(fd, min(_COUNT_BYTES, offset - at), at) for at in range(0, offset, _COUNT_BYTES))
    return 1 + sum(chunk.count(b"\n") for chunk in chunks)


def over_spans(handle, write: Callable[[bytes, int, Callable[[], int], io.BufferedIOBase], None], sink) -> None:
    """Call ``write(lines, start, lineno, out)`` for each span of a binary JSONL
    stream that holds a line, in order, as :func:`write_blocks` calls it for a
    block: ``lines`` is the bytes of the span's whole lines, ``start`` the byte
    offset of its first line, and ``lineno()`` counts the lines before it and
    gives that line's number, for an error message that needs it.

    Span k of a file holds the lines that start in [k, k + 1) * SPAN_BYTES, so
    only span 0 starts at offset 0, and a line longer than a span leaves the
    spans after its start empty. A worker finds its own spans' lines from the
    file's size (``fstat``) and a short ``os.pread`` at each cut, and this
    process reads nothing before it forks. This process writes any span a
    worker did not send, so the result, or the error, is the one-process
    run's. A file of one span forks nothing. A stream that cannot seek is
    written here, a span at a time: SPAN_BYTES, then the rest of the line.
    """
    if not handle.seekable():
        start, lineno = 0, 1
        while lines := handle.read(SPAN_BYTES):
            lines += handle.readline()
            write(lines, start, partial(int, lineno), sink)
            start, lineno = start + len(lines), lineno + lines.count(b"\n")
        return
    fd = handle.fileno()
    size = os.fstat(fd).st_size

    def write_span(index: int, _, out) -> None:
        low, high = index * SPAN_BYTES, min((index + 1) * SPAN_BYTES, size)
        start = _cut(fd, low, high) if low else 0
        if start < high:
            stop = _cut(fd, high, size)
            write(os.pread(fd, stop - start, start), start, partial(_lineno, fd, start), out)

    write_blocks(write_span, -(-size // SPAN_BYTES), sink, size=1)
