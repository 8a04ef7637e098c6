"""Write a generator's records 0..count-1 from forked workers, in index order.

The range splits into blocks of :data:`BLOCK_SIZE` indices; there is one
worker per usable CPU, but no more than there are blocks, and block k
belongs to worker ``k % workers``. Worker 0 is the calling process; each
other worker is a forked child that encodes its blocks in order and sends
them through its own pipe. The caller writes every block to the sink in
index order, its own ones straight, so the bytes do not depend on the
worker count and memory stays at about one encoded block per forked worker,
on each side, plus the pipe buffers. With one CPU or one block nothing
forks; pinning the process to one CPU (for example with ``taskset -c 0``)
gives the one-process run.

A worker sends blocks and nothing else: on any failure it stops sending
and exits, and the caller builds every block it did not send, as it builds
its own. Records depend only on their index, so the output, or the error
line, is the one-process run's; a worker that dies costs time, not the
run. A deterministic hard crash (``os._exit`` inside ``records``) ends the
caller as it would end one process.

Workers are forked, not spawned: a spawned worker would import the package
again, which costs about a third of a 3000-record run, and the command-line
process has no threads to break a fork.
"""

from __future__ import annotations

import io
import os
import struct

from .corpus import write_examples

#: Indices per block: fine enough to share a few thousand records evenly
#: between two workers, coarse enough that framing costs nothing.
BLOCK_SIZE = 500

#: A frame is an encoded block's length, then the block.
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


def write_blocks(records, count: int, sink, meta: dict) -> None:
    """Write the meta record, then ``records(a, b)`` for each block [a, b) of [0, count).

    ``records(a, b)`` yields the records of indices a..b-1. However this
    returns, every child is stopped and reaped first.
    """
    blocks = [(a, min(a + BLOCK_SIZE, count)) for a in range(0, count, BLOCK_SIZE)]
    workers = max(1, min(usable_cpus(), len(blocks)))
    children: dict[int, tuple[int, io.BufferedReader]] = {}  # worker -> (pid, read end of its pipe)
    try:
        for worker in range(1, workers):
            children[worker] = _fork(records, blocks[worker::workers], children.values())
        write_examples((), sink, meta=meta)
        for index, (a, b) in enumerate(blocks):
            block = _receive(children, index % workers)
            if block is None:
                write_examples(records(a, b), sink)
            else:
                sink.write(block)
    finally:
        # Every block is in, or the run failed: either way no child has work left.
        for pid, pipe in children.values():
            os.kill(pid, _SIGKILL)
            pipe.close()
            os.waitpid(pid, 0)


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


def _fork(records, blocks: list[tuple[int, int]], inherited) -> tuple[int, io.BufferedReader]:
    """Fork a worker that sends the encoded ``blocks`` in order; return its pid and pipe."""
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
            for a, b in blocks:
                buffer = io.BytesIO()
                write_examples(records(a, b), buffer)
                pipe.write(_HEADER.pack(buffer.tell()))
                pipe.write(buffer.getvalue())
    finally:
        os._exit(0)
