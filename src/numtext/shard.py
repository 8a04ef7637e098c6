"""Write a generator's records 0..count-1 from forked workers, in index order.

The range splits into blocks of :data:`BLOCK_SIZE` indices; there is one
worker per usable CPU, but no more than there are blocks, and block k
belongs to worker ``k % workers``. Worker 0 is the calling process; each
other worker is a forked child that encodes its blocks in order and sends
them through its own pipe. The caller writes every block to the sink in
index order, so the bytes do not depend on the worker count. The caller
writes its own blocks straight to the sink, so memory stays at about one
encoded block per forked worker, on each side, plus the pipe buffers. With
one CPU or one block nothing forks; pinning the process to one CPU (for
example with ``taskset -c 0``) gives the one-process run.

Workers are forked, not spawned: a spawned worker would import the package
again, which costs about a third of a 3000-record run, and the command-line
process has no threads to break a fork.
"""

from __future__ import annotations

import io
import os
import struct
import sys

from .corpus import write_examples
from .errors import ToolkitError

#: Indices per block: fine enough to share a few thousand records evenly
#: between two workers, coarse enough that framing costs nothing.
BLOCK_SIZE = 500

#: A frame is b"B" and an encoded block, or b"E" and a ToolkitError's message.
_HEADER = struct.Struct(">cQ")

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

    ``records(a, b)`` yields the records of indices a..b-1 and runs in the
    worker that owns the block. A ToolkitError raised in a child is raised
    here as a ToolkitError with the same message once its block is due,
    so the first failing index wins as in one process; a child that ends
    without sending its blocks is a ToolkitError too. However this returns,
    every child is stopped and reaped first.
    """
    blocks = [(a, min(a + BLOCK_SIZE, count)) for a in range(0, count, BLOCK_SIZE)]
    workers = max(1, min(usable_cpus(), len(blocks)))
    children: dict[int, tuple[int, io.BufferedReader]] = {}  # worker -> (pid, read end of its pipe)
    try:
        for worker in range(1, workers):
            children[worker] = _fork(records, blocks[worker::workers], children.values())
        write_examples((), sink, meta=meta)
        for index, (a, b) in enumerate(blocks):
            worker = index % workers
            if worker:
                sink.write(_receive(children, worker))
            else:
                write_examples(records(a, b), sink)
    finally:
        # Every block is in, or the run failed: either way no child has work left.
        for pid, pipe in children.values():
            os.kill(pid, _SIGKILL)
            pipe.close()
            os.waitpid(pid, 0)


def _receive(children: dict, worker: int) -> bytes:
    """The next block from ``worker``'s pipe; its error or its end raises ToolkitError."""
    pid, pipe = children[worker]
    header = pipe.read(_HEADER.size)
    if len(header) == _HEADER.size:
        kind, size = _HEADER.unpack(header)
        payload = pipe.read(size)
        if len(payload) == size:
            if kind == b"E":
                raise ToolkitError(payload.decode("utf-8"))
            return payload
    del children[worker]
    pipe.close()
    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    how = f"killed by signal {-code}" if code < 0 else f"exit status {code}"
    raise ToolkitError(f"worker {worker + 1} ended before sending all its blocks ({how})")


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
    # The worker never returns into the caller, whose cleanup is not its own.
    code = 1
    try:
        os.close(read_fd)
        for _, pipe in inherited:
            pipe.close()
        with os.fdopen(write_fd, "wb") as pipe:
            for a, b in blocks:
                buffer = io.BytesIO()
                try:
                    write_examples(records(a, b), buffer)
                    kind, payload = b"B", buffer.getvalue()
                except ToolkitError as exc:
                    kind, payload = b"E", str(exc).encode("utf-8")
                pipe.write(_HEADER.pack(kind, len(payload)))
                pipe.write(payload)
                if kind == b"E":
                    break
        code = 0
    except Exception:
        sys.excepthook(*sys.exc_info())
        sys.stderr.flush()
    finally:
        os._exit(code)
