"""Run a sweep's independent runs in forked worker processes.

``run_forked(run, jobs, trace, workers)`` returns what
``[run(*job, trace) for job in jobs]`` returns, and leaves in *trace* the
records that loop would write, byte for byte.  The workers share one job
queue: a pipe the parent fills with the job numbers in order, from which
each worker reads its next job when it has finished one, so a worker on a
slower CPU takes fewer runs.  A worker stops at the end of the queue or at
its first failure.  It sends back the numbers of the jobs it ran with their
rows through a pipe of its own, as ``marshal``-ed plain tuples (a
``QosReport`` is a named tuple; ``marshal`` takes only exact tuples, and it
is built in, where importing ``pickle`` would add about 0.3 MiB to the
parent's peak memory); only a failing run's exception is pickled.  A traced
worker writes its JSONL to an anonymous temporary file and notes where each
run's records end; once every worker is reaped, the parent copies the runs'
records into the caller's stream in job order, a bounded chunk at a time,
and raises the exception of the earliest failing job.  Jobs are claimed in
order, so every job before that one was claimed and run to its end.  A
failing worker first reads the rest of the queue, so the others stop after
their current runs and no run starts whose row the sweep would discard.
Workers leave through ``os._exit``, so they never flush the parent's
buffers or run its exit handlers.

Worker ``w`` pins itself to the ``w % len(cpus)``-th of the CPUs the parent
may use: left to itself, the kernel can keep every worker on the parent's
CPU for a whole sweep once the others have been idle.  Where the affinity
call is missing or fails, the worker runs unpinned.

``experiment.run_sweep`` imports this module only when a sweep forks.
"""

from __future__ import annotations

import contextlib
import marshal
import os
import tempfile
from typing import Callable

from .qos import QosReport
from .scenarios import TraceLog

# bytes of trace the parent holds at once while copying a worker's file
_COPY_CHUNK = 1 << 20

# a job number on the queue: four bytes, big-endian
_JOB_BYTES = 4

# bytes per write to the job queue: the least PIPE_BUF that POSIX allows, so each write is
# atomic, and a whole number of job numbers, so a worker's read of one never gets part of it
_QUEUE_WRITE = 512


def run_forked(
    run: Callable[..., QosReport], jobs: list[tuple], trace: TraceLog | None, workers: int
) -> list[QosReport]:
    """The rows of ``run(*job, trace)`` over *jobs*, run by *workers* forked processes."""
    files = [] if trace is None else [
        tempfile.TemporaryFile("w+", encoding="ascii", newline="") for _ in range(workers)
    ]
    try:
        shares = [marshal.loads(blob) for blob in _fork_workers(run, jobs, files, workers)]
        place: list = [None] * len(jobs)  # job -> (worker, its position among that worker's runs)
        for w, (ran, _rows, _marks, _error) in enumerate(shares):
            for i, job in enumerate(ran):
                place[job] = (w, i)
        # a worker's failing run is its last; jobs are claimed in order, so every job
        # before the earliest failing one was claimed and run to its end
        failures = [ran[-1] for ran, _rows, _marks, error in shares if error is not None]
        done = min(failures) + 1 if failures else len(jobs)
        if trace is not None:
            # the failing run's records up to its failure too, as a serial sweep leaves them
            for w, i in place[:done]:
                marks = shares[w][2]
                start, before = marks[i - 1] if i else (0, 0)
                end, after = marks[i]
                _copy_range(files[w].fileno(), start, end, trace.stream)
                trace.count += after - before
    finally:
        for fh in files:
            fh.close()
    if failures:
        import pickle

        raise pickle.loads(shares[place[done - 1][0]][3])
    return [QosReport(*shares[w][1][i]) for w, i in place]


def _fork_workers(run, jobs: list[tuple], files: list, workers: int) -> list[bytes]:
    """Fork the workers, write them the job queue, reap them all, and return each one's marshalled share."""
    pids: list[int] = []
    readers: list[int] = []
    blobs: list[bytes] = []
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
    # the job queue: the parent writes job numbers to *queue*, the workers read them from *claims*
    reads, writes = os.pipe()
    claims, queue = open(reads, "rb", buffering=0), open(writes, "wb", buffering=0)
    try:
        for w in range(workers):
            reader, writer = os.pipe()
            readers.append(reader)
            try:
                pid = os.fork()
                if pid == 0:
                    status = 1
                    try:
                        queue.close()  # the queue ends when the parent closes its end
                        if cpus:  # a worker the call fails for runs unpinned
                            with contextlib.suppress(OSError):
                                os.sched_setaffinity(0, {cpus[w % len(cpus)]})
                        share = _run_share(run, jobs, claims, files[w] if files else None)
                        with open(writer, "wb", closefd=False) as pipe:
                            pipe.write(marshal.dumps(share))
                        status = 0
                    finally:
                        os._exit(status)
            finally:
                os.close(writer)  # the pipe reads to its end once the worker is gone
            pids.append(pid)
        claims.close()  # the workers hold the queue's only read ends
        numbers = b"".join(job.to_bytes(_JOB_BYTES, "big") for job in range(len(jobs)))
        with contextlib.suppress(BrokenPipeError):  # every worker has died; their statuses say how
            for start in range(0, len(numbers), _QUEUE_WRITE):
                queue.write(numbers[start : start + _QUEUE_WRITE])
        queue.close()  # at its end each worker sends its share and exits
        for reader in readers:
            with open(reader, "rb", closefd=False) as pipe:
                blobs.append(pipe.read())
    except BaseException:
        import signal

        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        claims.close()
        queue.close()
        for reader in readers:
            os.close(reader)
        codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in pids]
    for w, code in enumerate(codes):
        if code != 0:
            raise RuntimeError(f"sweep worker {w} of {workers} exited with status {code}")
    return blobs


def _run_share(run, jobs: list[tuple], claims, out) -> tuple:
    """The jobs a worker reads from the queue's read end *claims* and runs, up to its first failure.

    A failing worker then reads the queue to its end, so every other worker
    stops after its current run.  The jobs it drops all come after the failing
    one, and each read takes whole job numbers, as each write holds them.

    Returns ``(ran, rows, marks, error)``: ``ran`` holds the jobs' numbers in
    the order run, the failing one last; ``rows`` each report as a plain
    tuple; ``marks[i]`` is ``(trace bytes, trace records)`` written by the end
    of run ``i`` (the failing run included); ``error`` is the failing run's
    pickled exception, or None.
    """
    trace = TraceLog(out) if out is not None else None
    ran: list[int] = []
    rows: list[tuple] = []
    marks: list[tuple[int, int]] = []
    while number := claims.read(_JOB_BYTES):
        if len(number) != _JOB_BYTES:
            raise RuntimeError(f"a sweep worker read {len(number)} bytes of a job number")
        job = int.from_bytes(number, "big")
        ran.append(job)
        error = None
        try:
            rows.append(tuple(run(*jobs[job], trace)))
        except Exception as exc:  # handed to the parent, which raises it
            error = _pickled(exc)
        if trace is not None:
            out.flush()
            marks.append((os.lseek(out.fileno(), 0, os.SEEK_CUR), trace.count))
        if error is not None:
            while claims.read(_QUEUE_WRITE):
                pass
            return ran, rows, marks, error
    return ran, rows, marks, None


def _pickled(exc: Exception) -> bytes:
    """*exc* pickled, or its text in a RuntimeError when it does not survive pickling."""
    import pickle

    try:
        blob = pickle.dumps(exc)
        pickle.loads(blob)
    except Exception:
        blob = pickle.dumps(RuntimeError(f"{type(exc).__name__}: {exc}"))
    return blob


def _copy_range(fd: int, start: int, end: int, stream) -> None:
    """Copy bytes ``start:end`` of file *fd* into the text *stream*, a bounded chunk at a time."""
    while start < end:
        chunk = os.pread(fd, min(_COPY_CHUNK, end - start), start)
        if not chunk:
            raise RuntimeError("a sweep worker's trace file ended early")
        stream.write(chunk.decode("ascii"))
        start += len(chunk)
