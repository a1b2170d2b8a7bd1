"""A pool of forked worker processes for ``apply``'s pooled modes.

Each worker is forked when the pool starts and talks to the master over two
pipes, one for calls and one for replies, each message a length-prefixed
pickle.  The master never gives a worker a second call before reading the
reply to its first, so neither end can block on a full pipe.  A worker
starts as a copy of the master: it has every module the master had imported,
as the master left it.  Forking is safe on Linux; macOS is not supported,
since a fork there is unsafe once system libraries have started threads.
"""

import os
import pickle
import sys
from signal import SIGKILL


def _flush():
    """Flush the std streams, so that a fork does not copy their buffers
    and a worker's output is written before it is killed."""
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except (AttributeError, ValueError, OSError):
            pass


def _send(fd, data):
    view = memoryview(len(data).to_bytes(8, "little") + data)
    while view:
        view = view[os.write(fd, view):]


def _read(fd, size):
    """``size`` bytes from ``fd``, or None if it ends first."""
    buf, got = bytearray(size), 0
    while got < size:
        n = os.readv(fd, [memoryview(buf)[got:]])
        if n == 0:
            return None
        got += n
    return buf


def _recv(fd):
    """The next message on ``fd``, or None if its writer is gone."""
    head = _read(fd, 8)
    return head and _read(fd, int.from_bytes(head, "little"))


def _serve(calls, replies):
    """A worker's loop: answer each ``(f, args)`` on ``calls`` with ``(ok,
    value)`` on ``replies``, until ``calls`` ends."""
    while (call := _recv(calls)) is not None:
        try:
            f, args = pickle.loads(call)
            reply = True, f(*args)
        except Exception as exc:
            reply = False, exc
        try:
            reply = pickle.dumps(reply, pickle.HIGHEST_PROTOCOL)
        except Exception as exc:
            reply = pickle.dumps((False, exc), pickle.HIGHEST_PROTOCOL)
        _flush()
        _send(replies, reply)


class _Worker:
    """A forked worker as the master sees it: its pid and its pipe ends."""

    def __init__(self, pid, calls, replies):
        self.pid, self.calls, self.replies = pid, calls, replies
        self.unread = None  # the call whose reply is still in the pipe
        self.status = None  # the exit status, once reaped

    def receive(self):
        """The ``(ok, value)`` reply to the call this worker holds."""
        self.unread = None
        reply = _recv(self.replies)
        if reply is None:
            # killed, by a signal or the OOM killer, or exited
            if self.status is None:
                self.status = os.waitstatus_to_exitcode(
                    os.waitpid(self.pid, 0)[1])
            return False, ChildProcessError(
                f"worker process {self.pid} died with exit status "
                f"{self.status}")
        return pickle.loads(reply)


class _Call:
    """A submitted call: its reply is read when its result is asked for,
    or before its worker is given another call."""

    def __init__(self, worker=None, reply=None):
        self.worker, self.reply = worker, reply

    def read(self):
        if self.reply is None:
            self.reply = self.worker.receive()

    def result(self):
        self.read()
        ok, value = self.reply
        if not ok:
            raise value
        return value


class ForkPool:
    """``workers`` forked processes.  ``submit`` returns a call whose
    ``result()`` reads its reply; call k goes to worker k mod ``workers``.
    ``shutdown``, or leaving a ``with`` block, kills and reaps them all."""

    def __init__(self, workers: int):
        self._workers = []
        self._calls = 0
        try:
            for _ in range(workers):
                self._fork()
        except BaseException:
            self.shutdown()
            raise

    def _fork(self):
        calls, to_worker = os.pipe()
        from_worker, replies = os.pipe()
        _flush()
        try:
            pid = os.fork()
        except OSError:
            for fd in (calls, to_worker, from_worker, replies):
                os.close(fd)
            raise
        if pid == 0:
            # whatever ends the worker (EOF, a broken pipe or another
            # exception) ends its process here: it never unwinds into the
            # master's stack or prints a traceback, and its buffers hold
            # only its own output.  Closing the master's ends lets a master
            # that dies unawares end its workers by EOF.
            status = 1
            try:
                os.close(to_worker)
                os.close(from_worker)
                _serve(calls, replies)
                status = 0
            finally:
                _flush()
                os._exit(status)
        os.close(calls)
        os.close(replies)
        self._workers.append(_Worker(pid, to_worker, from_worker))

    def submit(self, f, *args):
        try:
            call = pickle.dumps((f, args), pickle.HIGHEST_PROTOCOL)
        except Exception as exc:
            return _Call(reply=(False, exc))
        worker = self._workers[self._calls % len(self._workers)]
        self._calls += 1
        if worker.unread is not None:
            worker.unread.read()
        try:
            _send(worker.calls, call)
        except BrokenPipeError:
            pass  # the worker is gone, which its reply pipe reports
        worker.unread = _Call(worker)
        return worker.unread

    def shutdown(self):
        """Kill every worker and reap it.  An idle worker holds no work, and
        a busy one's is abandoned; a kill does not wait, as an EOF on the
        call pipe would, for every process forked since to let go of it."""
        for w in self._workers:
            if w.status is None:
                os.kill(w.pid, SIGKILL)
            os.close(w.calls)
            os.close(w.replies)
        for w in self._workers:
            if w.status is None:
                os.waitpid(w.pid, 0)
        self._workers = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.shutdown()
