"""Advisory inter-process file locking for the on-disk stores.

POSIX uses ``fcntl.flock`` and Windows ``msvcrt.locking``; platforms
with neither fall back to ``O_EXCL`` lockfile creation.  All three
speak the same :class:`FileLock` protocol: exclusive, advisory (every
cooperating writer must take the lock — readers stay lock-free, the
stores' atomic renames make reads crash-consistent on their own), and
acquired by polling so a contended lock never blocks uninterruptibly.

Locks are intentionally coarse — one per persistence directory — and
held only across a single store/index update (milliseconds), so the
poll interval matters less than the fairness of the filesystem.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

from ..errors import ReproError

__all__ = ["FileLock", "LockTimeout"]

try:  # POSIX
    import fcntl as _fcntl
except ImportError:  # pragma: no cover - non-POSIX
    _fcntl = None
try:  # Windows
    import msvcrt as _msvcrt
except ImportError:
    _msvcrt = None


class LockTimeout(ReproError, TimeoutError):
    """An advisory file lock could not be acquired within the timeout."""


class FileLock:
    """Exclusive advisory lock on ``path`` (created if missing).

    >>> lock = FileLock(tmp_path / ".lock")     # doctest: +SKIP
    >>> with lock:                              # doctest: +SKIP
    ...     ...  # read-modify-write critical section

    After :meth:`acquire`, ``lock.waited`` holds the seconds spent
    contending (0.0 for an uncontended acquire) — the stores surface
    it as their ``lock_waits`` / ``lock_wait_seconds`` counters.
    """

    def __init__(self, path, *, timeout: float = 10.0, poll: float = 0.005):
        self.path = Path(path)
        self.timeout = float(timeout)
        self.poll = float(poll)
        #: Seconds spent waiting in the most recent :meth:`acquire`.
        self.waited = 0.0
        self._fd: int | None = None
        self._lockfile_mode = _fcntl is None and _msvcrt is None

    # ------------------------------------------------------------------
    def _try_once(self) -> bool:
        if self._lockfile_mode:
            try:
                self._fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_RDWR)
                return True
            except FileExistsError:
                return False
        fd = os.open(self.path, os.O_CREAT | os.O_RDWR)
        try:
            if _fcntl is not None:
                _fcntl.flock(fd, _fcntl.LOCK_EX | _fcntl.LOCK_NB)
            else:  # pragma: no cover - Windows
                _msvcrt.locking(fd, _msvcrt.LK_NBLCK, 1)
        except OSError:
            os.close(fd)
            return False
        self._fd = fd
        return True

    def acquire(self) -> "FileLock":
        start = time.monotonic()
        # Only a failed try is contention: a slow open()/flock() on a
        # busy host is not a wait on another writer.
        self.waited = 0.0
        while not self._try_once():
            if time.monotonic() - start >= self.timeout:
                raise LockTimeout(
                    f"could not lock {self.path} within {self.timeout}s "
                    "(another writer is holding it unusually long)"
                )
            time.sleep(self.poll)
            self.waited = time.monotonic() - start
        return self

    def release(self) -> None:
        fd, self._fd = self._fd, None
        if fd is None:
            return
        if self._lockfile_mode:
            os.close(fd)
            try:
                os.unlink(self.path)
            except OSError:  # pragma: no cover - already healed away
                pass
            return
        try:
            if _fcntl is not None:
                _fcntl.flock(fd, _fcntl.LOCK_UN)
            else:  # pragma: no cover - Windows
                _msvcrt.locking(fd, _msvcrt.LK_UNLCK, 1)
        finally:
            os.close(fd)

    # ------------------------------------------------------------------
    def __enter__(self) -> "FileLock":
        return self.acquire()

    def __exit__(self, *exc) -> None:
        self.release()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "held" if self._fd is not None else "free"
        return f"FileLock({self.path}, {state})"
