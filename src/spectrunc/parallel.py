"""One thread budget: at most ``worker_count()`` threads do library work at
once.  A calling thread holds one slot, ``take`` hands out the spare slots
free now, and ``share`` runs one helper thread on each.  The rule: a sweep
holds its slots until its last cell ends, so a kernel block inside a sweep
that holds the budget runs its row tiles on its cell's thread, and a block
outside a sweep runs them on every free slot."""

from __future__ import annotations

import os
import threading

from .errors import ConfigError

WORKERS_ENV = "SPECTRUNC_WORKERS"
_lock = threading.Lock()
_taken = 0                              # spare slots held, beyond each caller's own


def worker_count() -> int:
    """The total thread budget, sweep cells plus row-tile helpers: the
    environment variable, else the CPUs of this process's affinity mask."""
    raw = os.environ.get(WORKERS_ENV)
    if raw is None:
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    try:
        count = int(raw)
    except ValueError:
        raise ConfigError(f"{WORKERS_ENV} must be an integer, got {raw!r}") from None
    if count < 1:
        raise ConfigError(f"{WORKERS_ENV} must be >= 1, got {raw}")
    return count


def take(want: int) -> int:
    """Take up to ``want`` spare slots that are free now, or give ``-want``
    back; returns the change.  The budget is read only when ``want`` > 0."""
    global _taken
    with _lock:
        got = min(want, max(0, worker_count() - 1 - _taken)) if want > 0 else want
        _taken += got
    return got


def share(work, tasks, spares: int, caller_works: bool = True) -> None:
    """Call ``work`` on every item (not None) of the sequence ``tasks``,
    pulled in order by the caller and by one helper thread per slot of
    ``spares``, slots the caller took; those beyond one thread per task go
    back at once.  A caller that does not work only waits, lending its own
    slot to one more helper.  All slots are held until the call returns
    (the module's rule); after a task raises, none is handed out, the
    helpers are joined and the first exception is re-raised."""
    held = spares + take(-max(0, spares + 1 - len(tasks)))
    pending, lock, failed = iter(tasks), threading.Lock(), []

    def pull() -> None:
        while True:
            with lock:
                task = None if failed else next(pending, None)
            if task is None:
                return
            try:
                work(task)
            except BaseException as exc:            # re-raised by the caller
                failed.append(exc)

    threads = [threading.Thread(target=pull) for _ in range(held + (not caller_works))]
    try:
        for t in threads:
            t.start()
        if caller_works:
            pull()
    finally:
        for t in threads:
            if t.ident is not None:
                t.join()
        take(-held)
    if failed:
        raise failed[0]
