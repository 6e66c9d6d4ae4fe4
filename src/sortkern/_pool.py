"""The thread pool the package's parallel loops share.

_fan_out runs a function over a list of keys on the calling thread and one
helper thread per further CPU. The fill-distance trials of the experiments
and the row tiles of the kernel evaluator both go through it. Threads, not
processes: the hot numpy and scipy calls release the GIL, a thread pays no
interpreter start-up, and the process's peak RSS stays the whole program's.
"""

import ctypes
import functools
import os
import threading

# glibc's mallopt parameter for the block size malloc maps on its own, and
# the value the pool pins it to (glibc's own starting value)
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD_BYTES = 128 * 1024


def _worker_count():
    """CPUs this process may run on: the pool's workers, caller included."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


@functools.cache
def _map_large_blocks():
    """Pin malloc's mmap threshold, so every large array is mapped on its own.

    glibc raises the threshold to the size of each mapped block freed, up
    to 32 MiB, so after the first large array later ones come from the
    malloc arenas. With threads, which freed arena memory a new array can
    reuse then depends on timing, and the peak RSS of one table1 run
    differed from the next by about 10 MB. A pinned threshold maps each
    large array and unmaps it when freed, so the peak is the memory in use.
    The setting lasts for the process, so it is made once. Where the C
    library has no mallopt, nothing changes.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)


def _fan_out(fn, keys):
    """[fn(key) for key in keys], computed by the caller and helper threads.

    The calling thread and _worker_count() - 1 helpers, never more than one
    thread per key, take keys in order from one shared iterator, so a single
    CPU or a single key starts no thread. After the first failure no further
    key is handed out; the helpers are joined and the failure of the earliest
    key is raised, the one a serial loop over the keys would have raised.
    """
    _map_large_blocks()
    keys = list(keys)
    results = [None] * len(keys)
    errors = {}
    todo = iter(enumerate(keys))
    lock = threading.Lock()
    stop = threading.Event()

    def drain():
        while not stop.is_set():
            with lock:
                item = next(todo, None)
            if item is None:
                return
            i, key = item
            try:
                results[i] = fn(key)
            except BaseException as exc:
                errors[i] = exc
                stop.set()
                return

    helpers = [threading.Thread(target=drain, name=f"sortkern-pool-{w}")
               for w in range(1, min(_worker_count(), len(keys)))]
    for th in helpers:
        th.start()
    try:
        drain()
    finally:
        # also reached when the caller is interrupted outside fn
        stop.set()
        for th in helpers:
            th.join()
    if errors:
        raise errors[min(errors)]
    return results
