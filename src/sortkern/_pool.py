"""The thread pool the package's parallel loops share.

_fan_out runs a function over a list of keys on the calling thread and one
helper thread per further CPU; the experiments' fill-distance trials and the
kernel evaluator's row tiles go through it. Only it starts threads in the
package (BLAS keeps its own): a key's work, the kd-tree fill queries
included, runs on the thread that took it, so nothing nests. Threads, not
processes: the hot numpy and scipy calls release the GIL, a thread pays no
interpreter start-up, and the process's peak RSS stays the whole program's.
"""

import os
import threading


def _worker_count():
    """CPUs this process may run on: the pool's workers, caller included."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _fan_out(fn, keys):
    """[fn(key) for key in keys], computed by the caller and helper threads.

    The calling thread and _worker_count() - 1 helpers, never more than one
    thread per key, take keys in order from one shared iterator, so a single
    CPU or a single key starts no thread. After the first failure no further
    key is handed out; the helpers are joined and the failure of the earliest
    key is raised, the one a serial loop over the keys would have raised.
    """
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
