"""Process parallelism: the one place the package forks.

:func:`fork_map` runs each of a list of jobs in its own forked child
process, which inherits the caller's memory, loaded modules and open files,
so a job's arguments are never pickled and a script without a main guard
is not imported again.  The package starts no threads of its own, which a
fork would not carry into the child.  Each child sends back its result,
or the exception it raised, pickled through a pipe; the caller reads every
pipe before it reaps that child, and no child outlives the call.  The
solver's pixel blocks (:func:`lwirange.hyperspectral.solve`) and the row
spans of every LWC1 file a save writes (:func:`lwirange.cube_io._save`)
run here, one call per solve or save.
"""

from __future__ import annotations

import os
import pickle
import signal


def _usable_cores():
    """Cores this process may run on: its affinity mask where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _keep_freed_heap():
    # glibc hands a worker's freed heap back to the kernel and faults it in
    # again on the next allocation of the same size, tens of thousands of
    # minor faults per solver block.  Raise the trim threshold to 1 GiB and
    # the mmap threshold to glibc's 64-bit maximum, 32 MiB, so freed blocks
    # stay in the heap for reuse.  Other C libraries are left as they are
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return
    except (AttributeError, ValueError, OSError):
        return
    import ctypes

    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(-1, 1 << 30)  # M_TRIM_THRESHOLD
    mallopt(-3, 1 << 25)  # M_MMAP_THRESHOLD


def _run_child(fn, job, r, w):
    # the forked child: run the job, send (ok, result or exception) up the
    # pipe and exit without unwinding into the caller's stack
    code = 1
    try:
        os.close(r)
        _keep_freed_heap()
        try:
            out = (True, fn(*job))
        except BaseException as exc:  # the caller raises it, whatever it is
            out = (False, exc)
        try:
            data = pickle.dumps(out, pickle.HIGHEST_PROTOCOL)
        except Exception as exc:  # an unpicklable result or exception
            data = pickle.dumps((False, RuntimeError(
                f"a worker's {'result' if out[0] else 'exception'} could not "
                f"be pickled: {out[1]!r} ({exc})")))
        with open(w, "wb") as pipe:
            pipe.write(data)
        code = 0
    finally:
        os._exit(code)


def fork_map(fn, jobs):
    """[fn(*job) for job in jobs], each job run in its own forked child.

    Results come back in job order; the first job, in job order, that
    raised has its exception re-raised here as itself, and a child that
    ends without sending a result raises ChildProcessError.  On any
    exception every child still running is killed, and every child is
    reaped before this returns or raises.  A single job runs in this
    process, and nothing is forked.
    """
    if len(jobs) == 1:
        return [fn(*jobs[0])]
    children = []  # [pid, read end], each set to None once reaped or closed
    try:
        for job in jobs:
            r, w = os.pipe()
            children.append([None, r])
            try:
                pid = os.fork()
            except BaseException:
                os.close(w)
                raise
            if pid == 0:
                _run_child(fn, job, r, w)
            os.close(w)
            children[-1][0] = pid
        results = []
        for child in children:
            with open(child[1], "rb") as pipe:
                child[1] = None
                data = pipe.read()
            _, status = os.waitpid(child[0], 0)
            child[0] = None
            if status != 0:
                raise ChildProcessError(
                    "a worker process ended without a result, exit status "
                    f"{os.waitstatus_to_exitcode(status)}")
            ok, value = pickle.loads(data)
            if not ok:
                raise value
            results.append(value)
        return results
    finally:
        for pid, r in children:
            if r is not None:
                os.close(r)
            if pid is not None:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
