"""Build and load the compiled loops of ``_kernels.c``: the Lindley
recursion and ``serve``, the one event loop of all six disciplines.

``simqueue`` imports this module on its first simulation, not at import.
``load`` compiles the C file with the C compiler Python was built with
into a per-user cache, loads it with ctypes and wraps it in ``Kernels``,
whose methods have the signatures of simqueue's Python loops and give
bitwise the same arrays.  When compiling or loading fails it returns
None, and simqueue runs its Python loops.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import math
import os
import shlex
import subprocess
import sysconfig
import tempfile

import numpy as np

SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_kernels.c")
# the flags are part of correctness: no fused multiply-add, no fast math
CFLAGS = ("-std=c99", "-O2", "-ffp-contract=off", "-shared", "-fPIC")
# a job waiting in serve's heap: struct job of _kernels.c
JOB = np.dtype([("key", np.float64), ("rh", np.float64), ("rl", np.float64),
                ("i", np.int64)])


def compiler() -> list:
    return shlex.split(sysconfig.get_config_var("CC") or "cc")


def cache_dir() -> str:
    root = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache")
    return os.path.join(root, "queuedecay")


def library_path(cc) -> str:
    """Where the library built by ``cc`` is cached: a name keyed on the
    source, the compiler, its flags and the platform."""
    with open(SOURCE, "rb") as fh:
        source = fh.read()
    key = hashlib.sha256(source + repr(
        (cc, CFLAGS, sysconfig.get_platform())).encode()).hexdigest()
    return os.path.join(cache_dir(), f"kernels-{key[:20]}.so")


@functools.lru_cache(maxsize=1)
def load():
    """The compiled loops, built on first use; None when that fails."""
    try:
        cc = compiler()
        path = library_path(cc)
        if os.path.exists(path):
            try:
                return Kernels(ctypes.CDLL(path))
            except OSError:
                pass  # a stale or partial file: _build replaces it
        _build(cc, path)
        return Kernels(ctypes.CDLL(path))
    except (OSError, subprocess.SubprocessError):
        return None


def _build(cc, path):
    # compile to a private name, then move it into place in one step, so a
    # concurrent process sees the library whole or not at all
    folder = os.path.dirname(path)
    os.makedirs(folder, exist_ok=True)
    fd, tmp = tempfile.mkstemp(suffix=".so", dir=folder)
    os.close(fd)
    try:
        subprocess.run([*cc, *CFLAGS, SOURCE, "-o", tmp], check=True,
                       stdin=subprocess.DEVNULL, capture_output=True, timeout=120)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


class Kernels:
    """The compiled loops behind the Python loops' signatures; outputs and
    scratch are numpy arrays allocated here."""

    def __init__(self, lib):
        f64, i8, job = (np.ctypeslib.ndpointer(t, ndim=1, flags="C_CONTIGUOUS")
                        for t in (np.float64, np.int8, JOB))
        n, flag = ctypes.c_int64, ctypes.c_int
        for name, args in (("lindley_workload", (f64, f64, n, f64)),
                           ("serve", (f64, f64, i8, n, flag, flag, f64, f64, job))):
            fn = getattr(lib, name)
            fn.argtypes, fn.restype = args, None
        self._lib = lib

    def lindley(self, a, b):
        w = np.empty(len(a))
        self._lib.lindley_workload(a, b, len(a), w)
        return w

    def serve(self, arrival, service, cls, order, preemptive):
        # at most n - 1 jobs wait at once
        n = len(arrival)
        first, depart = np.full(n, math.nan), np.empty(n)
        self._lib.serve(arrival, service, cls, n, order, preemptive, first,
                        depart, np.empty(n, JOB))
        return first, depart
