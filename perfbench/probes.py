"""Child processes and the machine record.

Every child is started from the benchmark's own process, run to the end
and reaped with ``os.wait4`` so its own peak resident memory is known.
Children find the package through ``PYTHONPATH``; nothing is installed.
"""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import numpy as np


class ChildFailed(RuntimeError):
    """A child process exited with a nonzero code."""


def child_env(src: Path, **extra: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    env.update(extra)
    return env


def run_child(argv: list[str], env: dict, stdout_path: Path | None = None,
              stderr_path: Path | None = None) -> tuple[float, float]:
    """Run ``argv`` to completion; return (wall seconds, peak RSS in MiB).

    Raises :class:`ChildFailed` on a nonzero exit, quoting the child's
    standard error when it was captured.
    """
    with open(stdout_path or os.devnull, "wb") as out, open(stderr_path or os.devnull, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=out, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        detail = Path(stderr_path).read_text(errors="replace")[-2000:] if stderr_path else ""
        raise ChildFailed(f"{argv[1:4]} exited with {proc.returncode}: {detail}")
    # Linux reports ru_maxrss in KiB.
    return wall, usage.ru_maxrss / 1024.0


def setup_time(src: Path, path: Path) -> float:
    """Wall time of a fresh process that imports colsel and loads the input."""
    code = "import sys, colsel; colsel.load_matrix(sys.argv[1], 'binary')"
    wall, _ = run_child([sys.executable, "-c", code, str(path)], child_env(src))
    return wall


def cli_startup_time(src: Path) -> float:
    """Wall time of a fresh interpreter importing the command-line module."""
    wall, _ = run_child([sys.executable, "-c", "import colsel.cli"], child_env(src))
    return wall


def _openblas_threads():
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for lib_path in libs:
        lib = ctypes.CDLL(lib_path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            getter = getattr(lib, name, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return getter()
    return None


def _cache_sizes() -> dict:
    sizes = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            level = Path(index, "level").read_text().strip()
            kind = Path(index, "type").read_text().strip()
            size = Path(index, "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data"):
            sizes[f"L{level}"] = size
    return sizes


def machine_record() -> dict:
    """Processor count, BLAS build and threads, versions and cache sizes."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    caches = _cache_sizes()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _openblas_threads(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "l2": caches.get("L2"),
        "l3": caches.get("L3"),
    }
