"""Importing ``repro`` starts no idle BLAS worker pool.

``repro`` uses numpy only for elementwise arithmetic, ``cumsum`` and
``searchsorted`` on frame sizes, so it loads numpy with OpenBLAS held
to one thread (``repro.media``) and must leave ``os.environ`` as it
found it.  Each check imports ``repro.api`` in a fresh interpreter:
numpy is already loaded inside pytest, which would hide the effect.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

_SRC = str(Path(repro.__file__).resolve().parents[1])

_PROBE = """
import json, os, sys
import repro.api
tasks = len(os.listdir("/proc/self/task")) if sys.platform.startswith("linux") else None
print(json.dumps({"tasks": tasks, "blas": os.environ.get("OPENBLAS_NUM_THREADS")}))
"""

# Variables OpenBLAS also reads for its pool size; none may decide the result.
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _import_repro(**preset: str) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in _THREAD_VARS}
    env.update(preset)
    env["PYTHONPATH"] = os.pathsep.join(
        [_SRC] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    done = subprocess.run(
        [sys.executable, "-c", _PROBE],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="counts threads in /proc/self/task"
)
def test_import_starts_one_thread():
    assert _import_repro()["tasks"] == 1


def test_unset_blas_threads_stays_unset():
    assert _import_repro()["blas"] is None


def test_preset_blas_threads_is_kept():
    assert _import_repro(OPENBLAS_NUM_THREADS="2")["blas"] == "2"
