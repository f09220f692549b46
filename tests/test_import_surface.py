"""What ``import repro`` loads: scipy.stats stays off the import path.

scipy.stats drags in scipy.optimize, spatial and ndimage — most of a cold
``import repro`` and tens of MB of RSS in every CLI call and pool worker.
The library needs only ``scipy.special``; ``stats.gamma.ppf`` serves as
the reference oracle in ``tests/test_quantile_cache.py``.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import repro
from repro.perfmodel import queueing


def test_import_repro_does_not_load_scipy_stats():
    src = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, repro; print('scipy.stats' in sys.modules)"
    loaded = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    ).stdout.strip()
    assert loaded == "False"


def test_queueing_has_no_scipy_stats_binding():
    assert not hasattr(queueing, "stats")
