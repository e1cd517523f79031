"""The quick demos run to completion against the library in ``src``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# 04 trains for minutes and 05 reads the checkpoint 04 writes, so both stay out
QUICK_DEMOS = [
    "01_feature_extraction.py",
    "02_model_architecture.py",
    "03_gradient_verification.py",
    "06_annotation_pipeline.py",
]


@pytest.mark.parametrize("name", QUICK_DEMOS)
def test_demo_exits_zero(tmp_path, name):
    # an absolute path, since the suite is usually run with a relative PYTHONPATH
    paths = [str(ROOT / "src"), *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(paths)},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
