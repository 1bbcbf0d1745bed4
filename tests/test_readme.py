"""README's ```python blocks run as written, with warnings as errors."""

import re
import warnings
from pathlib import Path

import numpy as np

from leanreg.core import csv_text

README = Path(__file__).resolve().parents[1] / "README.md"


def python_blocks():
    return re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)


def test_python_blocks_run(tmp_path, monkeypatch):
    # The quick start reads data.csv with columns y, x1, x2.
    rng = np.random.default_rng(5)
    x = rng.standard_normal((200, 2))
    y = 1.0 + x[:, 0] - 0.5 * x[:, 1] ** 2 + rng.standard_normal(200)
    (tmp_path / "data.csv").write_text(csv_text(["y", "x1", "x2"], [y, *x.T]), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    blocks = python_blocks()
    assert len(blocks) >= 2
    namespace = {}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for block in blocks:  # later blocks use names the first one binds
            exec(compile(block, str(README), "exec"), namespace)
