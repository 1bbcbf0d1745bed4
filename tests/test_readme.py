"""README's ```python blocks run as written, with warnings as errors,
and every library name its text cites exists."""

import importlib
import re
import warnings
from importlib import resources
from pathlib import Path

import numpy as np

import leanreg
from leanreg.core import csv_text

README = Path(__file__).resolve().parents[1] / "README.md"

MODULES = [
    importlib.import_module(f"leanreg.{p.name[: -len('.py')]}")
    for p in resources.files("leanreg").iterdir()
    if p.name.endswith(".py") and p.name != "__init__.py"
]
# A bare or class-qualified name is looked up in every module and in
# every class the package defines.
OWNERS = [leanreg, *MODULES] + [
    obj for m in MODULES for obj in vars(m).values()
    if isinstance(obj, type) and obj.__module__.startswith("leanreg")
]


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


def resolves(name: str) -> bool:
    """Whether a dotted name cited in README is defined; ``lr`` is the package."""
    parts = name.split(".")
    if parts[0] == "lr":
        parts[0] = "leanreg"
    owners = [importlib.import_module(parts.pop(0))] if parts[0] in ("leanreg", "numpy") else OWNERS
    for owner in owners:
        obj = owner
        for part in parts:
            obj = getattr(obj, part, None)
        if obj is not None:
            return True
    return False


def cited_names() -> list[str]:
    """Every ``lr.<name>``, ``leanreg.<module>.<name>`` and backticked ``name(`` in README."""
    text = README.read_text(encoding="utf-8")
    prose = re.sub(r"^```.*?^```", "", text, flags=re.M | re.S)
    calls = [m for span in re.findall(r"`([^`]+)`", prose)
             for m in re.findall(r"([A-Za-z_][\w.]*)\(", span)]
    return sorted({*re.findall(r"\blr\.\w+", text), *re.findall(r"\bleanreg\.\w+\.\w+", text), *calls})


def test_cited_names_resolve():
    assert all(map(resolves, ["lr.fit_glm", "leanreg.rng.philox_keys", "PredictionBand.evaluate",
                              "to_csv_text", "numpy.random.SeedSequence"]))
    assert not any(map(resolves, ["lr.no_such_fit", "no_such_function", "leanreg.fitting.no_such_fit",
                                  "Dataset.no_such_field", "numpy.no_such_name"]))
    names = cited_names()
    assert {"lr.fit_glm", "leanreg.rng.philox_keys", "pair_table_csv", "calibrate_K"} <= set(names)
    assert [n for n in names if not resolves(n)] == []
