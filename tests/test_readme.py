import contextlib
import io
import re
from pathlib import Path

import numpy as np

import quantcal

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_tour():
    """The code block under the README's "Library quick tour" heading."""
    text = README.read_text()
    section = text[text.index("## Library quick tour"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_quick_tour_runs():
    namespace = {}
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(quick_tour(), str(README), "exec"), namespace)
    # one calibration error per model, then the recalibrated PITs
    errors = [float(line) for line in printed.getvalue().split()]
    assert len(errors) == 2 and all(np.isfinite(errors))
    fixed = namespace["fixed"]
    assert fixed.shape == namespace["ds"].targets.shape
    assert np.all((fixed >= 0.0) & (fixed <= 1.0))


def test_package_root_exports_every_listed_name():
    namespace = {}
    exec("from quantcal import *", namespace)  # a listed name that is missing raises
    assert set(quantcal.__all__) <= set(namespace)
