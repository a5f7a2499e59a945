"""README's library quick start runs as written and gives the rates it is known for.

The one ```python block under "Library quick start" is executed as is, so a
renamed or removed API that leaves README stale fails here.
"""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def _quick_start() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library quick start\n", 1)[1].split("\n## ", 1)[0]
    (code,) = re.findall(r"^```python\n(.*?)^```", section, re.S | re.M)
    return code


def test_the_library_quick_start_runs_and_gives_its_rates():
    namespace = {}
    exec(compile(_quick_start(), "README.md", "exec"), namespace)
    assert float(namespace["r_ci"]) == pytest.approx(18.24, abs=0.005)
    assert float(namespace["r_svd"]) == pytest.approx(16.39, abs=0.005)
    assert namespace["ee"] > 0
