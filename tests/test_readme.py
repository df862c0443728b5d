"""The README's Library example runs as written."""

import pathlib
import re

import numpy as np

from chspectral import conjugacy_target

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    scope = {}
    exec(compile(blocks[0], str(README), "exec"), scope)
    np.testing.assert_allclose(scope["mat"], conjugacy_target(3), atol=1e-5)
