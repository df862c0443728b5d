"""The README's usage lines and Library example match the package."""

import argparse
import inspect
import pathlib
import re

import numpy as np

import chspectral
from chspectral import conjugacy_target
from chspectral.cli import build_parser

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    scope = {}
    exec(compile(blocks[0], str(README), "exec"), scope)
    np.testing.assert_allclose(scope["mat"], conjugacy_target(3), atol=1e-5)


def test_each_usage_line_lists_exactly_its_commands_flags():
    usage = dict(re.findall(r"^ {4}chspectral (\w+) (.*)$", README.read_text(), re.M))
    [sub] = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert sorted(usage) == sorted(sub.choices) == ["discriminant", "spectrum", "verify"]
    for command, parser in sub.choices.items():
        options = {o for a in parser._actions for o in a.option_strings} - {"-h", "--help"}
        assert set(re.findall(r"--[a-z-]+", usage[command])) == options, command


def test_package_exports_the_documented_api():
    exports = sorted(name for name, value in vars(chspectral).items()
                     if not name.startswith("_") and not inspect.ismodule(value))
    assert exports == [
        "BlowUpError", "CoefficientError", "JordanGapError", "auxiliary_spectrum",
        "conjugacy_matrix", "conjugacy_target", "gradient_bundle", "load_coefficient",
        "make_coefficient", "run_suite", "second_floquet"]
