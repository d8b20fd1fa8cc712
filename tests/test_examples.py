"""Every example script imports cleanly and defines ``main``.

The examples are run by hand, not by the suite, so importing each one
(without calling ``main``) is what catches an example stranded by an API
change.
"""

import importlib.util
import pathlib

import pytest

EXAMPLES = sorted(
    (pathlib.Path(__file__).resolve().parents[1] / "examples").glob("*.py"))


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.stem)
def test_example_imports_and_defines_main(path):
    spec = importlib.util.spec_from_file_location(
        f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(getattr(module, "main", None))
