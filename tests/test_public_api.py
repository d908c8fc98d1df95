"""The public surface: README's library example and the package's __all__."""

import re
from pathlib import Path

import dringkit

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs_verbatim():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})


def test_every_public_name_resolves_and_star_import_binds_exactly_them():
    assert len(set(dringkit.__all__)) == len(dringkit.__all__)
    for name in dringkit.__all__:
        assert getattr(dringkit, name) is not None, name
    namespace = {}
    exec("from dringkit import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(dringkit.__all__)
