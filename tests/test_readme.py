"""README.md names only what the package has."""

import importlib
import pathlib
import pkgutil
import re

import persuade

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_readme_names_resolve():
    # Every backticked `module.name` whose module is a persuade module;
    # `module.py` names a file, not an attribute.
    modules = {info.name for info in pkgutil.iter_modules(persuade.__path__)}
    text = README.read_text(encoding="utf-8")
    names = {
        (module, name)
        for module, name in re.findall(r"`(\w+)\.(\w+)`", text)
        if module in modules and name != "py"
    }
    assert len(names) > 20
    missing = [
        f"{module}.{name}"
        for module, name in sorted(names)
        if not hasattr(importlib.import_module(f"persuade.{module}"), name)
    ]
    assert missing == []
