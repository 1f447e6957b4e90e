"""Build script.

The package is pure Python with no runtime dependencies and nothing to
compile; all metadata lives in pyproject.toml.
"""

from setuptools import setup

setup()
