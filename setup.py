"""Setuptools entry point — the package's only metadata file.

Kept as a plain ``setup.py`` so editable installs work on machines
without the ``wheel`` package (offline environments), via::

    pip install -e . --no-use-pep517 --no-build-isolation
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

# One source of truth for the version: the package itself.
_INIT = Path(__file__).parent / "src" / "repro" / "__init__.py"
_VERSION = re.search(r'^__version__ = "([^"]+)"', _INIT.read_text(),
                     re.MULTILINE).group(1)

setup(
    name="repro",
    version=_VERSION,
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=["numpy"],
)
