"""Package metadata, so ``pip install -e .`` works without network access.

PEP 660 editable installs need the ``wheel`` package; with the metadata
here, the legacy ``setup.py develop`` path works without it.  There is
no ``pyproject.toml``.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

VERSION = re.search(
    r'__version__ = "([^"]+)"',
    (Path(__file__).parent / "src" / "repro" / "_version.py").read_text(encoding="utf-8"),
).group(1)

setup(
    name="repro",
    version=VERSION,
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=["numpy", "scipy"],
)
