"""Setuptools metadata for the ``repro`` package (sources under ``src/``).

`pip install -e .` uses PEP 660 editable wheels, which require `wheel`; where
that package is missing, the legacy path
(`pip install -e . --no-build-isolation --no-use-pep517`) still works through
this file.  Without installing, run everything with `PYTHONPATH=src`.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=["numpy", "scipy"],
)
