"""Minimal setuptools entry point.

The package lives under ``src/``; tests and tools run it with
``PYTHONPATH=src``. This file exists only so that ``pip install -e .
--no-build-isolation --no-use-pep517`` works on offline machines that lack
the ``wheel`` package. Test collection is configured in ``pytest.ini``,
lint in ``ruff.toml``.
"""

from setuptools import setup

setup()
