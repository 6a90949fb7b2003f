"""Setuptools shim.

The environment used for the reproduction has no network access and ships a
setuptools without the ``wheel`` package, so PEP 660 editable installs
(``pip install -e .``) cannot build an editable wheel there.  This shim keeps
the legacy ``setup.py develop`` code path available instead: ``python
setup.py develop`` (or, where ``wheel`` is installed, ``pip install -e .
--no-use-pep517 --no-build-isolation``).  All project metadata lives in
``pyproject.toml``.
"""

from setuptools import setup

setup()
