"""Legacy setup shim.

The project metadata lives in ``pyproject.toml``, which ``pip install .``
and ``pip install -e .`` read through the setuptools build backend.  This
file only serves tools that still call ``setup.py`` directly, such as
``python setup.py --version``.
"""

from setuptools import setup

setup()
