"""Package definition for ``repro``.

The package lives under ``src/`` and setuptools discovers it there
(src layout).  The pinned IR2vec seed table
(``repro/embeddings/seed_table.npz``) is package data: an installed or
built ``repro`` loads it instead of training the table.

The offline environment has no ``wheel`` package, so PEP 517 builds and
editable installs cannot run; use ``python setup.py build`` or
``pip install -e . --no-build-isolation --no-use-pep517`` (or
``python setup.py develop``).  Running from a checkout needs neither:
``PYTHONPATH=src`` is enough.
"""

from setuptools import setup

setup(package_data={"repro.embeddings": ["seed_table.npz"]})
