"""Packaging metadata for the ``repro`` reproduction package.

The offline environment ships setuptools without the ``wheel`` package,
so PEP 660 editable installs (which build a wheel) fail; keeping all
metadata in classic ``setup.py`` form lets
``pip install -e . --no-use-pep517 --no-build-isolation`` fall back to
the ``setup.py develop`` path.

Extras:

* ``test`` — the test toolchain (pytest + hypothesis property suites).
"""

from setuptools import find_packages, setup

setup(
    name="repro-rm-incentivized",
    version="1.2.0",
    description=(
        "Reproduction of 'Revenue Maximization in Incentivized Social "
        "Advertising' (Aslay, Bonchi, Lakshmanan & Lu, VLDB 2017)"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.11",
    install_requires=["numpy>=1.24"],
    extras_require={
        "test": ["pytest>=7", "hypothesis>=6"],
    },
)
