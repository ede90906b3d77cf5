from setuptools import find_packages, setup

setup(
    name="repro-steiner",
    version="0.6.0",
    description=(
        "Reproduction of distributed 2-approximation Steiner minimal trees "
        "(IPDPS 2022)"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    # PEP 561: the package ships inline type annotations
    package_data={"repro": ["py.typed"]},
    python_requires=">=3.10",
    install_requires=["numpy"],
    extras_require={
        "docs": ["mkdocs", "mkdocs-material", "mkdocstrings[python]"],
    },
    entry_points={
        "console_scripts": ["repro-steiner=repro.harness.cli:main"],
    },
)
