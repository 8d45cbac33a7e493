from setuptools import setup, find_packages

setup(
    name="repro",
    version="1.0.0",
    description=("Reproduction of FAST: An FHE Accelerator for "
                 "Scalable-parallelism with Tunable-bit (ISCA 2025)"),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    # built on first use by repro/backend/native.py
    package_data={"repro.ckks": ["_ntt_kernel.c"]},
    python_requires=">=3.10",
    install_requires=["numpy>=1.24"],
)
