from setuptools import find_packages, setup

setup(
    name="repro-lolcode",
    version="1.0.0",
    description="Reproduction of 'I Can Has Supercomputer?' — parallel "
    "LOLCODE over an OpenSHMEM-like SPMD/PGAS runtime",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    package_data={
        "repro.workloads": ["lol/*.lol"],
        # The bundled single-node SHMEM shim the native engine builds
        # generated C against (engine="c" / lcc --build).
        "repro.compiler": ["lol_shmem_shim.c", "lol_shmem_shim.h"],
    },
    python_requires=">=3.10",
    entry_points={
        "console_scripts": [
            "lcc=repro.cli:lcc_main",
            "loli=repro.cli:loli_main",
            "loldis=repro.cli:loldis_main",
            "lolrun=repro.cli:lolrun_main",
            "lollint=repro.cli:lollint_main",
            "lolfmt=repro.cli:lolfmt_main",
            "lolbench=repro.cli:lolbench_main",
            "lolserve=repro.cli:lolserve_main",
            "loltrace=repro.cli:loltrace_main",
            "lolprof=repro.cli:lolprof_main",
            "lolfuzz=repro.cli:lolfuzz_main",
        ]
    },
)
