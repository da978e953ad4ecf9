"""The byte contract: fixed CLI runs write exactly the committed bytes.

Each run below writes into its own directory, and every output except the
manifests (which record a duration) is compared by SHA-256 with DIGESTS. A
change that moves an output updates its row here and says which file moved
and why.

The table pins numpy 2.4.6 with OpenBLAS's Haswell kernel on x86-64. The
simulator's draws follow numpy's binomial algorithms and Philox layout, so
another numpy may differ; the numpy 2.2.6 leg of CI is unverified. Every
output read off ellipse fits (seven rows: all but cycles.csv and the allan
run) also follows the BLAS kernel, which numpy's OpenBLAS picks per CPU at
run time, so the runs go in a child Python with OPENBLAS_CORETYPE=Haswell,
an AVX2 kernel that every x86-64 CI runner can run. OpenBLAS's thread count
does not move them.
"""

import hashlib
import os
import random
import subprocess
import sys

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
DATA = os.path.join(ROOT, "data")
EXAMPLE_CONFIG = os.path.join(DATA, "example_comparison.json")

RUNS = {
    "simulate": ["simulate", EXAMPLE_CONFIG],
    "simulate-window-10": ["simulate", EXAMPLE_CONFIG, "--window", "10"],
    "scaling": ["scaling", EXAMPLE_CONFIG, "--q-grid", "0,0.2,0.4"],
    "ellipse": ["ellipse", os.path.join(DATA, "ellipse_pi_over_3.csv")],
    "allan": ["allan", "series.txt", "--cycle-time", "2.0"],
}

DIGESTS = {
    "simulate/allan.json": "eb15f992dadd20526f4428906ca09cdd925fc596eba2e24e0bc536479d42e332",
    "simulate/cycles.csv": "35b255fe293511ebbafeb49745679d2a87d15a5469b190e3862ebda9651c26a3",
    "simulate/phases.csv": "cd31db3cf47c7ed29b94218bcad9efb3ab9b905de9655089dcc581cbc2bb29ec",
    "simulate-window-10/allan.json": "ade0ce96607063ba29c80e2bdbe9bac8cae8e2542de1751059686c3bb77a1a8b",
    "simulate-window-10/cycles.csv": "35b255fe293511ebbafeb49745679d2a87d15a5469b190e3862ebda9651c26a3",
    "simulate-window-10/phases.csv": "1cacadd8ebf31c02c53648db96a52e24ce4fbf2dfd54d484b153b937611629ee",
    "scaling/scaling.csv": "667764cf397a8f712847c926e0fb096f1e95836dd8d89763c50de9ff3f77f159",
    "scaling/scaling_fit.json": "7e6c9f9055c6c618d209a8805427d589df462b2106867f7db6e4cd2853504811",
    "ellipse/ellipse.json": "85d547a6e0bff7845fc91bfad2d9f2327f140a765534d376728a6e69490dd5d6",
    "allan/allan.json": "825d57c2ab0880961c17c3e1853a919b84b814d8b5e29da5797a018c16518b51",
}


def allan_series() -> str:
    """1000 white samples from Python's own seeded generator, one per line."""
    rng = random.Random(22)
    return "".join(f"{rng.gauss(0.0, 1.0)!r}\n" for _ in range(1000))


def test_outputs_match_the_committed_digests(tmp_path):
    (tmp_path / "series.txt").write_text(allan_series())
    path = os.pathsep.join(filter(None, [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, OPENBLAS_CORETYPE="Haswell")
    digests = {}
    for name, argv in RUNS.items():
        out = tmp_path / name
        done = subprocess.run(
            [sys.executable, "-m", "erasure_sensing", *argv, "--out", str(out)],
            cwd=tmp_path,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, (name, done.stderr)
        for path in sorted(out.iterdir()):
            if not path.name.endswith("_manifest.json"):
                digests[f"{name}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digests == DIGESTS
