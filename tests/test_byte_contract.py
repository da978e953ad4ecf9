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
an AVX2 kernel that every x86-64 CI runner can run. Past the scatter
product every fit is solved in closed form, with no LAPACK call, and the
scaling exponent in scaling_fit.json is a closed-form least-squares line on
math logarithms, with no BLAS or LAPACK call at all. OpenBLAS's thread count
does not move them: the table is checked at its default and at one thread.
Nor does numpy's SIMD dispatch: the ellipse fits take their angles with
math.acos and their cubes as products, and the scaling fit its logs and
exponentials from math and its squares as products, never through the
numpy functions whose last bit follows it (arccos, arctan2, cbrt, power,
log, log1p, exp). A second test reruns the five with numpy's AVX-512 paths
switched off, and a third refits 300 random sets there, since the one
scaling run fits only three points.
"""

import hashlib
import os
import random
import subprocess
import sys

import pytest

from erasure_sensing.clock import fit_fixed_form_intercept, fit_loglog_exponent

try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:  # numpy 1, whose dispatch this file does not pin
    __cpu_features__ = {}

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
    "simulate/allan.json": "8fa3c902e5e4e85b1f5f006e74ae7e0694c0e2959754ff81089d6e2ff3bd47d7",
    "simulate/cycles.csv": "35b255fe293511ebbafeb49745679d2a87d15a5469b190e3862ebda9651c26a3",
    "simulate/phases.csv": "3f9a9c7b0eab17222a5fae5f1253c7d4976cc799596b57e3aea8a810d6120436",
    "simulate-window-10/allan.json": "5fdbb2671518c9db8a2ff147f346fc06a4f6e341595248b4c249a1019a85760d",
    "simulate-window-10/cycles.csv": "35b255fe293511ebbafeb49745679d2a87d15a5469b190e3862ebda9651c26a3",
    "simulate-window-10/phases.csv": "4fbc3a54b38981c3b45c24baf7ed0df23d7fcb86a79fc4ff8c26c6e68eea09b2",
    "scaling/scaling.csv": "515d85eeedfe520ff9d3f8673bbba81c3f7148ef5b6cffdf292d78e1b3c58ad0",
    "scaling/scaling_fit.json": "4749eb0433fe1084e89a2c731c5f1ab56be77355d73228a8801dda057cb0aadd",
    "ellipse/ellipse.json": "25f481081be45c996bb17d9d3546bbcaac8ee98907a2e95a7dfd50289e4e65ce",
    "allan/allan.json": "825d57c2ab0880961c17c3e1853a919b84b814d8b5e29da5797a018c16518b51",
}


def allan_series() -> str:
    """1000 white samples from Python's own seeded generator, one per line."""
    rng = random.Random(22)
    return "".join(f"{rng.gauss(0.0, 1.0)!r}\n" for _ in range(1000))


# numpy's AVX-512 dispatch targets; the CPU runs the AVX2 paths without them
AVX512 = ("X86_V4", "AVX512_ICL", "AVX512_SPR")


def run_digests(tmp_path, **env) -> dict:
    """SHA-256 of every output of the five runs, in a child Python with the
    Haswell BLAS kernel and any further environment given."""
    (tmp_path / "series.txt").write_text(allan_series())
    path = os.pathsep.join(filter(None, [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, OPENBLAS_CORETYPE="Haswell", **env)
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
    return digests


@pytest.mark.parametrize("env", [{}, {"OPENBLAS_NUM_THREADS": "1"}], ids=["default", "one-thread"])
def test_outputs_match_the_committed_digests(tmp_path, env):
    assert run_digests(tmp_path, **env) == DIGESTS


needs_avx512 = pytest.mark.skipif(not all(__cpu_features__.get(f) for f in AVX512),
                                  reason="numpy reports no AVX-512 dispatch on this CPU")


@needs_avx512
def test_outputs_do_not_follow_numpy_simd_dispatch(tmp_path):
    assert run_digests(tmp_path, NPY_DISABLE_CPU_FEATURES=" ".join(AVX512)) == DIGESTS


def scaling_fits() -> list[str]:
    """repr of both scaling fits of 300 sets of 3 to 9 q from {0, 0.1, ...,
    0.9}, each set's sigmas a few percent off a power law, all drawn from
    Python's own seeded generator so that every process fits the same
    inputs."""
    rng = random.Random(34)
    fits = []
    for _ in range(300):
        qs = rng.sample([i / 10 for i in range(10)], rng.randint(3, 9))
        exponent = rng.choice((-0.5, -1.0))
        sigmas = [(1.0 - q) ** exponent * rng.lognormvariate(0.0, 0.05) for q in qs]
        fits.append(repr((fit_loglog_exponent(qs, sigmas),
                          fit_fixed_form_intercept(qs, sigmas, exponent))))
    return fits


@needs_avx512
def test_scaling_fits_do_not_follow_numpy_simd_dispatch():
    here = os.path.dirname(os.path.abspath(__file__))
    path = os.pathsep.join(
        filter(None, [os.path.join(ROOT, "src"), here, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", "import test_byte_contract as t; print(*t.scaling_fits(), sep='\\n')"],
        env=dict(os.environ, PYTHONPATH=path, NPY_DISABLE_CPU_FEATURES=" ".join(AVX512)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == scaling_fits()
