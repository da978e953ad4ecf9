"""The byte contract: fixed CLI runs write exactly the committed bytes.

Each run below writes into its own directory, and every output except the
manifests (which record a duration) is compared by SHA-256 with DIGESTS. A
change that moves an output updates its row here and says which file moved
and why. The table was taken on numpy 2.4.6; the simulator's draws follow
numpy's binomial algorithms and Philox layout, so another numpy may differ.
"""

import hashlib
import os
import random

from erasure_sensing.cli import main

DATA = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "data"))
EXAMPLE_CONFIG = os.path.join(DATA, "example_comparison.json")

RUNS = {
    "simulate": ["simulate", EXAMPLE_CONFIG],
    "simulate-window-10": ["simulate", EXAMPLE_CONFIG, "--window", "10"],
    "scaling": ["scaling", EXAMPLE_CONFIG, "--q-grid", "0,0.2,0.4"],
    "ellipse": ["ellipse", os.path.join(DATA, "ellipse_pi_over_3.csv")],
    "allan": ["allan", "series.txt", "--cycle-time", "2.0"],
}

DIGESTS = {
    "simulate/allan.json": "8ad7f6acdf4d55aaedc43b28cad0a026e15deabc58ff822dfeaa91a8c639e2a2",
    "simulate/cycles.csv": "35b255fe293511ebbafeb49745679d2a87d15a5469b190e3862ebda9651c26a3",
    "simulate/phases.csv": "829a857a3607c0cf95f82970ce86c9d4dd70bec31d62a6a45c5f46fd3960923b",
    "simulate-window-10/allan.json": "780021127df445c54255ccb58c303c54b3453adef9a1d8248e718a577cb8f16e",
    "simulate-window-10/cycles.csv": "35b255fe293511ebbafeb49745679d2a87d15a5469b190e3862ebda9651c26a3",
    "simulate-window-10/phases.csv": "29fd2ae4de54e162dc9f7d096fbb6aded257713c3478cabb792be7859f25c811",
    "scaling/scaling.csv": "16332616dc45a4eba59fdefe463c9cba77d68eead225e6ff2664e417c4646ffc",
    "scaling/scaling_fit.json": "c70984199f0f63027af34ec16d76c1f02fb1eb0610ddd758fb776fa56531ca99",
    "ellipse/ellipse.json": "1ea45873b606d5fd2d75102a8210f3a6633c9a8a5590c22c2c11b7943ddb7629",
    "allan/allan.json": "825d57c2ab0880961c17c3e1853a919b84b814d8b5e29da5797a018c16518b51",
}


def allan_series() -> str:
    """1000 white samples from Python's own seeded generator, one per line."""
    rng = random.Random(22)
    return "".join(f"{rng.gauss(0.0, 1.0)!r}\n" for _ in range(1000))


def test_outputs_match_the_committed_digests(tmp_path, capsys):
    (tmp_path / "series.txt").write_text(allan_series())
    digests = {}
    for name, argv in RUNS.items():
        out = tmp_path / name
        assert main(argv + ["--out", str(out)]) == 0, name
        for path in sorted(out.iterdir()):
            if not path.name.endswith("_manifest.json"):
                digests[f"{name}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    capsys.readouterr()
    assert digests == DIGESTS
