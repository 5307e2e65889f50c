"""Golden outputs: three toy CLI runs must reproduce their recorded bytes.

Each case runs one command in a fresh interpreter and compares the
SHA-256 of the file it writes against a digest recorded before the
engine's per-completion metrics moved into per-run publishing.  The
files carry the ``sim.*``, ``array.*`` and ``serve.*`` registry
snapshots, the serve flight-recorder timeseries and the SLO summary,
so any drift in what the engine, the batch path or the SLO accountant
publishes shows up here as a changed digest.

A change that is meant to alter these outputs re-records the digest
and says why in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

#: (case id, CLI argv with ``{out}`` for the written file, SHA-256)
GOLDEN = [
    (
        "serve-json",
        ["serve", "--family", "mirror", "--n", "4", "--stripes", "6",
         "--rate", "30", "--seed", "2012", "--json", "{out}"],
        "05ac045a894aa77d42e4d711436d92b0e4faf88dd293761400b3d45fadea00b5",
    ),
    (
        "faultcampaign-json",
        ["faultcampaign", "--family", "mirror-parity", "--n", "3",
         "--stripes", "4", "--json", "{out}"],
        "611feebb5e495daf4576c38f7a814967ebd5980445ac8f91f590582090f3f46b",
    ),
    (
        "rebuild-metrics",
        ["simulate", "rebuild", "--layout", "shifted-mirror", "--n", "5",
         "--failed", "0", "--stripes", "8", "--metrics-out", "{out}"],
        "755b9d583e2306b8c5fed6fc6e941c605574847ed5eed505be94ce9b7849a24f",
    ),
]


@pytest.mark.parametrize(
    "argv, digest", [case[1:] for case in GOLDEN], ids=[case[0] for case in GOLDEN]
)
def test_cli_output_matches_golden_digest(tmp_path, argv, digest):
    out = tmp_path / "out.json"
    # a clean environment: no observability or batch switches leak in
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    proc = subprocess.run(
        [sys.executable, "-m", "repro.cli", *(a.format(out=out) for a in argv)],
        capture_output=True,
        text=True,
        env=env,
        cwd=tmp_path,
        timeout=240,
    )
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
