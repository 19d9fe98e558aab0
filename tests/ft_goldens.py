"""Byte goldens for a recovered run, captured at the commit *before* the
checkpoint member name had one encoder, a recovery became the list of
its attempts and the two sweeps shared a driver (``127949c``).

The ledger pins one fleet sweep and the CI smoke jobs compare the code
with itself; these pin, as ``sha256`` prefixes and literals:

* ``availability`` — the file ``naspipe faults examples/faults_demo.json
  --json`` writes (every derived :class:`FaultedRunResult` total);
* ``chaos_jobs1`` / ``chaos_jobs2`` — the file ``naspipe chaos
  examples/chaos_demo.json --seeds 2 --json`` writes, serial and over
  two worker processes;
* ``cut`` — for the first consistent cut of the ``faults_demo`` run: the
  ordered ``(member, dtype, shape)`` list of ``params.npz`` and of
  ``velocity.npz``, and the ``meta.json`` digest.

``python tests/ft_goldens.py`` prints the literal (run it from a
checkout of the commit whose bytes you want to pin).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path
from typing import Dict, List

import numpy as np

from repro.baselines import resolve_target
from repro.cli import main
from repro.ft import FaultSchedule, RecoverySpec, run_with_recovery
from repro.payload import sha256

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def _written_by(*argv: str) -> str:
    """16-hex prefix of the ``--json`` file one CLI invocation writes."""
    with tempfile.TemporaryDirectory(prefix="naspipe-golden-") as tmp:
        out = Path(tmp) / "out.json"
        with contextlib.redirect_stdout(io.StringIO()):
            main([*argv, "--json", str(out)])
        return hashlib.sha256(out.read_bytes()).hexdigest()[:16]


def members(path: Path) -> List[List[object]]:
    """``[member, dtype, shape]`` of an ``.npz``, in file order."""
    with np.load(path) as payload:
        return [
            [key, payload[key].dtype.str, list(payload[key].shape)]
            for key in payload.files
        ]


def recover_faults_demo(checkpoint_dir):
    """The crash + elastic restart of ``examples/faults_demo.json``."""
    config = json.loads((EXAMPLES / "faults_demo.json").read_text())
    space, system = resolve_target(
        config["space"], config["space_overrides"], config["system"], {}, path="demo"
    )
    return run_with_recovery(
        space,
        system,
        FaultSchedule.from_payload(config["faults"]),
        num_gpus=config["num_gpus"],
        steps=config["subnets"],
        seed=config["seed"],
        checkpoint_dir=checkpoint_dir,
        spec=RecoverySpec(
            checkpoint_interval=config["checkpoint_interval"],
            restart_gpus=config["recovery_gpus"],
        ),
    )


def _cut() -> Dict[str, object]:
    with tempfile.TemporaryDirectory(prefix="naspipe-golden-") as tmp:
        recover_faults_demo(tmp)
        directory = Path(tmp) / "ckpt_000008"
        params = members(directory / "params.npz")
        velocity = members(directory / "velocity.npz")
        return {
            "params_members": len(params),
            "params_first": params[0][0],
            "params_sha": sha256(params)[:16],
            "velocity_members": len(velocity),
            "velocity_sha": sha256(velocity)[:16],
            "digest": json.loads((directory / "meta.json").read_text())["digest"],
        }


def products() -> Dict[str, object]:
    faults = str(EXAMPLES / "faults_demo.json")
    chaos = ("chaos", str(EXAMPLES / "chaos_demo.json"), "--seeds", "2")
    return {
        "availability": _written_by("faults", faults),
        "chaos_jobs1": _written_by(*chaos),
        "chaos_jobs2": _written_by(*chaos, "--jobs", "2"),
        "cut": _cut(),
    }


#: captured at ``127949c`` (see the module docstring)
PRODUCTS: Dict[str, object] = {
    "availability": "0aaf72a78e7d71cb",
    "chaos_jobs1": "bc774fba89cd51e0",
    "chaos_jobs2": "bc774fba89cd51e0",
    "cut": {
        "params_members": 226,
        "params_first": "b0_c0/weight",
        "params_sha": "6b2b04445aff526d",
        "velocity_members": 165,
        "velocity_sha": "6b55f9d784833ed2",
        "digest": "ce56764a644f940762794aedfffe0d997d20a99ddcb668ed22914d6b8ac75249",
    },
}


if __name__ == "__main__":
    print(f"PRODUCTS: Dict[str, object] = {json.dumps(products(), indent=4)}")
