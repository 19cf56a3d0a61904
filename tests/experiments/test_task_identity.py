"""Pins the tasks every sweep scenario resolves to, at each config profile.

A task's identity is what the result store keys it by: the config hash of
its ``(key, params)``, its repetition and its derived seed.  Each entry of
``TASK_DIGESTS`` is the first 16 hex digits of the sha256 of one scenario's
identity list at one profile and seed override.  A change to a spec's
configs, its grid or the seed derivation shows here before it re-keys a
store, which would make a resumed sweep re-execute every task.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.analysis.sweep import expand_grid
from repro.experiments import all_scenarios, get_scenario, resolve_config
from repro.io.store import config_hash

PROFILES = ("default", "cli", "smoke")
SEEDS = (None, 0)

TASK_DIGESTS = {
    ("broadcast", "default", None): "c5ae0ca1d9ae9cd3",
    ("broadcast", "default", 0): "74d709642fa61af2",
    ("broadcast", "cli", None): "aca2f72187ad2659",
    ("broadcast", "cli", 0): "85d2126e199d7c51",
    ("broadcast", "smoke", None): "6fcb622b1b72649b",
    ("broadcast", "smoke", 0): "588b308a71d71674",
    ("churn", "default", None): "f626b372796f2852",
    ("churn", "default", 0): "c6ec22bed70a8096",
    ("churn", "cli", None): "f626b372796f2852",
    ("churn", "cli", 0): "c6ec22bed70a8096",
    ("churn", "smoke", None): "ed62c95536b24afe",
    ("churn", "smoke", 0): "4f5695f5b590c2f9",
    ("density", "default", None): "426e1d2e57289f34",
    ("density", "default", 0): "a2994203c58f6e8e",
    ("density", "cli", None): "37c3278b0f977e77",
    ("density", "cli", 0): "25eb9182eb21f076",
    ("density", "smoke", None): "f0c249f384be0656",
    ("density", "smoke", 0): "43e5936f2fb6f69f",
    ("election", "default", None): "21a0ef5729a5e8f9",
    ("election", "default", 0): "78154dfdac765f23",
    ("election", "cli", None): "9469429fd09fe764",
    ("election", "cli", 0): "22b4ee7b75ff1de5",
    ("election", "smoke", None): "e7c8a90ca157b21c",
    ("election", "smoke", 0): "89bc7c4ea42c65ff",
    ("figure1", "default", None): "4921531682d37c09",
    ("figure1", "default", 0): "1913c7c5b01aee08",
    ("figure1", "cli", None): "f85caff31c127815",
    ("figure1", "cli", 0): "934807364c171e30",
    ("figure1", "smoke", None): "d13540705e8ce207",
    ("figure1", "smoke", 0): "4be3d92dccf7c17a",
    ("figure2", "default", None): "405e8daad92b29cb",
    ("figure2", "default", 0): "fbb2714754b93051",
    ("figure2", "cli", None): "e4b5307d8e7c75af",
    ("figure2", "cli", 0): "9d67df2e2232e7c2",
    ("figure2", "smoke", None): "9e0d04f1b7cb1cd3",
    ("figure2", "smoke", 0): "69d00ec405b4e2c0",
    ("figure3", "default", None): "1032df17209b6396",
    ("figure3", "default", 0): "4a181e1af82a794d",
    ("figure3", "cli", None): "49be6ac238ea48bb",
    ("figure3", "cli", 0): "677f0a3bcda6d69a",
    ("figure3", "smoke", None): "b5b68a3c9a1c5247",
    ("figure3", "smoke", 0): "e936511ed17df56e",
    ("figure4", "default", None): "6a15399bc463d411",
    ("figure4", "default", 0): "2267e4c7f437382e",
    ("figure4", "cli", None): "6a15399bc463d411",
    ("figure4", "cli", 0): "2267e4c7f437382e",
    ("figure4", "smoke", None): "01da1e9e29aa03d5",
    ("figure4", "smoke", 0): "9840aa46814d12a4",
    ("figure5", "default", None): "9f86872d0c0a3cbc",
    ("figure5", "default", 0): "3104659f850100bd",
    ("figure5", "cli", None): "036a44db59378214",
    ("figure5", "cli", 0): "3c306503cd76b567",
    ("figure5", "smoke", None): "3925cb9c58bf3eeb",
    ("figure5", "smoke", 0): "c6d651eef8e9a51f",
    ("graph-models", "default", None): "73ec2b34e2b73906",
    ("graph-models", "default", 0): "ef49f64e379b5429",
    ("graph-models", "cli", None): "5e6f373db2b56e2a",
    ("graph-models", "cli", 0): "2dcac0f69d0e0f0b",
    ("graph-models", "smoke", None): "6d826bd2d613f8d4",
    ("graph-models", "smoke", 0): "438d51241c2fcc11",
    ("parameters", "default", None): "7fbc521b97970cbe",
    ("parameters", "default", 0): "ad34b1bc7af1c8f1",
    ("parameters", "cli", None): "58af2d707aed8e44",
    ("parameters", "cli", 0): "596cb50f7a3837de",
    ("parameters", "smoke", None): "c393d3cf6145c8b4",
    ("parameters", "smoke", 0): "5c8c3e823dc4e8ae",
    ("pushsum", "default", None): "53e0595f0d517542",
    ("pushsum", "default", 0): "5b744949c5febc28",
    ("pushsum", "cli", None): "53e0595f0d517542",
    ("pushsum", "cli", 0): "5b744949c5febc28",
    ("pushsum", "smoke", None): "ce97eb12f085fd3a",
    ("pushsum", "smoke", 0): "90650e7d0deadc42",
    ("redundancy", "default", None): "240b3d723dfc8238",
    ("redundancy", "default", 0): "033c92c93d7e6ce8",
    ("redundancy", "cli", None): "d92e4e19e7466fa7",
    ("redundancy", "cli", 0): "2be0215eaa541530",
    ("redundancy", "smoke", None): "44aabd90d7c57e89",
    ("redundancy", "smoke", 0): "72fee92ebbeaabe7",
    ("scale", "default", None): "ba38cdf33c94dc45",
    ("scale", "default", 0): "add163016819a6ae",
    ("scale", "cli", None): "ba38cdf33c94dc45",
    ("scale", "cli", 0): "add163016819a6ae",
    ("scale", "smoke", None): "adbfb076c1fd6166",
    ("scale", "smoke", 0): "3193233daf743c78",
}


def task_digest(name, profile, seed):
    spec = get_scenario(name)
    config = resolve_config(spec, seed=seed, profile=profile)
    tasks = expand_grid(
        spec.grid(config), int(getattr(config, "repetitions", 1)), getattr(config, "seed", None)
    )
    identities = [[config_hash(task.key, task.params), task.repetition, task.seed] for task in tasks]
    return hashlib.sha256(json.dumps(identities).encode()).hexdigest()[:16]


def test_every_sweep_scenario_is_pinned():
    sweeps = [spec.name for spec in all_scenarios() if spec.run_override is None]
    expected = {(name, profile, seed) for name in sweeps for profile in PROFILES for seed in SEEDS}
    assert set(TASK_DIGESTS) == expected


@pytest.mark.parametrize("name,profile,seed", list(TASK_DIGESTS))
def test_task_identities(name, profile, seed):
    assert task_digest(name, profile, seed) == TASK_DIGESTS[(name, profile, seed)]
