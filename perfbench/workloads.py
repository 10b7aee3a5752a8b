"""The benchmark's workloads: seeded inputs and the finevo commands run on them.

Each workload is a closed loop with one caller: its commands run back to
back, and a pass is one run over the whole list. Inputs depend only on the
workload seed, never on the program under test; every law carries a
fingerprint computed by ``laws.fingerprint`` that the reports must match.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

import laws

DEFAULT_SEED = 42
REPLICATIONS = 10_000
VERIFY_REPLICATIONS = 2000

# closure-scaled: recipe-A laws are accepted at these closure sizes until
# their summed |S|*n lies in the target window, since a law's cost grows with
# both. The upper size keeps the largest closure, which sets peak memory,
# about the same on every seed; the narrow recipe-B band does the same for
# the n=10 law, which costs about twice as much per element.
A_SIZE = (20_000, 60_000)
A_WORK = (1_750_000, 1_820_000)
B_SIZE = (45_000, 55_000)

# group-kernel: tiny closures, large kernels or groups. Each law is
# relabelled by a seeded permutation and gets seeded weights over 7, except
# S5, which stays as written at weights 1/2, 1/2: its exact solve takes
# 1.98-2.33 million Fraction operations across relabellings (seeds 1-5) and
# up to 1.6x more bits at weights over 7, which would swamp the differences
# the workload is meant to show.
GROUP_LAWS = {
    "S5": [[2, 3, 4, 5, 1], [2, 1, 3, 4, 5]],
    "A5": [[2, 3, 1, 4, 5], [2, 3, 4, 5, 1]],
    "S4": [[2, 3, 4, 1], [2, 1, 3, 4]],
    "rank3": [[2, 3, 4, 5, 6, 1], [3, 2, 1, 4, 5, 6], [1, 1, 3, 3, 5, 5]],
    "p3": laws.P3_H2["generators"],
}
FIXED = {"S5": {"n": 5, "generators": GROUP_LAWS["S5"], "weights": ["1/2", "1/2"]}}


@dataclass
class Command:
    label: str
    argv: list
    law: str
    replications: int = 0


@dataclass
class Workload:
    name: str
    seed: int
    commands: list = field(default_factory=list)
    fingerprints: dict = field(default_factory=dict)


def _add_law(wl: Workload, key: str, law: dict, workdir: Path, elements=None) -> str:
    wl.fingerprints[key] = laws.fingerprint(law, elements)
    path = workdir / f"{key}.json"
    path.write_text(json.dumps(law))
    return str(path)


def golden_battery(seed: int, workdir: Path) -> Workload:
    """The paper's verification battery at 10^4 replications."""
    wl = Workload("golden-battery", seed)
    reps = str(REPLICATIONS)
    wl.fingerprints["example"] = laws.fingerprint(laws.EXAMPLE)
    wl.commands.append(Command(
        "example", ["example", "--replications", reps, "--seed", str(seed),
                    "--no-timestamp"], "example", REPLICATIONS))
    for key, law in (("cyclic3", laws.CYCLIC3), ("p3_h2", laws.P3_H2)):
        path = _add_law(wl, key, law, workdir)
        wl.commands.append(Command(
            f"simulate-{key}",
            ["simulate", "--law", path, "--mode", "stationary",
             "--replications", reps, "--seed", str(seed), "--no-timestamp"],
            key, REPLICATIONS))
    config = workdir / "p3_h2-nonstationary.json"
    config.write_text(json.dumps({
        "law_file": str(workdir / "p3_h2.json"), "mode": "nonstationary",
        "k_min": -40, "k_max": 0, "replications": REPLICATIONS, "seed": seed,
        "alpha": 0.001, "window": 3, "family": laws.P3_H2_FAMILY,
    }))
    wl.commands.append(Command(
        "simulate-p3_h2-nonstationary",
        ["simulate", "--config", str(config), "--no-timestamp"],
        "p3_h2", REPLICATIONS))
    return wl


def _accepted(rng, make, size):
    """Draw laws until one has distinct generators and a closure in ``size``."""
    while True:
        law = make(rng)
        if len({tuple(g) for g in law["generators"]}) < len(law["generators"]):
            continue
        elements = laws.closure(law["generators"], law["n"], cap=size[1])
        if elements is not None and len(elements) >= size[0]:
            return law, elements


def closure_scaled(seed: int, workdir: Path) -> Workload:
    """`analyze` on laws with large closures and small kernels."""
    wl = Workload("closure-scaled", seed)
    rng = random.Random(seed)
    picked = [("B1",) + _accepted(rng, laws.recipe_b, B_SIZE)]
    work = 0
    while work < A_WORK[0]:
        law, elements = _accepted(
            rng, lambda r: laws.recipe_a(r, r.choice((6, 7))), A_SIZE)
        after = work + len(elements) * law["n"]
        if after <= A_WORK[1] and (after >= A_WORK[0]
                                   or A_WORK[1] - after >= 6 * A_SIZE[0]):
            work = after
            picked.append((f"A{len(picked)}", law, elements))
    for key, law, elements in picked:
        path = _add_law(wl, key, law, workdir, elements)
        wl.commands.append(Command(
            f"analyze-{key}", ["analyze", "--law", path, "--no-timestamp"], key))
    return wl


def group_kernel(seed: int, workdir: Path) -> Workload:
    """`verify` on tiny closures whose kernels or groups are large."""
    wl = Workload("group-kernel", seed)
    rng = random.Random(seed)
    for key, gens in GROUP_LAWS.items():
        n = len(gens[0])
        perm = laws.random_perm(rng, n)
        law = FIXED.get(key) or {
            "n": n, "generators": [laws.relabel(g, perm) for g in gens],
            "weights": laws.weights(rng, len(gens), 7, smallest=2)}
        path = _add_law(wl, key, law, workdir)
        wl.commands.append(Command(
            f"verify-{key}",
            ["verify", "--law", path, "--replications", str(VERIFY_REPLICATIONS),
             "--seed", str(seed), "--no-timestamp"],
            key, VERIFY_REPLICATIONS))
    return wl


WORKLOADS = {
    "golden-battery": golden_battery,
    "closure-scaled": closure_scaled,
    "group-kernel": group_kernel,
}
