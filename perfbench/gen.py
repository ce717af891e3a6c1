"""Generated inputs for the `homophily-2k` workload: representations plus profiles.

The files use the formats the CLI reads (`homophily.load_representations`
and `features.load_profiles`) but are written here, so the program under
test receives only the generated files.
"""

from __future__ import annotations

import csv
import os

import numpy as np

# The demo config's attributes; only `group` moves the representations.
ATTRIBUTES = {
    "group": ("a", "b"),
    "nuis0": ("c0", "c1", "c2"),
    "nuis1": ("c0", "c1", "c2", "c3"),
    "nuis2": ("c0", "c1", "c2", "c3", "c4"),
}
GROUP_SHIFT = 1.5
ANNOTATORS = 2000
DIM = 128


def write_homophily_inputs(directory: str, seed: int) -> tuple[str, str]:
    """Write `representations.csv` and `profiles.csv`; identical files for an identical seed."""
    os.makedirs(directory, exist_ok=True)
    rng = np.random.default_rng([seed, 0x4B2])
    categories = {name: rng.integers(0, len(cats), size=ANNOTATORS) for name, cats in ATTRIBUTES.items()}
    centres = rng.normal(size=(len(ATTRIBUTES["group"]), DIM))
    vectors = rng.normal(size=(ANNOTATORS, DIM)) + GROUP_SHIFT * centres[categories["group"]]
    ids = [f"r{i:05d}" for i in range(ANNOTATORS)]

    reps_path = os.path.join(directory, "representations.csv")
    with open(reps_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["annotator_id"] + [f"d{i}" for i in range(DIM)])
        for aid, vec in zip(ids, vectors):
            writer.writerow([aid] + [repr(float(x)) for x in vec])

    profiles_path = os.path.join(directory, "profiles.csv")
    with open(profiles_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["annotator_id"] + list(ATTRIBUTES))
        for row, aid in enumerate(ids):
            writer.writerow([aid] + [ATTRIBUTES[name][categories[name][row]] for name in ATTRIBUTES])
    return reps_path, profiles_path
