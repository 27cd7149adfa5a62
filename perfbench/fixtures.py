"""Seeded relabelling of the four pinned Barth fixtures.

One permutation reorders the xi planes and, with the same map, the rows and
columns of the table2 intersection matrix; the theta planes are shuffled on
their own; the keys of the transport-word map are reordered.  The verdicts of
every Barth check must not change, so a program that silently relies on
fixture order fails the benchmark.

    python3 perfbench/fixtures.py --seed 7 --out DIR
"""

from __future__ import annotations

import argparse
import json
import os
import random

FIXTURE_DIR = os.path.join("src", "a5fano", "fixtures")
NAMES = ("xi_planes.json", "theta_planes.json", "table1_words.json", "table2.json")


def load(directory):
    out = {}
    for name in NAMES:
        with open(os.path.join(directory, name), encoding="utf-8") as fh:
            out[name] = json.load(fh)
    return out


def relabel(pinned, seed):
    """The relabelled fixtures; `pinned` maps file name to parsed JSON."""
    rng = random.Random(seed)
    xi, theta = pinned["xi_planes.json"], pinned["theta_planes.json"]
    words, table2 = pinned["table1_words.json"], pinned["table2.json"]

    order = list(range(len(xi["labels"])))
    rng.shuffle(order)
    theta_order = list(range(len(theta["labels"])))
    rng.shuffle(theta_order)
    keys = list(words)
    rng.shuffle(keys)
    return {
        "xi_planes.json": {
            "labels": [xi["labels"][i] for i in order],
            "vectors": [xi["vectors"][i] for i in order],
        },
        "theta_planes.json": {
            "labels": [theta["labels"][i] for i in theta_order],
            "vectors": [theta["vectors"][i] for i in theta_order],
        },
        "table1_words.json": {k: words[k] for k in keys},
        "table2.json": {
            "labels": [table2["labels"][i] for i in order],
            "rows": [[table2["rows"][i][j] for j in order] for i in order],
        },
    }


def check_consistent(pinned, relabelled):
    """Raise ValueError unless `relabelled` is a relabelling of `pinned`."""
    for name in ("xi_planes.json", "theta_planes.json"):
        old, new = pinned[name], relabelled[name]
        if sorted(old["labels"]) != sorted(new["labels"]):
            raise ValueError(f"{name}: label set changed")
        old_vec = dict(zip(old["labels"], map(json.dumps, old["vectors"])))
        if any(old_vec[lab] != json.dumps(vec)
               for lab, vec in zip(new["labels"], new["vectors"])):
            raise ValueError(f"{name}: a vector moved away from its label")
    old_words, new_words = pinned["table1_words.json"], relabelled["table1_words.json"]
    if old_words != new_words:
        raise ValueError("table1_words.json: the word map changed")
    old2, new2 = pinned["table2.json"], relabelled["table2.json"]
    if new2["labels"] != relabelled["xi_planes.json"]["labels"]:
        raise ValueError("table2.json: rows are not in xi-plane order")
    at = {lab: i for i, lab in enumerate(old2["labels"])}
    for i, a in enumerate(new2["labels"]):
        for j, b in enumerate(new2["labels"]):
            if new2["rows"][i][j] != old2["rows"][at[a]][at[b]]:
                raise ValueError(f"table2.json: entry ({a}, {b}) changed")


def write(root, seed, out):
    """Write the checked relabelling for `seed` into directory `out`."""
    pinned = load(os.path.join(root, FIXTURE_DIR))
    relabelled = relabel(pinned, seed)
    check_consistent(pinned, relabelled)
    os.makedirs(out, exist_ok=True)
    for name, data in relabelled.items():
        with open(os.path.join(out, name), "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=1)
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    write(os.getcwd(), args.seed, args.out)


if __name__ == "__main__":
    main()
