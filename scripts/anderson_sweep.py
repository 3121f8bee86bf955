#!/usr/bin/env python3
"""Sweep weight families through the block construction.

For each family and truncation size, verify [C, Z], record the smallest
interior diagonal entry (strict positivity margin) and the truncation
boundary residual, and write everything to one CSV.
"""

from __future__ import annotations

import argparse
import csv
import sys

from commlab import anderson
from commlab.sequences import WeightSequence

FAMILIES = {
    "sqrt": dict(power=0.5, log_power=0.0),
    "log": dict(power=0.0, log_power=1.0),
    "cbrt": dict(power=1 / 3, log_power=0.0),
    "n_over_log": dict(power=1.0, log_power=-1.0),
    "constant": dict(power=0.0, log_power=0.0),
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--blocks", type=int, nargs="+", default=[4, 6, 8, 10, 12])
    parser.add_argument("--out", default="anderson_sweep.csv")
    args = parser.parse_args()

    rows = []
    for name, params in FAMILIES.items():
        for bc in args.blocks:
            weights = WeightSequence.powerlog(1.0, count=bc + 1, **params)
            rep = anderson.certify(weights, bc)
            means = rep.details["block_means"]
            growth = next(row for row in rep.checks if row.name == "admissible_growth")
            rows.append({
                "family": name,
                "blocks": bc,
                "dimension": rep.details["dimension"],
                "admissible": growth.passed,
                "min_interior_diagonal": min(means[:-2]),
                "boundary_residual": rep.details["boundary_residual"],
            })
            print(f"{name:>10s} blocks={bc:5d} dim={rep.details['dimension']:8d} "
                  f"min_diag={min(means[:-2]):+.3e} "
                  f"boundary={rep.details['boundary_residual']:.3e}")

    with open(args.out, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
