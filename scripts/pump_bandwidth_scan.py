#!/usr/bin/env python3
"""Scan heralded purity versus pump bandwidth for the default crystal.

Writes a CSV of (fwhm_nm, purity) and prints the optimum.

Usage: python scripts/pump_bandwidth_scan.py [--points 256] [--out scan.csv]
"""

import argparse
import sys

import numpy as np

import biphoton as bp


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--points", type=int, default=256, help="grid points per axis")
    parser.add_argument("--out", default="pump_bandwidth_scan.csv")
    parser.add_argument("--window", type=float, nargs=2, default=(2.0, 12.0))
    args = parser.parse_args()

    config = bp.default_config()
    grid = bp.FrequencyGrid(points_per_axis=args.points)

    rows = []
    for fwhm in np.linspace(args.window[0], args.window[1], 41):
        pump = bp.PumpSpec(center_wavelength_nm=785.0, intensity_fwhm_bandwidth_nm=float(fwhm))
        purity = bp.schmidt_decompose(bp.compute_jsa(pump, config.crystal, grid)).purity
        rows.append((float(fwhm), purity))
        print(f"  {fwhm:6.2f} nm -> purity {purity:.4f}")

    best, best_purity = bp.optimize_pump_bandwidth(
        config.crystal, 785.0, tuple(args.window), grid
    )
    print(f"optimum: {best:.3f} nm (purity {best_purity:.4f})")

    with open(args.out, "w") as handle:
        handle.write("fwhm_nm,purity\n")
        for fwhm, purity in rows:
            handle.write(f"{fwhm!r},{purity!r}\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
