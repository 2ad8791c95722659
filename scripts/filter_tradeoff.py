#!/usr/bin/env python3
"""Purity versus single-arm filter survival as the bandpass filter narrows.

Sweeps Gaussian filter widths on both arms of the default source and
reports spectral purity, the per-arm survival (the share of |f|² that one
arm's filter alone transmits, not a Klyshko heralding efficiency), and the
predicted two-source visibility including the multi-pair bound.

Usage: python scripts/filter_tradeoff.py [--pair-probability 0.0015]
"""

import argparse
import sys

import biphoton as bp


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--pair-probability", type=float, default=0.0015)
    parser.add_argument("--points", type=int, default=512)
    parser.add_argument("--out", default="filter_tradeoff.csv")
    args = parser.parse_args()

    config = bp.default_config()
    grid = bp.FrequencyGrid(points_per_axis=args.points)
    jsa = bp.compute_jsa(config.pump, config.crystal, grid)
    base_purity = bp.schmidt_decompose(jsa).purity
    print(f"unfiltered purity {base_purity:.4f}")

    rows = []
    for width in (30.0, 20.0, 15.0, 12.0, 10.0, 8.0, 6.0, 4.0, 2.0):
        spec = bp.FilterSpec(center_nm=1570.0, fwhm_nm=width)
        filtered = bp.apply_filter(jsa, spec, spec)
        purity = bp.schmidt_decompose(filtered).purity
        prediction = bp.predict_visibility(purity, args.pair_probability)
        rows.append((width, purity, filtered.survival.signal, prediction.total))
        print(
            f"  {width:5.1f} nm filter: purity {purity:.4f}, "
            f"survival/arm {filtered.survival.signal:.3f}, "
            f"predicted visibility {prediction.total:.4f}"
        )

    with open(args.out, "w") as handle:
        handle.write("filter_fwhm_nm,purity,survival_per_arm,predicted_visibility\n")
        for row in rows:
            handle.write(",".join(repr(float(v)) for v in row) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
