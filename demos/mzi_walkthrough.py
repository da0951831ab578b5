#!/usr/bin/env python3
"""Mach-Zehnder walkthrough: fringes, visibility, and the marker variant.

Run:
    python3 demos/mzi_walkthrough.py
"""

import numpy as np

from qreality.mzi import (
    MziConfig,
    detector_probabilities,
    extended_output_analysis,
    mzi_state,
    visibility,
)


def fringe_table():
    print("--- detector probabilities over the phase ---")
    grid = np.linspace(0, 2 * np.pi, 9)
    closed = detector_probabilities(MziConfig(phi=0.0), grid)[:, 0]
    opened = detector_probabilities(MziConfig(phi=0.0, closed=False), grid)[:, 0]
    print(f"  {'phi':>8}  {'closed p0':>10}  {'open p0':>8}")
    for phi, pc, po in zip(grid, closed, opened):
        print(f"  {phi:8.4f}  {pc:10.6f}  {po:8.4f}")
    print(f"  visibility closed: {visibility(MziConfig(phi=0.0)):.6f}")
    print(f"  visibility open:   {visibility(MziConfig(phi=0.0, closed=False)):.6f}")


def stage_states():
    print("\n--- pure-state stages (plain device) ---")
    cfg = MziConfig(phi=np.pi / 3)
    for stage in ("s0", "s1", "s2", "s3"):
        amps = mzi_state(cfg, stage).amplitudes
        pretty = " + ".join(
            f"({a.real:+.3f}{a.imag:+.3f}j)|{k}>" for k, a in enumerate(amps)
        )
        print(f"  {stage}: {pretty}")


def marker_variant():
    print("\n--- marker variant: entanglement flags the path superposition ---")
    for decohere in (False, True):
        cfg = MziConfig(phi=0.8, extended=True, decohere_after_first_bs=decohere)
        rep = extended_output_analysis(cfg)
        label = "decohered" if decohere else "coherent"
        print(
            f"  {label:<9} irreality(s1)={rep.irreality_sigma_z_at_s1:.3f}  "
            f"entanglement={rep.entanglement_entropy:.3f}  "
            f"separable={rep.ppt_separable}  "
            f"mutual information={rep.mutual_information:.3f}"
        )
    print("  a coherent probe entangles the markers; a decohered probe only")
    print("  correlates them classically, and the visibility of the probe")
    print(
        "  with markers in place is "
        f"{visibility(MziConfig(phi=0.0, extended=True)):.3f}"
    )


def main():
    fringe_table()
    stage_states()
    marker_variant()


if __name__ == "__main__":
    main()
