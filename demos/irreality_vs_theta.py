#!/usr/bin/env python3
"""Walk through the six-qubit protocol and trace irreality against theta.

Run:
    python3 demos/irreality_vs_theta.py
"""

import numpy as np

from qreality import ObservableSpec, binary_entropy, irreality
from qreality.eraser import (
    ProtocolConfig,
    apply_beam_displacers,
    build_psi0,
    default_theta_grid,
    evolve_to_psi1,
    irreality_curve,
    omega_state,
)


def show_stages(theta):
    print(f"\n--- protocol stages at theta = {theta:.4f} ---")
    cfg = ProtocolConfig(theta=theta, alice_config="Cx")
    psi0 = build_psi0(cfg)
    psi1 = evolve_to_psi1(psi0)
    psi2 = apply_beam_displacers(psi1, cfg)
    for name, state in (("Psi0", psi0), ("Psi1", psi1), ("Psi2", psi2)):
        support = np.flatnonzero(np.abs(state.amplitudes) > 1e-12)
        kets = ", ".join(
            f"{state.amplitudes[i].real:+.3f}|{i:06b}>" for i in support
        )
        print(f"  {name}: {kets}   (register A B a b d1 d2)")


def show_omegas(theta):
    print(f"\n--- conditional states on (b, d1, d2) at theta = {theta:.4f} ---")
    for config in ("Cz", "Cx"):
        cfg = ProtocolConfig(theta=theta, alice_config=config)
        for target, stage in (("b", "before the displacers"), ("d1", "after them")):
            omega, prob = omega_state(cfg, target)
            rep = irreality(omega, ObservableSpec.pauli(target, "Z"))
            print(
                f"  {config} {stage:<22} p={prob:.4f}  "
                f"irreality({target}) = {rep.irreality:.6f}  "
                f"[coherence {rep.coherence:.6f}, discord {rep.discord:.6f}]"
            )


def sweep_table():
    print("\n--- irreality versus theta (analytic) ---")
    grid = default_theta_grid(9)
    cx = irreality_curve(ProtocolConfig(theta=0.0, alice_config="Cx"), "d1", grid)
    cz = irreality_curve(ProtocolConfig(theta=0.0, alice_config="Cz"), "d1", grid)
    print(f"  {'theta':>8}  {'Cx':>10}  {'Cz':>10}  {'H(cos^2)':>10}")
    for theta, rx, rz in zip(cx.theta, cx.irreality, cz.irreality):
        closed_form = binary_entropy(np.cos(theta / 2) ** 2)
        print(f"  {theta:8.4f}  {rx:10.6f}  {rz:10.6f}  {closed_form:10.6f}")
    print("  the Cx column follows the binary entropy; the Cz column is zero")


def main():
    show_stages(np.pi / 2)
    show_omegas(np.pi / 3)
    sweep_table()

    # the omega state under Cx is genuinely entangled across b | d1 d2
    cfg = ProtocolConfig(theta=np.pi / 2, alice_config="Cx")
    omega, _ = omega_state(cfg, "d1")
    from qreality import entanglement_entropy

    ee = entanglement_entropy(omega, (("b",), ("d1", "d2")))
    print(f"\nentanglement entropy across b | d1 d2 at theta=pi/2: {ee:.6f} bit")


if __name__ == "__main__":
    main()
