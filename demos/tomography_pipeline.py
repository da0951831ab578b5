#!/usr/bin/env python3
"""Simulate counts, reconstruct the state, and attach Monte Carlo error bars.

Simulated counts go through the same ``reconstruct`` call as counts loaded
from a file; only a simulation knows the true state to compare with.  A
simulated dataset carries the state's register (b, d1, d2), so neither
``reconstruct`` nor ``monte_carlo_irreality`` is told which qubit is which.

Run:
    python3 demos/tomography_pipeline.py
"""

import numpy as np

from qreality import (
    ObservableSpec,
    binary_entropy,
    fidelity,
    monte_carlo_irreality,
    reconstruct,
    simulate_counts,
)
from qreality.eraser import ProtocolConfig, omega_state


def reconstruction_quality():
    print("--- reconstruction fidelity versus shot budget ---")
    omega, _ = omega_state(ProtocolConfig(theta=np.pi / 2, alice_config="Cx"), "d1")
    for shots in (1_000, 10_000, 100_000):
        result = reconstruct(simulate_counts(omega, shots, seed=1))
        diag = result.diagnostics
        print(
            f"  shots={shots:>7}  fidelity={fidelity(result.rho_physical, omega):.5f}  "
            f"min linear eigenvalue={diag['min_eigenvalue_linear']:+.5f}"
        )
    print("  linear inversion dips negative at low shots; the physical")
    print("  projection clips those eigenvalues and renormalizes")


def error_bars():
    print("\n--- Monte Carlo error bars on the reconstructed irreality ---")
    observable = ObservableSpec.pauli("d1", "Z")
    print(f"  {'theta':>8}  {'analytic':>9}  {'estimate':>9}  {'std':>8}")
    for k, theta in enumerate(np.linspace(0.2, np.pi / 2, 5)):
        cfg = ProtocolConfig(theta=float(theta), alice_config="Cx")
        omega, _ = omega_state(cfg, "d1")
        data = simulate_counts(omega, 10_000, seed=40 + k)
        estimate, std = monte_carlo_irreality(data, observable, 100, seed=60 + k)
        analytic = binary_entropy(np.cos(theta / 2) ** 2)
        print(f"  {theta:8.4f}  {analytic:9.5f}  {estimate:9.5f}  {std:8.5f}")


def reconstructed_matrix():
    print("\n--- real part of the reconstructed matrix at theta=pi/2 ---")
    omega, _ = omega_state(ProtocolConfig(theta=np.pi / 2, alice_config="Cx"), "d1")
    result = reconstruct(simulate_counts(omega, 100_000, seed=5))
    real = result.rho_physical.entries.real
    kets = [f"|{i:03b}>" for i in range(8)]
    print("        " + "  ".join(f"{k:>6}" for k in kets))
    for i, row in enumerate(real):
        print(f"  {kets[i]}  " + "  ".join(f"{x:6.3f}" for x in row))
    print("  the two 0.5 diagonal entries and the 0.5 coherences between")
    print("  |001> and |110> are the signature of the entangled output")


def main():
    reconstruction_quality()
    error_bars()
    reconstructed_matrix()


if __name__ == "__main__":
    main()
