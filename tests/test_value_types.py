"""``==`` and ``hash`` on every exported frozen dataclass.

A type that holds an array (a state, an observable, a dataset, a
reconstruction) compares by identity, because the generated field-wise
``__eq__`` raises ValueError on array fields and ``hash`` raises TypeError;
the others compare by value.  Either way ``==`` returns a bool and ``hash``
works.
"""

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import qreality
from qreality import (
    ComplementarityResult,
    DensityMatrix,
    ExtendedOutputReport,
    IrrealityReport,
    MziConfig,
    ObservableSpec,
    ProtocolConfig,
    PureState,
    QubitRegister,
    ReconstructionResult,
    TomographyDataset,
    complementarity_check,
    extended_output_analysis,
    irreality,
    reconstruct,
    simulate_counts,
)

PAIR = QubitRegister(("p", "q"))


def pure(theta: float) -> PureState:
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return PureState(PAIR, [c, 0.0, 0.0, s])


def mixed(theta: float) -> DensityMatrix:
    return DensityMatrix(PAIR, 0.5 * pure(theta).to_density().entries + np.eye(4) / 8)


def observable(theta: float) -> ObservableSpec:
    c, s = np.cos(theta), np.sin(theta)
    return ObservableSpec("p", [[c, -s], [s, c]])


def dataset(theta: float) -> TomographyDataset:
    return simulate_counts(mixed(theta), 50, seed=int(theta * 1e6))


# One builder per exported frozen dataclass, each a function of one angle.
BUILDERS = {
    QubitRegister: lambda theta: QubitRegister(("p", "q")),
    PureState: pure,
    DensityMatrix: mixed,
    ObservableSpec: observable,
    IrrealityReport: lambda theta: irreality(mixed(theta), observable(theta)),
    ComplementarityResult: lambda theta: complementarity_check(
        mixed(theta), observable(theta), ObservableSpec.pauli("p", "X")
    ),
    ProtocolConfig: lambda theta: ProtocolConfig(theta=theta, alice_config="Cx"),
    MziConfig: lambda theta: MziConfig(phi=theta, extended=True),
    ExtendedOutputReport: lambda theta: extended_output_analysis(MziConfig(phi=theta, extended=True)),
    TomographyDataset: dataset,
    ReconstructionResult: lambda theta: reconstruct(dataset(theta)),
}
BY_IDENTITY = {PureState, DensityMatrix, ObservableSpec, TomographyDataset, ReconstructionResult}
# ExtendedOutputReport is neither: it compares its state by identity, the rest by value
BY_VALUE = set(BUILDERS) - BY_IDENTITY - {ExtendedOutputReport}


def test_builders_cover_every_exported_frozen_dataclass():
    exported = {getattr(qreality, name) for name in qreality.__all__}
    frozen = {
        cls
        for cls in exported
        if dataclasses.is_dataclass(cls) and cls.__dataclass_params__.frozen
    }
    assert frozen == set(BUILDERS)
    assert len(frozen) == 11


@settings(max_examples=100, deadline=None)
@given(
    cls=st.sampled_from(sorted(BUILDERS, key=lambda cls: cls.__name__)),
    theta=st.floats(0.0, np.pi),
)
def test_eq_is_a_reflexive_bool_and_hash_works(cls, theta):
    a, b = BUILDERS[cls](theta), BUILDERS[cls](theta)
    assert a == a
    assert not a != a
    equal = a == b
    assert isinstance(equal, bool) and isinstance(a != b, bool)
    assert isinstance(hash(a), int)
    if equal:
        assert hash(a) == hash(b)
    if cls in BY_VALUE:
        assert equal
    if cls in BY_IDENTITY:
        assert not equal


def test_extended_report_compares_its_state_by_identity():
    report = BUILDERS[ExtendedOutputReport](0.4)
    assert dataclasses.replace(report) == report
    assert BUILDERS[ExtendedOutputReport](0.4) != report


def test_irreality_report_holds_only_floats():
    assert [f.name for f in dataclasses.fields(IrrealityReport)] == [
        "irreality",
        "coherence",
        "discord",
    ]
    report = irreality(mixed(0.3), observable(0.3))
    assert report == IrrealityReport(*dataclasses.astuple(report))


def test_reconstruction_result_holds_no_fidelity():
    # a fidelity needs the true state, which only the caller knows
    assert [f.name for f in dataclasses.fields(ReconstructionResult)] == [
        "rho_linear",
        "rho_physical",
        "diagnostics",
    ]
    assert BUILDERS[ReconstructionResult](0.3).rho_physical.register == PAIR
