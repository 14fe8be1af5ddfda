import numpy as np
import pytest

from pemplate.errors import ValidationError
from pemplate.material import (
    NetworkParams,
    PlateParams,
    build_material,
    conservative_twin,
)


def benchmark_plate(coupling=(0.1, 0.1, 0.0)):
    return PlateParams.isotropic(half_thickness=1e-3, density=500.0,
                                 rigidity=1.0, poisson=0.3, coupling=coupling)


class TestBuildMaterial:
    def test_inertia_and_network_diagonals(self):
        net = NetworkParams(inductance=2.0, resistance=0.5, capacitance=3.0,
                            conductance=0.25)
        m = build_material(benchmark_plate(), net)
        h, rho = 1e-3, 500.0
        assert np.allclose(m.G, np.diag([-2 * h * rho, -3.0 * 2.0]))
        assert np.allclose(m.S, np.diag([0.0, -(3.0 * 0.5 + 0.25 * 2.0)]))
        assert np.allclose(m.T, np.diag([0.0, -0.25 * 0.5]))
        rot = 2 * h**3 * rho / 3
        assert np.allclose(m.G_B1, np.diag([-rot, 0.0]))
        assert np.allclose(m.G_B2, m.G_B1)

    def test_stiffness_block_structure(self):
        m = build_material(benchmark_plate(), NetworkParams(inductance=1.0))
        d = np.array([[1.0, 0.3, 0], [0.3, 1.0, 0], [0, 0, 0.35]])
        assert np.allclose(m.E[:3, :3], d)
        assert np.allclose(m.E[3:, 3:], np.eye(2))
        assert np.allclose(m.E[:3, 3:], 0.0)

    def test_coupling_columns(self):
        net = NetworkParams(inductance=2.0, resistance=0.5)
        m = build_material(benchmark_plate((0.1, 0.2, 0.05)), net)
        g = np.array([0.1, 0.2, 0.05])
        assert np.allclose(m.C[:3, 1], 2.0 * g)
        assert np.allclose(m.R[:3, 1], 0.5 * g)
        assert np.allclose(m.V[1, :3], g)
        # nothing else is populated
        assert np.allclose(m.C[:, 0], 0) and np.allclose(m.C[3:], 0)
        assert np.allclose(m.R[:, 0], 0) and np.allclose(m.R[3:], 0)
        assert np.allclose(m.V[0], 0) and np.allclose(m.V[1, 3:], 0)

    def test_compatibility_selectors(self):
        m = build_material(benchmark_plate(), NetworkParams(inductance=1.0))
        h = m.H
        assert np.allclose(h[0], 0.0)
        expect = np.zeros((6, 5, 2))
        expect[1, 3, 1] = 1.0
        expect[2, 4, 1] = 1.0
        expect[3, 0, 0] = -1.0
        expect[4, 1, 0] = -1.0
        expect[5, 2, 0] = -2.0
        assert np.allclose(h, expect)

    def test_uncoupled_limit(self):
        net = NetworkParams(inductance=1.0, resistance=0.4, conductance=0.2)
        m = build_material(benchmark_plate((0.0, 0.0, 0.0)), net)
        assert np.allclose(m.C, 0) and np.allclose(m.V, 0) and np.allclose(m.R, 0)
        assert m.T[1, 1] == pytest.approx(-0.2 * 0.4)
        assert not m.coupled

    def test_conservative_limit(self):
        m = build_material(benchmark_plate(), NetworkParams(inductance=1.0))
        assert np.allclose(m.S, 0) and np.allclose(m.T, 0) and np.allclose(m.R, 0)
        assert not np.allclose(m.C, 0) and not np.allclose(m.V, 0)

    def test_total_capacitance_sum(self):
        plate = PlateParams.isotropic(1e-3, 500.0, 1.0, 0.3,
                                      piezo_capacitance=0.25)
        m = build_material(plate, NetworkParams(inductance=1.0, capacitance=0.75))
        assert m.c_n == pytest.approx(1.0)
        assert m.G[1, 1] == pytest.approx(-1.0)

    def test_rebuild_is_bit_identical(self):
        plate, net = benchmark_plate(), NetworkParams(inductance=1.3, resistance=0.2)
        a = build_material(plate, net)
        b = build_material(plate, net)
        for name in ("G", "S", "T", "V", "E", "C", "R", "G_B1", "G_B2", "H"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_validation_errors(self):
        plate = benchmark_plate()
        with pytest.raises(ValidationError):
            build_material(plate, NetworkParams(inductance=0.0))
        with pytest.raises(ValidationError):
            build_material(plate, NetworkParams(inductance=1.0, capacitance=-2.0))
        with pytest.raises(ValidationError):
            build_material(plate, NetworkParams(inductance=1.0, resistance=-1.0))
        bad = PlateParams(half_thickness=1e-3, density=500.0,
                          bending_stiffness=np.diag([1.0, -1.0, 1.0]),
                          piezo_bending_stiffness=np.zeros((3, 3)),
                          coupling=np.zeros(3))
        with pytest.raises(ValidationError, match="positive definite"):
            build_material(bad, NetworkParams(inductance=1.0))
        with pytest.raises(ValidationError):
            build_material(
                PlateParams.isotropic(-1e-3, 500.0, 1.0, 0.3),
                NetworkParams(inductance=1.0),
            )


def test_conservative_twin_strips_dissipation():
    net = NetworkParams(inductance=1.5, resistance=0.7, conductance=0.3)
    m = build_material(benchmark_plate(), conservative_twin(net))
    assert m.network.resistance == 0.0 and m.network.conductance == 0.0
    assert m.network.inductance == 1.5
    assert np.allclose(m.S, 0) and np.allclose(m.T, 0) and np.allclose(m.R, 0)
