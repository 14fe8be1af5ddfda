"""Finite-element simulation and network design for piezo-electro-mechanical
plates: coupled bending/electric fields on one triangular mesh, modal
reduction, Runge-Kutta time evolution, and synthesis of the optimal net
inductance and resistance for purely electrical vibration damping."""

from .assembly import (
    AssembledSystem,
    BoundaryCondition,
    DofMap,
    assemble,
    build_dof_map,
    local_matrices,
    patch_test,
)
from .dynamics import (
    DampingReport,
    InitialCondition,
    Trajectory,
    damping_evaluator,
    energies,
    impulse_ic,
    integrate,
    optimize_resistance,
    recover_field,
    resistance_family,
    unimodal_ic,
)
from .element import (
    ShapeEval,
    TriangleGeometry,
    TriangleQuadrature,
    linear_shape_functions,
    specht_p_vector,
    specht_second_derivatives,
    specht_shape_functions,
    triangle_geometry,
    triangle_quadrature,
)
from .errors import NumericalError, PemplateError, ValidationError
from .material import (
    MaterialModel,
    NetworkParams,
    PlateParams,
    build_material,
    conservative_twin,
)
from .mesh import (
    Mesh,
    MeshStatistics,
    generate_structured_square,
    load_mesh,
    mesh_statistics,
    save_mesh,
)
from .modal import (
    ModeSet,
    ReducedSystem,
    build_modal_basis,
    coupling_table,
    reduce,
    solve_family_modes,
    solve_modes,
    tune_inductance,
)

__version__ = "0.1.0"
