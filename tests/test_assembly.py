import io

import numpy as np
import pytest

from mslqr import assembly as asm
from mslqr import mesh as mm


def unit_square_level(j):
    m = mm.build_base_mesh(mm.unit_square())
    for _ in range(j):
        m = mm.refine_uniform(m)
    return m


def single_triangle_mesh():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    tris = np.array([[0, 1, 2]])
    return mm.TriMesh(mm.unit_square(), verts, tris, np.zeros(3, dtype=np.int8))


# -- coefficient fields -------------------------------------------------------

def test_random_grid_constant_degenerate():
    k = asm.kappa_random_grid(2 ** -3, 1.0, 1.0, seed=7)
    assert k.alpha == k.beta == 1.0
    assert np.all(k.values == 1.0)


def test_random_grid_cell_count_and_bounds():
    k = asm.kappa_random_grid(2 ** -7, 1e-3, 1.0, seed=3)
    assert k.values.shape == (128, 128)
    assert k.values.size == 16384
    assert k.alpha >= 1e-3 and k.beta <= 1.0


def test_random_grid_deterministic():
    k1 = asm.kappa_random_grid(2 ** -5, 1e-3, 1.0, seed=42)
    k2 = asm.kappa_random_grid(2 ** -5, 1e-3, 1.0, seed=42)
    assert np.array_equal(k1.values, k2.values)
    k3 = asm.kappa_random_grid(2 ** -5, 1e-3, 1.0, seed=43)
    assert not np.array_equal(k1.values, k3.values)


def test_random_grid_validation():
    with pytest.raises(ValueError):
        asm.kappa_random_grid(2 ** -3, 0.0, 1.0, seed=1)
    with pytest.raises(ValueError):
        asm.kappa_random_grid(0.3, 0.1, 1.0, seed=1)


def test_grid_lookup_half_open_cells():
    vals = np.array([[1.0, 2.0], [3.0, 4.0]])
    k = asm.CoefficientField("grid", epsilon=0.5, values=vals)
    pts = np.array([[0.25, 0.25], [0.5, 0.25], [0.25, 0.5], [1.0, 1.0]])
    assert np.array_equal(k.values_at(pts), [1.0, 2.0, 3.0, 4.0])


def test_stripes_contrast_preset():
    k = asm.kappa_stripes(7, 2 ** -7, 1.0, 1e-2)
    assert k.alpha == 1e-2 and k.beta == 1.0
    assert k.values_at([[0.5, 1 / 8]])[0] == 1e-2
    assert k.values_at([[0.5, 3 / 16]])[0] == 1.0


def test_stripes_empty_is_constant():
    k = asm.kappa_stripes(0, 2 ** -7, 2.5, 1e-2)
    assert k.alpha == k.beta == 2.5
    assert np.all(k.values_at(np.random.default_rng(0).random((20, 2))) == 2.5)


def test_kappa_dump_load_roundtrip(tmp_path):
    k = asm.kappa_random_grid(2 ** -3, 0.1, 1.0, seed=5)
    path = tmp_path / "kappa.txt"
    asm.dump_kappa(k, str(path))
    k2 = asm.load_kappa(str(path))
    assert k2.epsilon == k.epsilon
    assert np.array_equal(k2.values, k.values)


def test_kappa_dump_load_roundtrip_through_path(tmp_path):
    k = asm.kappa_random_grid(2 ** -3, 0.1, 1.0, seed=6)
    path = tmp_path / "kappa.txt"
    asm.dump_kappa(k, path)
    k2 = asm.load_kappa(path)
    assert k2.epsilon == k.epsilon
    assert np.array_equal(k2.values, k.values)


def test_stripes_rasterization_exact():
    k = asm.kappa_stripes(7, 2 ** -5, 1.0, 1e-2)
    g = k.to_grid(2 ** -6)
    pts = np.random.default_rng(1).random((500, 2))
    assert np.array_equal(k.values_at(pts), g.values_at(pts))


# -- mass ---------------------------------------------------------------------

def test_mass_element_matrix():
    m = single_triangle_mesh()
    M = asm.assemble_mass(m, all_nodes=True).toarray()
    A = 0.5
    expected = (A / 12.0) * np.array([[2.0, 1, 1], [1, 2, 1], [1, 1, 2]])
    assert np.allclose(M, expected, atol=1e-15)


def test_mass_total_is_domain_area():
    for make in (mm.unit_square, mm.l_shape, mm.u_shape):
        m = mm.refine_uniform(mm.build_base_mesh(make()))
        M = asm.assemble_mass(m, all_nodes=True)
        assert M.sum() == pytest.approx(m.domain.area, abs=1e-12)


def test_mass_free_size_level3():
    M = asm.assemble_mass(unit_square_level(3))
    assert M.shape == (225, 225)
    assert np.linalg.eigvalsh(M.toarray()).min() > 0


# -- stiffness ----------------------------------------------------------------

def test_stiffness_row_sums_and_diagonal():
    m = unit_square_level(2)
    S = asm.assemble_stiffness(m, asm.kappa_constant(1.0), all_nodes=True)
    interior = np.nonzero(m.node_flags == mm.INTERIOR)[0]
    rows = S[interior].toarray()
    # a(phi, 1) = 0 with boundary columns included
    assert np.abs(rows.sum(axis=1)).max() < 1e-13
    # classical 5-point stencil diagonal on the diagonal-split grid
    assert np.allclose(S.diagonal()[interior], 4.0, atol=1e-13)


def test_stiffness_scaling_exact():
    m = unit_square_level(2)
    S1 = asm.assemble_stiffness(m, asm.kappa_constant(1.0))
    S3 = asm.assemble_stiffness(m, asm.kappa_constant(3.0))
    assert np.array_equal(3.0 * S1.toarray(), S3.toarray())


def test_stiffness_symmetry_and_spd():
    m = unit_square_level(3)
    k = asm.kappa_random_grid(2 ** -4, 1e-3, 1.0, seed=11)
    S = asm.assemble_stiffness(m, k)
    asym = abs(S - S.T).max()
    assert asym <= 1e-13 * abs(S).max()
    assert np.linalg.eigvalsh(S.toarray()).min() > 0


def test_coefficient_bounds_transfer_to_quadratic_forms():
    m = unit_square_level(3)
    k = asm.kappa_random_grid(2 ** -4, 1e-3, 1.0, seed=12)
    S_k = asm.assemble_stiffness(m, k)
    S_1 = asm.assemble_stiffness(m, asm.kappa_constant(1.0))
    rng = np.random.default_rng(0)
    for _ in range(100):
        x = rng.standard_normal(m.n_free)
        ratio = (x @ (S_k @ x)) / (x @ (S_1 @ x))
        assert k.alpha - 1e-12 <= ratio <= k.beta + 1e-12


def test_assembly_deterministic():
    m = unit_square_level(3)
    k = asm.kappa_random_grid(2 ** -5, 1e-3, 1.0, seed=99)
    S1 = asm.assemble_stiffness(m, k)
    S2 = asm.assemble_stiffness(m, k)
    assert np.array_equal(S1.indptr, S2.indptr)
    assert np.array_equal(S1.indices, S2.indices)
    assert np.array_equal(S1.data, S2.data)


# -- input / output operators ---------------------------------------------

def grid_squares():
    return [(j / 4, j / 4, j / 4 + 1 / 8, j / 4 + 1 / 8) for j in (1, 2, 3)]


def test_input_squares_column_sums():
    # partition of unity: full column sum equals the square area even when
    # the mesh does not resolve the square
    for level in (0, 2, 4):
        m = unit_square_level(level)
        B = asm.assemble_input_squares(m, grid_squares(), all_nodes=True)
        assert B.shape == (m.n_vertices, 3)
        assert np.allclose(B.sum(axis=0), 1 / 64, atol=1e-15)


def test_input_squares_zero_far_from_support():
    m = unit_square_level(3)
    B = asm.assemble_input_squares(m, [(0.25, 0.25, 0.375, 0.375)],
                                   all_nodes=True)
    far = np.nonzero((m.vertices[:, 0] > 0.6) | (m.vertices[:, 1] > 0.6))[0]
    assert np.all(B[far, 0] == 0.0)
    assert B.min() >= 0.0


def test_input_squares_free_rows():
    m = unit_square_level(2)
    B = asm.assemble_input_squares(m, grid_squares())
    assert B.shape == (m.n_free, 3)


def test_output_mean_interior_entry():
    m = unit_square_level(3)
    h = m.pitch
    C = asm.assemble_output_mean(m, all_nodes=True)
    interior = np.nonzero(m.node_flags == mm.INTERIOR)[0]
    # six incident triangles of area h^2/2 each contribute area/3
    assert np.allclose(C[0, interior], h ** 2, atol=1e-15)
    assert C.sum() == pytest.approx(1.0, abs=1e-12)


def test_output_mean_equals_mass_row():
    m = unit_square_level(2)
    C = asm.assemble_output_mean(m, all_nodes=True)
    M = asm.assemble_mass(m, all_nodes=True)
    assert np.allclose(C[0], np.asarray(M.sum(axis=1)).ravel(), atol=1e-14)


def test_output_mean_dirichlet_cutoff():
    m = unit_square_level(2)
    C = asm.assemble_output_mean(m)
    assert (C @ np.ones(m.n_free)).item() < 1.0


def test_lqr_system_defaults():
    m = unit_square_level(1)
    k = asm.kappa_constant(1.0)
    sys_ = asm.LqrSystem(M=asm.assemble_mass(m),
                         S=asm.assemble_stiffness(m, k),
                         B=asm.assemble_input_squares(m, grid_squares()),
                         C=asm.assemble_output_mean(m))
    assert (sys_.n, sys_.m, sys_.p) == (9, 3, 1)
    assert np.array_equal(sys_.Q, np.eye(1))
    assert np.array_equal(sys_.R, np.eye(3))
