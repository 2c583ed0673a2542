import io
import re

import numpy as np
import pytest
import scipy.sparse as sp

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


@pytest.mark.parametrize("make", [
    lambda: asm.kappa_random_grid(2 ** -3, np.nan, 1.0, seed=1),
    lambda: asm.kappa_random_grid(2 ** -3, 0.1, np.nan, seed=1),
    lambda: asm.kappa_random_grid(2 ** -3, 0.1, np.inf, seed=1),
    lambda: asm.kappa_random_grid(np.nan, 0.1, 1.0, seed=1),
    lambda: asm.kappa_random_grid(np.inf, 0.1, 1.0, seed=1),
    lambda: asm.kappa_random_grid(0.0, 0.1, 1.0, seed=1),
    lambda: asm.CoefficientField("grid", epsilon=0.5,
                                 values=[[1.0, np.nan], [1.0, 1.0]]),
    lambda: asm.kappa_stripes(7, 2 ** -5, 1.0, np.nan),
    lambda: asm.kappa_stripes(7, 2 ** -5, np.inf, 1e-2),
    lambda: asm.kappa_stripes(7, 2 ** -5, 1.0, -1e-2),
    lambda: asm.kappa_constant(np.inf),
    lambda: asm.kappa_constant(np.nan),
    lambda: asm.kappa_constant(0.0),
    lambda: asm.CoefficientField("grid", epsilon=np.nan, values=[[1.0]]),
    lambda: asm.kappa_stripes(7, np.nan, 1.0, 1e-2),
])
def test_non_finite_or_non_positive_coefficients_raise(make):
    with pytest.raises(ValueError, match="finite") as info:
        make()
    assert len(str(info.value).splitlines()) == 1


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


def load_kappa(path):
    """The grid a `dump_kappa` file holds: epsilon, then the rows."""
    with open(path) as fh:
        eps = float(fh.readline())
        values = [[float(v) for v in line.split()] for line in fh
                  if line.strip()]
    return asm.CoefficientField("grid", epsilon=eps, values=np.array(values))


def test_kappa_dump_load_roundtrip(tmp_path):
    k = asm.kappa_random_grid(2 ** -3, 0.1, 1.0, seed=5)
    path = tmp_path / "kappa.txt"
    asm.dump_kappa(k, str(path))
    k2 = load_kappa(path)
    assert k2.epsilon == k.epsilon
    assert np.array_equal(k2.values, k.values)


def test_kappa_dump_load_roundtrip_through_path(tmp_path):
    k = asm.kappa_random_grid(2 ** -3, 0.1, 1.0, seed=6)
    path = tmp_path / "kappa.txt"
    asm.dump_kappa(k, path)
    k2 = load_kappa(path)
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


@pytest.mark.parametrize("domain", [mm.unit_square, mm.l_shape, mm.u_shape])
def test_stiffness_stores_no_zeros_and_is_exactly_symmetric(domain):
    # the exact-zero hypotenuse couplings are dropped, which leaves the
    # 5-point pattern of a right-triangle mesh: at most 5 entries per row
    m = mm.build_base_mesh(domain())
    for _ in range(4):
        m = mm.refine_uniform(m)
    S = asm.assemble_stiffness(m, asm.kappa_random_grid(2 ** -5, 1e-3, 1.0,
                                                        seed=11))
    assert (S.data != 0).all()
    assert (np.diff(S.indptr) <= 5).all()
    assert (S != S.T).nnz == 0


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
    assert sys_.order is None


def test_lqr_system_refuses_a_mesh_of_another_size():
    m = unit_square_level(1)
    k = asm.kappa_constant(1.0)
    kw = dict(M=asm.assemble_mass(m), S=asm.assemble_stiffness(m, k),
              B=np.ones((m.n_free, 1)), C=np.ones((1, m.n_free)))
    assert np.array_equal(asm.LqrSystem(**kw, mesh=m).order,
                          m.dissection_order)
    with pytest.raises(ValueError, match="9 unknowns.*49 free nodes"):
        asm.LqrSystem(**kw, mesh=mm.refine_uniform(m))


@pytest.mark.parametrize("field, value, got, want", [
    ("B", np.ones((2, 1)), (2, 1), (3, 1)),
    ("C", np.ones((1, 2)), (1, 2), (1, 3)),
    ("Q", np.eye(2), (2, 2), (1, 1)),
    ("R", np.eye(2), (2, 2), (1, 1)),
    ("S", sp.identity(2, format="csr"), (2, 2), (3, 3))])
def test_lqr_system_refuses_inconsistent_shapes(field, value, got, want):
    kw = dict(M=sp.identity(3, format="csr"), S=sp.identity(3, format="csr"),
              B=np.ones((3, 1)), C=np.ones((1, 3)))
    kw[field] = value
    with pytest.raises(ValueError, match=re.escape(
            f"{field} has shape {got}, expected {want}")):
        asm.LqrSystem(**kw)


@pytest.mark.parametrize("field", ["M", "S", "B", "C", "Q", "R"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_lqr_system_refuses_non_finite_data(field, bad):
    kw = dict(M=sp.identity(3, format="csr"), S=sp.identity(3, format="csr"),
              B=np.ones((3, 1)), C=np.ones((1, 3)), Q=np.eye(1), R=np.eye(1))
    value = kw[field].copy()
    if sp.issparse(value):
        value.data[-1] = bad
    else:
        value.flat[-1] = bad
    kw[field] = value
    with pytest.raises(ValueError,
                       match=f"^{field} holds a NaN or an Inf$"):
        asm.LqrSystem(**kw)


def clipped_input_squares(mesh, squares):
    """Input matrix with every candidate triangle clipped against the
    square (the path that closed-form interior triangles replaced)."""
    area, b, c = asm._p1_geometry(mesh)
    v = mesh.vertices[mesh.triangles]
    aa = np.stack([v[:, 1, 0] * v[:, 2, 1] - v[:, 2, 0] * v[:, 1, 1],
                   v[:, 2, 0] * v[:, 0, 1] - v[:, 0, 0] * v[:, 2, 1],
                   v[:, 0, 0] * v[:, 1, 1] - v[:, 1, 0] * v[:, 0, 1]], axis=1)
    B = np.zeros((mesh.n_vertices, len(squares)))
    mins, maxs = v.min(axis=1), v.max(axis=1)
    for col, rect in enumerate(squares):
        x0, y0, x1, y1 = rect
        cand = np.nonzero((mins[:, 0] < x1) & (maxs[:, 0] > x0)
                          & (mins[:, 1] < y1) & (maxs[:, 1] > y0))[0]
        for t in cand:
            poly = asm._clip_to_rect(v[t], rect)
            if not poly:
                continue
            px = np.array([p[0] for p in poly])
            py = np.array([p[1] for p in poly])
            lam = (aa[t][:, None] + np.outer(b[t], px)
                   + np.outer(c[t], py)) / (2.0 * area[t])
            for i in range(len(poly) - 2):
                ids = [0, i + 1, i + 2]
                sub = 0.5 * ((px[ids[1]] - px[ids[0]]) * (py[ids[2]] - py[ids[0]])
                             - (px[ids[2]] - px[ids[0]]) * (py[ids[1]] - py[ids[0]]))
                B[mesh.triangles[t], col] += sub * lam[:, ids].mean(axis=1)
    return B


def mesh_level(domain, j):
    m = mm.build_base_mesh(domain())
    for _ in range(j):
        m = mm.refine_uniform(m)
    return m


@pytest.mark.parametrize("domain, squares", [
    (mm.unit_square, grid_squares()),
    (mm.l_shape, [(0.15, 0.15, 0.35, 0.35), (0.65, 0.65, 0.85, 0.85),
                  (0.3, 0.4, 0.6, 0.7)]),
])
def test_input_squares_match_clipping(domain, squares):
    # closed-form interior triangles agree with clipping every triangle,
    # also for squares shifted off the mesh lines by a third of a cell
    for j in (0, 2, 4):
        m = mesh_level(domain, j)
        third = m.pitch / 3
        for shift in (0.0, third):
            moved = [(x0 + shift, y0 + shift, x1 + shift, y1 + shift)
                     for x0, y0, x1, y1 in squares]
            B = asm.assemble_input_squares(m, moved, all_nodes=True)
            ref = clipped_input_squares(m, moved)
            scale = np.abs(ref).max(axis=0)
            assert (np.abs(B - ref) <= 1e-14 * np.where(scale, scale, 1)).all()


def test_input_squares_clip_only_crossing_triangles(monkeypatch):
    # squares on the mesh lines clip nothing from the level where the
    # mesh resolves them; shifted squares clip exactly the triangles that
    # cross an edge
    calls = []
    clip = asm._clip_to_rect

    def counting_clip(tri, rect):
        calls.append(rect)
        return clip(tri, rect)

    monkeypatch.setattr(asm, "_clip_to_rect", counting_clip)
    for j in (2, 3, 4):
        asm.assemble_input_squares(unit_square_level(j), grid_squares())
    assert calls == []
    m = unit_square_level(3)
    square = np.array(grid_squares()[0]) + m.pitch / 3
    asm.assemble_input_squares(m, [tuple(square)])
    v = m.vertices[m.triangles]
    lo, hi = v.min(axis=1), v.max(axis=1)
    touching = ((lo < square[2:]) & (hi > square[:2])).all(axis=1)
    inside = ((lo >= square[:2]) & (hi <= square[2:])).all(axis=1)
    assert 0 < len(calls) == (touching & ~inside).sum()
