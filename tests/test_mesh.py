import io

import numpy as np
import pytest

from mslqr import mesh as mm


def refine_times(m, n):
    for _ in range(n):
        m = mm.refine_uniform(m)
    return m


def test_unit_square_base():
    m = mm.build_base_mesh(mm.unit_square())
    assert m.n_triangles == 8
    assert m.n_vertices == 9
    assert (m.node_flags == mm.DIRICHLET).sum() == 8
    assert m.n_free == 1


def test_lshape_base_interior_nodes():
    m = mm.build_base_mesh(mm.l_shape())
    assert m.n_free == 5
    assert m.n_triangles == 24


def test_ushape_free_node_counts():
    m = mm.build_base_mesh(mm.u_shape())
    # free = interior + Neumann nodes; only the heat-sink edge is Dirichlet
    assert m.n_free == 28
    assert (m.node_flags == mm.DIRICHLET).sum() == 2
    assert refine_times(m, 1).n_free == 84


def test_unit_square_interior_node_ladder():
    m = mm.build_base_mesh(mm.unit_square())
    expected = [1, 9, 49, 225, 961, 3969, 16129, 65025]
    counts = [m.n_free]
    for _ in range(7):
        m = mm.refine_uniform(m)
        counts.append(m.n_free)
    assert counts == expected
    assert m.n_free == (2 ** 8 - 1) ** 2


def test_lshape_interior_node_ladder():
    m = mm.build_base_mesh(mm.l_shape())
    counts = [m.n_free]
    for _ in range(3):
        m = mm.refine_uniform(m)
        counts.append(m.n_free)
    assert counts == [5, 33, 161, 705]


def test_refine_bookkeeping():
    m0 = mm.build_base_mesh(mm.unit_square())
    m1 = mm.refine_uniform(m0)
    assert m1.n_triangles == 4 * m0.n_triangles == 32
    assert m1.n_free == 9
    assert m1.level == 1 and m1.parent is m0
    edges, _ = mm._boundary_edges(m0.triangles)
    assert m1.n_vertices == m0.n_vertices + edges.shape[0]
    # old vertices keep their indices and coordinates
    assert np.array_equal(m1.vertices[: m0.n_vertices], m0.vertices)


@pytest.mark.parametrize("make", [mm.unit_square, mm.l_shape, mm.u_shape])
def test_refine_preserves_conformity_and_orientation(make):
    m = mm.build_base_mesh(make())
    for _ in range(3):
        m = mm.refine_uniform(m)
        assert (m.triangle_areas() > 0).all()
        _, counts = mm._boundary_edges(m.triangles)
        assert set(np.unique(counts)) <= {1, 2}


def test_triangle_areas_sum_to_domain_area():
    for make in (mm.unit_square, mm.l_shape, mm.u_shape):
        m = refine_times(mm.build_base_mesh(make()), 2)
        assert m.triangle_areas().sum() == pytest.approx(m.domain.area, abs=1e-14)


def test_prolongation_shape_and_entries():
    m0 = mm.build_base_mesh(mm.unit_square())
    m1 = mm.refine_uniform(m0)
    m2 = mm.refine_uniform(m1)
    P = mm.prolongation(m1, m2)
    assert P.shape == (49, 9)
    assert np.isin(np.unique(P.data), [0.5, 1.0]).all()
    # a coarse node reappearing as a fine node gives a unit row
    Pf = mm.prolongation(m1, m2, all_nodes=True)
    for j in range(m1.n_vertices):
        row = Pf.getrow(j).toarray().ravel()
        assert row[j] == 1.0 and np.count_nonzero(row) == 1
    # an edge-midpoint fine node averages its two endpoints
    mid = m1.n_vertices
    row = Pf.getrow(mid).toarray().ravel()
    assert sorted(row[row != 0]) == [0.5, 0.5]


def test_prolongation_row_sums():
    m0 = mm.build_base_mesh(mm.unit_square())
    m2 = refine_times(m0, 2)
    Pf = mm.prolongation(m0, m2, all_nodes=True)
    assert np.allclose(Pf @ np.ones(m0.n_vertices), 1.0)
    P = mm.prolongation(m0, m2)
    sums = np.asarray(P.sum(axis=1)).ravel()
    assert (sums <= 1.0 + 1e-14).all()


def test_prolongation_transitivity():
    m0 = mm.build_base_mesh(mm.unit_square())
    m1 = mm.refine_uniform(m0)
    m2 = mm.refine_uniform(m1)
    direct = mm.prolongation(m0, m2)
    composed = mm.prolongation(m1, m2) @ mm.prolongation(m0, m1)
    assert abs(direct - composed).max() <= 1e-14


def test_prolongation_reproduces_coarse_functions():
    # nested spaces: linear functions interpolate exactly
    m0 = mm.build_base_mesh(mm.l_shape())
    m2 = refine_times(m0, 2)
    Pf = mm.prolongation(m0, m2, all_nodes=True)
    for comp in (0, 1):
        assert np.abs(Pf @ m0.vertices[:, comp] - m2.vertices[:, comp]).max() == 0.0


def test_prolongation_rejects_unrelated_meshes():
    m0 = mm.build_base_mesh(mm.unit_square())
    other = mm.build_base_mesh(mm.l_shape())
    with pytest.raises(ValueError):
        mm.prolongation(m0, other)
    with pytest.raises(ValueError):
        mm.prolongation(mm.refine_uniform(m0), m0)


def test_shape_regularity_right_isoceles():
    # structured split yields right isoceles triangles:
    # inscribed diameter (2 - sqrt(2)) * leg, diameter sqrt(2) * leg
    m = mm.build_base_mesh(mm.unit_square())
    expected = (2 - np.sqrt(2)) / np.sqrt(2)
    assert mm.shape_regularity(m) == pytest.approx(expected, rel=1e-12)


def test_shape_regularity_equilateral():
    dom = mm.unit_square()
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3) / 2]])
    tris = np.array([[0, 1, 2]])
    m = mm.TriMesh(dom, verts, tris, np.zeros(3, dtype=np.int8))
    assert mm.shape_regularity(m) == pytest.approx(1 / np.sqrt(3), rel=1e-12)


def test_shape_regularity_invariant_under_refinement():
    m = mm.build_base_mesh(mm.u_shape())
    g0 = mm.shape_regularity(m)
    assert mm.shape_regularity(refine_times(m, 2)) == pytest.approx(g0, rel=1e-12)


def test_descendant_triangles():
    m0 = mm.build_base_mesh(mm.unit_square())
    m2 = refine_times(m0, 2)
    ids = [mm.descendant_triangles(m0, m2, t) for t in range(m0.n_triangles)]
    # the descendants partition the fine mesh, 16 per element, in order
    assert {i.size for i in ids} == {16}
    assert np.array_equal(np.concatenate(ids), np.arange(m2.n_triangles))
    assert np.array_equal(mm.descendant_triangles(m0, m2, [2, 0]),
                          np.concatenate([ids[2], ids[0]]))
    assert np.array_equal(mm.descendant_triangles(m0, m0, 3), [3])
    # every fine triangle is geometrically inside its ancestor
    cf = m2.vertices[m2.triangles].mean(axis=1)
    for t in range(m0.n_triangles):
        tri = m0.vertices[m0.triangles[t]]
        lo, hi = tri.min(axis=0), tri.max(axis=0)
        pts = cf[ids[t]]
        assert (pts >= lo - 1e-12).all() and (pts <= hi + 1e-12).all()
    for bad in (-1, m0.n_triangles):
        with pytest.raises(ValueError):
            mm.descendant_triangles(m0, m2, bad)
    with pytest.raises(ValueError):
        mm.descendant_triangles(m2, m0, 0)


def test_mesh_dump_roundtrip_counts():
    m = mm.refine_uniform(mm.build_base_mesh(mm.u_shape()))
    buf = io.StringIO()
    mm.dump_mesh(m, buf)
    lines = buf.getvalue().strip().splitlines()
    vlines = [l for l in lines if l.startswith("vertex ")]
    tlines = [l for l in lines if l.startswith("triangle ")]
    assert len(vlines) == m.n_vertices
    assert len(tlines) == m.n_triangles
    assert vlines[0].split()[3] in mm.FLAG_NAMES.values()


def test_mesh_dump_to_path_matches_stream(tmp_path):
    m = mm.refine_uniform(mm.build_base_mesh(mm.l_shape()))
    buf = io.StringIO()
    mm.dump_mesh(m, buf)
    path = tmp_path / "mesh.txt"
    mm.dump_mesh(m, path)
    assert path.read_text() == buf.getvalue()


def test_mesh_immutable():
    m = mm.build_base_mesh(mm.unit_square())
    with pytest.raises(ValueError):
        m.vertices[0, 0] = 2.0
