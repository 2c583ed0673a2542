import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from mslqr import assembly as asm
from mslqr import lod
from mslqr import mesh as mm


def mesh_chain(j_fine, domain=mm.unit_square):
    m = mm.build_base_mesh(domain())
    chain = [m]
    for _ in range(j_fine):
        m = mm.refine_uniform(m)
        chain.append(m)
    return chain


def make_system(fine, kappa):
    squares = [(j / 4, j / 4, j / 4 + 1 / 8, j / 4 + 1 / 8) for j in (1, 2, 3)]
    return asm.LqrSystem(M=asm.assemble_mass(fine),
                         S=asm.assemble_stiffness(fine, kappa),
                         B=asm.assemble_input_squares(fine, squares),
                         C=asm.assemble_output_mean(fine))


@pytest.fixture(scope="module")
def small():
    chain = mesh_chain(3)
    coarse, fine = chain[1], chain[3]
    kappa = asm.kappa_random_grid(2 ** -3, 0.05, 1.0, seed=31)
    system = make_system(fine, kappa)
    return dict(coarse=coarse, fine=fine, kappa=kappa, system=system)


# -- quasi interpolation -----------------------------------------------------

def test_clement_reproduces_constants():
    chain = mesh_chain(2)
    I = lod.clement_interpolation(chain[2], chain[0], all_nodes=True)
    ones = np.ones(chain[2].n_vertices)
    assert np.allclose(I @ ones, 1.0, atol=1e-13)


def test_clement_value_on_coarse_hat(small):
    coarse, fine = small["coarse"], small["fine"]
    P = mm.prolongation(coarse, fine, all_nodes=True)
    I = lod.clement_interpolation(fine, coarse, all_nodes=True)
    MH = asm.assemble_mass(coarse, all_nodes=True)
    for z in coarse.free_nodes[:5]:
        v = P[:, z].toarray().ravel()          # fine representation of hat z
        expected = MH[z, z] / MH[z].sum()       # <hat,hat> / <1,hat>
        assert (I @ v)[z] == pytest.approx(expected, rel=1e-12)
        assert (I @ v)[z] > 0


def test_clement_is_convex_averaging(small):
    coarse, fine = small["coarse"], small["fine"]
    I = lod.clement_interpolation(fine, coarse, all_nodes=True)
    assert I.data.min() >= -1e-15
    rng = np.random.default_rng(0)
    v = rng.standard_normal(fine.n_vertices)
    assert np.abs(I @ v).max() <= np.abs(v).max() + 1e-13


def test_clement_locality(small):
    coarse, fine = small["coarse"], small["fine"]
    I = lod.clement_interpolation(fine, coarse)
    reach = coarse.pitch + fine.pitch + 1e-12
    zs = coarse.vertices[coarse.free_nodes]
    xs = fine.vertices[fine.free_nodes]
    rows, cols = I.nonzero()
    d = np.abs(zs[rows] - xs[cols]).max(axis=1)
    assert (d <= reach).all()


def test_clement_rejects_non_nested():
    a = mm.build_base_mesh(mm.unit_square())
    b = mm.build_base_mesh(mm.l_shape())
    with pytest.raises(ValueError):
        lod.clement_interpolation(b, a)


# -- patches -------------------------------------------------------------

def test_patch_layer_zero_is_element(small):
    assert np.array_equal(lod.patch_elements(small["coarse"], 5, 0), [5])


def test_patch_one_layer_interior_element():
    # on the diagonal-split structured grid an interior element has twelve
    # vertex neighbors
    chain = mesh_chain(3)
    coarse = chain[3]
    centroids = coarse.vertices[coarse.triangles].mean(axis=1)
    K = int(np.argmin(np.abs(centroids - 0.5).max(axis=1)))
    patch = lod.patch_elements(coarse, K, 1)
    assert patch.size == 13
    assert K in patch


def test_patch_saturates(small):
    coarse = small["coarse"]
    patch = lod.patch_elements(coarse, 0, coarse.n_triangles)
    assert patch.size == coarse.n_triangles


def reference_patch_dofs(coarse, fine, patch):
    """Free fine vertices touched by patch triangles and by no other
    triangle, through full vertex-to-triangle incidence matrices."""
    steps = len(mm.lineage(coarse, fine)) - 1
    anc = np.arange(fine.n_triangles) // 4 ** steps
    inc = lod._element_incidence(fine)
    tri_mask = np.isin(anc, patch)
    inside = (inc @ tri_mask) > 0
    outside = (inc @ ~tri_mask) > 0
    free = np.zeros(fine.n_vertices, dtype=bool)
    free[fine.free_nodes] = True
    return np.nonzero(inside & ~outside & free)[0]


@pytest.mark.parametrize("domain", [mm.unit_square, mm.l_shape, mm.u_shape])
def test_patch_dofs_match_incidence_reference(domain):
    chain = mesh_chain(3, domain)
    coarse, fine = chain[1], chain[3]
    ws = lod._Workspace(fine, coarse, asm.kappa_constant(1.0))
    for K in np.unique(np.linspace(0, coarse.n_triangles - 1, 7).astype(int)):
        for k in (1, 2, 3):
            patch = lod.patch_elements(coarse, K, k)
            assert np.array_equal(ws.patch_dofs(patch),
                                  reference_patch_dofs(coarse, fine, patch))


def test_element_rhs_matches_ancestor_rule(small):
    coarse, fine, kappa = small["coarse"], small["fine"], small["kappa"]
    ws = lod._Workspace(fine, coarse, kappa)
    steps = len(mm.lineage(coarse, fine)) - 1
    anc = np.arange(fine.n_triangles) // 4 ** steps
    P_full = mm.prolongation(coarse, fine, all_nodes=True)
    for K in (0, 7, coarse.n_triangles - 1):
        verts = coarse.triangles[K]
        SK = asm._stiffness_on(fine, kappa, np.nonzero(anc == K)[0])
        expected = (SK @ P_full[:, verts]).toarray()
        assert np.array_equal(ws.element_rhs(K, verts), expected)


# -- correctors ----------------------------------------------------------

def test_corrector_columns_local_and_in_kernel(small):
    coarse, fine = small["coarse"], small["fine"]
    I_free = lod.clement_interpolation(fine, coarse)
    ws = lod._Workspace(fine, coarse, small["kappa"])
    patch = lod.patch_elements(coarse, 3, 1)
    dof_free, cols, hat_free = lod._solve_patch(ws, 3, patch)
    assert hat_free.size > 0
    assert cols.shape == (dof_free.size, hat_free.size)
    # support stays inside the patch
    allowed = set(ws.free_index[ws.patch_dofs(patch)])
    assert set(dof_free) <= allowed
    # corrector lies in the kernel of the quasi interpolation
    assert np.abs(I_free[:, dof_free] @ cols).max() <= 1e-10


def test_corrector_energy_bound(small):
    coarse, fine = small["coarse"], small["fine"]
    kappa, system = small["kappa"], small["system"]
    ws = lod._Workspace(fine, coarse, kappa, system=system)
    K = 7
    patch = lod.patch_elements(coarse, K, 2)
    dof_free, cols, hats = lod._solve_patch(ws, K, patch)
    hat_verts = coarse.triangles[K][ws.coarse_free_index[coarse.triangles[K]] >= 0]
    tri_ids = mm.descendant_triangles(coarse, fine, K)
    SK = asm._stiffness_on(fine, kappa, tri_ids)
    P_full = mm.prolongation(coarse, fine, all_nodes=True)
    for j, z in enumerate(hat_verts):
        phi = P_full[:, z].toarray().ravel()
        local_energy = phi @ (SK @ phi)
        q = np.zeros(fine.n_free)
        q[dof_free] = cols[:, j]
        assert q @ (ws.S_free @ q) <= local_energy * (1 + 1e-12)


def test_corrector_zero_rhs_gives_zero(small):
    # constant coefficient, element far from a hat: no right-hand side rows
    coarse, fine = small["coarse"], small["fine"]
    ws = lod._Workspace(fine, coarse, small["kappa"])
    K = 4
    patch = lod.patch_elements(coarse, K, 1)
    dof_free, cols, hats = lod._solve_patch(ws, K, patch)
    # solving with an explicitly zeroed rhs returns zero columns
    rhs = np.zeros((dof_free.size + 1, 1))
    Spp = ws.S_free[dof_free][:, dof_free]
    c_free = np.array([0])
    Cp = ws.I_free[c_free][:, dof_free]
    saddle = sp.bmat([[Spp, Cp.T], [Cp, None]], format="csc")
    sol = splu(saddle).solve(rhs)
    assert np.abs(sol).max() == 0.0


# -- basis build ----------------------------------------------------------

def test_lod_basis_shapes_and_spd(small):
    coarse, fine = small["coarse"], small["fine"]
    basis = lod.build_lod_basis(fine, coarse, small["kappa"], k=2,
                                system=small["system"])
    nH = coarse.n_free
    assert basis.Rh.shape == (fine.n_free, nH)
    assert basis.n_coarse == nH
    for A in (basis.M_ms, basis.S_ms):
        assert A.shape == (nH, nH)
        assert abs(A - A.T).max() <= 1e-13 * abs(A).max()
        assert np.linalg.eigvalsh(A.toarray()).min() > 0
    assert basis.B_ms.shape == (nH, 3)
    assert basis.C_ms.shape == (1, nH)


def test_kernel_property(small):
    coarse, fine = small["coarse"], small["fine"]
    I_free = lod.clement_interpolation(fine, coarse)
    basis = lod.build_lod_basis(fine, coarse, small["kappa"], k=2,
                                system=small["system"])
    P_free = mm.prolongation(coarse, fine)
    defect = np.abs(I_free @ (P_free - basis.Rh)).max()
    assert defect <= 1e-10 * abs(basis.Rh).max()


def test_full_patch_matches_global_construction(small):
    coarse, fine = small["coarse"], small["fine"]
    kappa, system = small["kappa"], small["system"]
    k_full = coarse.n_triangles
    local = lod.build_lod_basis(fine, coarse, kappa, k=k_full, system=system)
    glob = lod.global_corrector_basis(fine, coarse, kappa, system)
    assert abs(local.Rh - glob.Rh).max() <= 1e-10


def test_full_patch_orthogonality(small):
    coarse, fine = small["coarse"], small["fine"]
    kappa, system = small["kappa"], small["system"]
    basis = lod.build_lod_basis(fine, coarse, kappa, k=coarse.n_triangles,
                                system=system)
    I_free = lod.clement_interpolation(fine, coarse)
    S = system.S
    M = system.M
    # fine-scale test functions: M-orthogonal projections onto ker I_H
    nH = coarse.n_free
    saddle = sp.bmat([[M, I_free.T], [I_free, None]], format="csc")
    lu = splu(saddle)
    rng = np.random.default_rng(5)
    for _ in range(20):
        v = rng.standard_normal(nH)
        w0 = rng.standard_normal(fine.n_free)
        w = lu.solve(np.concatenate([M @ w0, np.zeros(nH)]))[: fine.n_free]
        assert np.abs(I_free @ w).max() <= 1e-9
        rv = basis.Rh @ v
        a_vw = rv @ (S @ w)
        na = np.sqrt(rv @ (S @ rv)) * np.sqrt(w @ (S @ w))
        assert abs(a_vw) <= 1e-9 * na


def test_constant_kappa_full_patch_still_full_rank(small):
    coarse, fine = small["coarse"], small["fine"]
    kappa = asm.kappa_constant(1.0)
    system = make_system(fine, kappa)
    basis = lod.build_lod_basis(fine, coarse, kappa, k=coarse.n_triangles,
                                system=system)
    SH = asm.assemble_stiffness(coarse, kappa)
    assert basis.S_ms.shape == SH.shape
    assert np.linalg.eigvalsh(basis.S_ms.toarray()).min() > 0


def test_decay_profile_monotone(small):
    coarse, fine = small["coarse"], small["fine"]
    centroids = coarse.vertices[coarse.triangles].mean(axis=1)
    K = int(np.argmin(np.abs(centroids - 0.5).max(axis=1)))
    e = lod.corrector_decay_profile(fine, coarse, small["kappa"], K, k_max=4)
    assert len(e) == 4
    assert all(e[i + 1] <= e[i] + 1e-12 for i in range(3))
    # saturation: the largest patch covers the coarse mesh here
    assert e[-1] <= 1e-10 * (e[0] + 1e-30)


def test_parallel_build_bitwise_deterministic(small):
    coarse, fine = small["coarse"], small["fine"]
    b1 = lod.build_lod_basis(fine, coarse, small["kappa"], 2,
                             small["system"], workers=1)
    b2 = lod.build_lod_basis(fine, coarse, small["kappa"], 2,
                             small["system"], workers=4)
    assert (b1.Rh != b2.Rh).nnz == 0
    assert np.array_equal(b1.Rh.data, b2.Rh.data)


def test_patch_and_radius_validation(small):
    coarse, fine = small["coarse"], small["fine"]
    with pytest.raises(ValueError):
        lod.patch_elements(coarse, 0, -1)
    with pytest.raises(ValueError):
        lod.patch_elements(coarse, coarse.n_triangles, 1)
    with pytest.raises(ValueError):
        lod.build_lod_basis(fine, coarse, small["kappa"], 0, small["system"])
    with pytest.raises(ValueError):
        lod.corrector_decay_profile(fine, coarse, small["kappa"], 0, 1)


def test_default_patch_radius():
    chain = mesh_chain(3)
    assert lod.default_patch_radius(chain[0]) == 1
    assert lod.default_patch_radius(chain[3]) == 4


def test_weights_carry_over_to_every_basis(tmp_path, small):
    coarse, fine, kappa = small["coarse"], small["fine"], small["kappa"]
    s = small["system"]
    R = 3.0 * np.eye(s.m)
    system = asm.LqrSystem(M=s.M, S=s.S, B=s.B, C=s.C, Q=2.0, R=R)
    local = lod.build_lod_basis(fine, coarse, kappa, 1, system)
    path = tmp_path / "basis.npz"
    lod.save_lod_basis(local, path)
    for basis in (local,
                  lod.global_corrector_basis(fine, coarse, kappa, system),
                  lod.load_lod_basis(path, system)):
        assert np.array_equal(basis.system().Q, [[2.0]])
        assert np.array_equal(basis.system().R, R)


def test_basis_save_load_roundtrip(tmp_path, small):
    coarse, fine = small["coarse"], small["fine"]
    basis = lod.build_lod_basis(fine, coarse, small["kappa"], k=2,
                                system=small["system"])
    path = tmp_path / "basis.npz"
    lod.save_lod_basis(basis, path, fine=fine, coarse=coarse,
                       kappa=small["kappa"])
    loaded = lod.load_lod_basis(path, small["system"], fine=fine,
                                coarse=coarse, kappa=small["kappa"])
    assert loaded.k == basis.k
    assert abs(loaded.Rh - basis.Rh).max() == 0.0
    assert np.allclose(loaded.S_ms.toarray(), basis.S_ms.toarray())
    # checksum mismatch is detected
    other = asm.kappa_constant(2.0)
    with pytest.raises(ValueError):
        lod.load_lod_basis(path, small["system"], fine=fine, coarse=coarse,
                           kappa=other)
