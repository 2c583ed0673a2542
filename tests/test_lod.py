import hashlib

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg.lapack import dpotrf
from scipy.sparse.linalg import splu

from mslqr import assembly as asm
from mslqr import bench, lod
from mslqr import mesh as mm
from mslqr.dre import SolverConfig, solve_dre
from mslqr.lowrank import zero_factor


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


def test_workspace_builds_one_prolongation(monkeypatch, small):
    # the quasi-interpolation reuses the workspace's all-nodes
    # prolongation, and I_free keeps the bits of a standalone build
    coarse, fine = small["coarse"], small["fine"]
    calls = []
    prolongation = lod.prolongation

    def counting(*args, **kwargs):
        calls.append(args)
        return prolongation(*args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(lod, "prolongation", counting)
        ws = lod._Workspace(fine, coarse, small["kappa"])
    assert len(calls) == 1

    def sha256(A):
        return hashlib.sha256(b"".join(
            np.ascontiguousarray(a).tobytes()
            for a in (A.indptr, A.indices, A.data))).hexdigest()

    assert sha256(ws.I_free) == sha256(lod.clement_interpolation(fine, coarse))


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


def element_incidence(mesh):
    """Vertex-to-triangle incidence (n_vertices x n_triangles, 0/1)."""
    nt = mesh.n_triangles
    rows = mesh.triangles.ravel()
    cols = np.repeat(np.arange(nt), 3)
    return sp.csr_matrix((np.ones(3 * nt), (rows, cols)),
                         shape=(mesh.n_vertices, nt))


def reference_patch_elements(inc, K, k):
    """Patch growth by boolean masks over the whole coarse mesh, given
    its vertex-to-triangle incidence."""
    mask = np.zeros(inc.shape[1], dtype=bool)
    mask[K] = True
    for _ in range(k):
        verts = (inc @ mask) > 0
        grown = (inc.T @ verts) > 0
        if (grown == mask).all():
            break
        mask = grown
    return np.nonzero(mask)[0]


@pytest.mark.parametrize("domain", [mm.unit_square, mm.l_shape, mm.u_shape])
def test_patch_elements_match_mask_reference(domain):
    for coarse in mesh_chain(3, domain):
        nt = coarse.n_triangles
        inc = element_incidence(coarse)
        for K in range(0, nt, max(1, nt // 100)):
            for k in (0, 1, 2, 3, nt):
                patch = lod.patch_elements(coarse, K, k)
                assert patch.dtype == np.int64
                assert np.array_equal(patch,
                                      reference_patch_elements(inc, K, k))


def reference_patch_dofs(coarse, fine, patch):
    """Free fine vertices touched by patch triangles and by no other
    triangle, through full vertex-to-triangle incidence matrices."""
    steps = len(mm.lineage(coarse, fine)) - 1
    anc = np.arange(fine.n_triangles) // 4 ** steps
    inc = element_incidence(fine)
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
            dof_free, _, hat_free = patch_columns(ws, K, patch)
            assert hat_free.size > 0
            expected = reference_patch_dofs(coarse, fine, patch)
            assert np.array_equal(dof_free, ws.free_index[expected])


def patch_columns(ws, K, patch):
    """(sorted free positions of the patch dofs, dense corrector columns,
    free ids of the coarse hats of K) of element K alone on a patch, from
    the skeleton solve and the interior recovery of a basis build."""
    [s] = lod._skeleton_solve(ws, [K], patch)
    cd = ws.condensation
    dofs = np.sort(np.concatenate(
        [s.dofs, ws.free_index[cd.V[patch, :cd.n_interior]].ravel()]))
    Q = lod._corrector_matrix(ws, [s])
    return dofs, Q[dofs][:, s.hats].toarray(), s.hats


def ancestor_rule_rhs(ws, kappa, K, contract=True):
    """Element K's right-hand side int_K kappa grad(phi_z).grad(phi_i)
    over all fine vertices i, from the triangles the ancestor rule assigns
    to K.  With ``contract`` each triangle's stiffness block is contracted
    with the hat values at its corners and the products are summed in
    triangle order; otherwise the triangles' stiffness is assembled by
    `_accumulate` and multiplied by the prolongation columns."""
    coarse, fine = ws.coarse, ws.fine
    steps = len(mm.lineage(coarse, fine)) - 1
    anc = np.arange(fine.n_triangles) // 4 ** steps
    T = fine.triangles[anc == K]
    E = asm._element_stiffness(fine, kappa, T)
    hat_verts, _ = ws.free_hats(K)
    P = mm.prolongation(coarse, fine, all_nodes=True)[:, hat_verts]
    if not contract:
        return (asm._accumulate(T, fine.n_vertices, E) @ P).toarray()
    per_vertex = np.einsum("tab,tbh->tah",
                           np.ascontiguousarray(E.transpose(2, 0, 1)),
                           P.toarray()[T])
    nh = hat_verts.size
    rows = T[:, :, None] * nh + np.arange(nh)
    return np.bincount(rows.ravel(), per_vertex.ravel(),
                       minlength=fine.n_vertices * nh).reshape(-1, nh)


def ancestor_rule_problem(ws, kappa, K, patch, contract=True):
    """(dofs, Spp, Cp, rhs) of element K's corrector problem on a patch,
    with the dofs from the incidence reference, the patch matrices sliced
    by SciPy and the right-hand side from `ancestor_rule_rhs`."""
    coarse, fine = ws.coarse, ws.fine
    dofs = reference_patch_dofs(coarse, fine, patch)
    c_free = ws.coarse_free_index[np.unique(coarse.triangles[patch])]
    c_free = c_free[c_free >= 0]
    dof_free = ws.free_index[dofs]
    S = asm.assemble_stiffness(fine, kappa).tocsr()
    return (dof_free, S[dof_free][:, dof_free],
            ws.I_free[c_free][:, dof_free],
            ancestor_rule_rhs(ws, kappa, K, contract)[dofs])


def saddle_lu_reference(Spp, Cp, rhs):
    """x of [[Spp, Cp^T], [Cp, 0]] [x; lam] = [rhs; 0] by a sparse LU of
    the whole saddle matrix."""
    saddle = sp.bmat([[Spp, Cp.T], [Cp, None]], format="csc")
    zeros = np.zeros((Cp.shape[0], rhs.shape[1]))
    return splu(saddle).solve(np.vstack([rhs, zeros]))[: Spp.shape[0]]


def test_element_rhs_matches_ancestor_rule(small):
    # the element right-hand side E P that the condensation keeps equals
    # the assembled-matrix right-hand side int_K kappa grad(phi_z).grad(phi_i)
    # of the triangles the ancestor rule assigns to K, to roundoff
    coarse, fine, kappa = small["coarse"], small["fine"], small["kappa"]
    ws = lod._Workspace(fine, coarse, kappa)
    cd = ws.condensation
    for K in (0, 7, coarse.n_triangles - 1):
        expected = ancestor_rule_rhs(ws, kappa, K, contract=False)
        free = ws.coarse_free_index[coarse.triangles[K]] >= 0
        got = np.zeros_like(expected)
        got[cd.V[K]] = cd.r[K][:, free]
        assert (np.abs(got - expected).max()
                <= 1e-13 * np.abs(expected).max())


def counted(calls, name, factor):
    """``factor``, appending ``name`` to ``calls`` at every call."""
    def call(*args, **kwargs):
        calls.append(name)
        return factor(*args, **kwargs)
    return call


def skeleton_split(ws, patch, skeleton_dofs):
    """Positions of the skeleton dofs and of the interior dofs within the
    sorted free positions of the patch dofs (incidence reference)."""
    dofs = ws.free_index[reference_patch_dofs(ws.coarse, ws.fine, patch)]
    on_skeleton = np.isin(dofs, skeleton_dofs)
    pos = np.searchsorted(dofs, skeleton_dofs)
    assert np.array_equal(dofs[pos], skeleton_dofs)
    return pos, np.flatnonzero(~on_skeleton)


@pytest.mark.parametrize("domain", [mm.unit_square, mm.l_shape, mm.u_shape])
def test_patch_matrices_match_scipy_slices(monkeypatch, domain):
    # the skeleton matrix Sc that a patch solve factors is the Schur
    # complement, onto the skeleton, of SciPy's two-step slice Spp
    chain = mesh_chain(3, domain)
    coarse, fine = chain[1], chain[3]
    kappa = asm.kappa_random_grid(2 ** -3, 0.05, 1.0, seed=31)
    ws = lod._Workspace(fine, coarse, kappa)
    seen = []

    def capture_factor(Sc, **kwargs):
        seen.append(Sc.copy())  # dpotrf overwrites it
        return dpotrf(Sc, **kwargs)

    monkeypatch.setattr(lod, "dpotrf", capture_factor)
    for K in np.unique(np.linspace(0, coarse.n_triangles - 1, 7).astype(int)):
        for k in (1, 2, 3):
            patch = lod.patch_elements(coarse, K, k)
            seen.clear()
            [s] = lod._skeleton_solve(ws, [K], patch)
            [Sc] = seen
            _, Spp, _, _ = ancestor_rule_problem(ws, kappa, K, patch)
            S, I = skeleton_split(ws, patch, s.dofs)
            A = Spp.toarray()
            ref = A[np.ix_(S, S)] - A[np.ix_(S, I)] @ np.linalg.solve(
                A[np.ix_(I, I)], A[np.ix_(I, S)])
            assert Sc.shape == ref.shape
            assert (np.abs(Sc - ref).max()
                    <= 1e-12 * np.abs(ref).max())


@pytest.mark.parametrize("domain", [mm.unit_square, mm.l_shape, mm.u_shape])
def test_skeleton_and_interiors_partition_patch_dofs(domain):
    # every patch dof lies either on the skeleton or strictly inside one
    # patch element, never both
    chain = mesh_chain(3, domain)
    coarse, fine = chain[1], chain[3]
    ws = lod._Workspace(fine, coarse, asm.kappa_constant(1.0))
    cd = ws.condensation
    assert cd.n_interior == 3
    for K in np.unique(np.linspace(0, coarse.n_triangles - 1, 7).astype(int)):
        for k in (1, 2, 3):
            patch = lod.patch_elements(coarse, K, k)
            [s] = lod._skeleton_solve(ws, [K], patch)
            interior = ws.free_index[cd.V[patch, :cd.n_interior]].ravel()
            both = np.concatenate([s.dofs, interior])
            assert np.unique(both).size == both.size
            assert np.array_equal(
                np.sort(both),
                ws.free_index[reference_patch_dofs(coarse, fine, patch)])


@pytest.mark.parametrize("domain", [mm.unit_square, mm.l_shape, mm.u_shape])
def test_condensation_matches_dense_schur_complements(domain):
    # S_skel, C_skel, rt, D and g against each element's Schur complement,
    # formed densely from the element's own triangles; the coefficient
    # varies inside every element, so no interior right-hand side is zero
    chain = mesh_chain(3, domain)
    coarse, fine = chain[1], chain[3]
    kappa = asm.kappa_random_grid(2 ** -5, 0.05, 1.0, seed=31)
    ws = lod._Workspace(fine, coarse, kappa)
    cd = ws.condensation
    nI = cd.n_interior
    assert nI > 0
    P = mm.prolongation(coarse, fine, all_nodes=True)
    I_free = ws.I_free.toarray()
    S_skel = np.zeros((fine.n_free,) * 2)
    C_skel = I_free.copy()
    C_skel[:, ws.free_index[cd.V[:, :nI]].ravel()] = 0.0
    rt, D, g = [], [], []
    for K in range(coarse.n_triangles):
        T = fine.triangles[mm.descendant_triangles(coarse, fine, K)]
        E = asm._accumulate(T, fine.n_vertices,
                            asm._element_stiffness(fine, kappa, T))
        E = E.toarray()[np.ix_(cd.V[K], cd.V[K])]
        r = E @ P[cd.V[K]][:, coarse.triangles[K]].toarray()
        corners = ws.coarse_free_index[coarse.triangles[K]]
        free = corners >= 0
        Ic = np.zeros((3, nI))
        Ic[free] = I_free[corners[free]][:, ws.free_index[cd.V[K, :nI]]]
        X = np.linalg.solve(E[:nI, :nI],
                            np.hstack([E[:nI, nI:], Ic.T, r[:nI]]))
        Y = E[nI:, :nI] @ X
        nB = Y.shape[0]
        bf = ws.free_index[cd.V[K, nI:]]
        on = bf >= 0
        S_skel[np.ix_(bf[on], bf[on])] += (E[nI:, nI:]
                                           - Y[:, :nB])[np.ix_(on, on)]
        C_skel[np.ix_(corners[free], bf[on])] -= \
            Y[:, nB:nB + 3][np.ix_(on, free)].T
        rt.append(r[nI:] - Y[:, nB + 3:])
        D.append(Ic @ X[:, nB:nB + 3])
        g.append(Ic @ X[:, nB + 3:])
    for got, want in ((cd.S_skel.toarray(), S_skel),
                      (cd.C_skel.toarray(), C_skel),
                      (cd.rt, np.array(rt)), (cd.D, np.array(D)),
                      (cd.g, np.array(g))):
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_one_refinement_condenses_nothing(monkeypatch):
    # with one refinement between the meshes no fine vertex lies strictly
    # inside a coarse element: only the patch skeletons are factored, and
    # the columns still match the whole saddle system's LU
    chain = mesh_chain(3)
    coarse, fine = chain[2], chain[3]
    kappa = asm.kappa_random_grid(2 ** -3, 0.05, 1.0, seed=31)
    ws = lod._Workspace(fine, coarse, kappa)
    assert ws.condensation.n_interior == 0
    for K in np.unique(np.linspace(0, coarse.n_triangles - 1, 7).astype(int)):
        for k in (1, 2):
            patch = lod.patch_elements(coarse, K, k)
            dofs, cols, _ = patch_columns(ws, K, patch)
            ref_dofs, Spp, Cp, rhs = ancestor_rule_problem(ws, kappa, K,
                                                           patch)
            assert np.array_equal(dofs, ref_dofs)
            expected = saddle_lu_reference(Spp, Cp, rhs)
            assert (np.abs(cols - expected).max()
                    <= 1e-12 * np.abs(expected).max())
    calls = []
    monkeypatch.setattr(lod, "dpotrf", counted(calls, "dpotrf", dpotrf))
    basis = lod.build_lod_basis(fine, coarse, kappa, 1,
                                make_system(fine, kappa))
    assert len(calls) == basis.stats["patch_factorizations"] > 0


def test_neumann_vertices_are_skeleton_dofs():
    # on the U-shape the Neumann boundary runs along coarse edges: its
    # vertices are skeleton dofs, and the columns there match the whole
    # saddle system's LU
    chain = mesh_chain(3, mm.u_shape)
    coarse, fine = chain[1], chain[3]
    kappa = asm.kappa_random_grid(2 ** -3, 0.05, 1.0, seed=31)
    ws = lod._Workspace(fine, coarse, kappa)
    cd = ws.condensation
    neumann = np.flatnonzero(fine.node_flags == mm.NEUMANN)
    assert neumann.size and not np.isin(neumann, cd.V[:, :cd.n_interior]).any()
    checked = 0
    for K in range(coarse.n_triangles):
        patch = lod.patch_elements(coarse, K, 1)
        skeletons = lod._skeleton_solve(ws, [K], patch)
        if not skeletons or not np.isin(fine.free_nodes[skeletons[0].dofs],
                                        neumann).any():
            continue
        _, cols, _ = patch_columns(ws, K, patch)
        _, Spp, Cp, rhs = ancestor_rule_problem(ws, kappa, K, patch)
        expected = saddle_lu_reference(Spp, Cp, rhs)
        assert (np.abs(cols - expected).max()
                <= 1e-12 * np.abs(expected).max())
        checked += 1
    assert checked > 0


def test_condensation_rejects_mixed_topology(small):
    # the elements' shared local numbering is checked: a fine mesh whose
    # children of one element are listed in another order is refused
    coarse, fine = small["coarse"], small["fine"]
    n_sub = fine.n_triangles // coarse.n_triangles
    triangles = fine.triangles.copy()
    triangles[n_sub:2 * n_sub] = triangles[n_sub:2 * n_sub][::-1]
    shuffled = mm.TriMesh(fine.domain, fine.vertices, triangles,
                          fine.node_flags, level=fine.level,
                          parent=fine.parent, edge_parents=fine.edge_parents)
    ws = lod._Workspace(shuffled, coarse, small["kappa"])
    with pytest.raises(ValueError, match="topology"):
        ws.condensation


def test_gather_keeps_unsorted_rows():
    # a row-and-column gather of a CSR matrix whose rows are stored out of
    # column order equals the two-step slice, entry order included, and
    # so does its dense form
    rng = np.random.default_rng(3)
    A = sp.random(30, 40, density=0.3, random_state=rng, format="csr")
    for r in range(A.shape[0]):
        lo, hi = A.indptr[r], A.indptr[r + 1]
        perm = lo + rng.permutation(hi - lo)
        A.indices[lo:hi], A.data[lo:hi] = A.indices[perm], A.data[perm]
    A.has_sorted_indices = False
    rows = np.array([3, 0, 17, 29, 5])
    cols = np.array([1, 4, 9, 10, 22, 38, 39])
    col_pos = np.full(A.shape[1], -1)
    col_pos[cols] = np.arange(cols.size)
    data, indices, indptr = lod._gather(A, rows, col_pos)
    ref = A[rows][:, cols]
    assert np.array_equal(indptr, ref.indptr)
    assert np.array_equal(indices, ref.indices)
    assert np.array_equal(data, ref.data)
    dense = lod._gather_dense(A, rows, col_pos, cols.size)
    assert dense.flags.f_contiguous
    assert np.array_equal(dense, ref.toarray())


@pytest.mark.parametrize("domain", [mm.unit_square, mm.l_shape, mm.u_shape])
def test_schur_solve_matches_saddle_lu(domain):
    chain = mesh_chain(3, domain)
    coarse, fine = chain[1], chain[3]
    kappa = asm.kappa_random_grid(2 ** -3, 0.05, 1.0, seed=31)
    ws = lod._Workspace(fine, coarse, kappa)
    for K in np.unique(np.linspace(0, coarse.n_triangles - 1, 7).astype(int)):
        for k in (1, 2, 3):
            patch = lod.patch_elements(coarse, K, k)
            _, cols, _ = patch_columns(ws, K, patch)
            _, Spp, Cp, rhs = ancestor_rule_problem(ws, kappa, K, patch)
            expected = saddle_lu_reference(Spp, Cp, rhs)
            assert cols.shape == expected.shape
            assert (np.abs(cols - expected).max()
                    <= 1e-12 * np.abs(expected).max())


def test_rank_deficient_constraints_name_the_element(small):
    # a zero quasi-interpolation row makes the Schur complement singular
    coarse, fine = small["coarse"], small["fine"]
    ws = lod._Workspace(fine, coarse, small["kappa"])
    K = 7
    _, hat_free = ws.free_hats(K)
    keep = np.ones(coarse.n_free)
    keep[hat_free[0]] = 0.0
    ws.I_free = (sp.diags(keep) @ ws.I_free).tocsr()
    with pytest.raises(np.linalg.LinAlgError, match=f"element {K}:"):
        lod._skeleton_solve(ws, [K], lod.patch_elements(coarse, K, 1))


def test_position_map_reset_after_skeleton_solve(monkeypatch, small):
    coarse, fine = small["coarse"], small["fine"]
    ws = lod._Workspace(fine, coarse, small["kappa"])
    K = 7
    patch = lod.patch_elements(coarse, K, 1)
    assert lod._skeleton_solve(ws, [K], patch)
    assert (ws.dof_pos == -1).all()

    def singular(S, **kwargs):
        raise RuntimeError("Factor is exactly singular")

    def not_positive_definite(S, **kwargs):
        return S, 1

    monkeypatch.setattr(lod, "splu", singular)
    monkeypatch.setattr(lod, "dpotrf", not_positive_definite)
    for gate in (0, lod._DENSE_SKELETON_MAX):  # sparse, then dense
        monkeypatch.setattr(lod, "_DENSE_SKELETON_MAX", gate)
        with pytest.raises(np.linalg.LinAlgError, match=f"element {K}:"):
            lod._skeleton_solve(ws, [K], patch)
        assert (ws.dof_pos == -1).all()


def test_indefinite_dense_skeleton_names_the_element(small):
    # LAPACK's Cholesky refuses a skeleton matrix that is not positive
    # definite, and the position map is reset
    coarse, fine = small["coarse"], small["fine"]
    ws = lod._Workspace(fine, coarse, small["kappa"])
    ws.condensation.S_skel = -ws.condensation.S_skel
    K = 7
    patch = lod.patch_elements(coarse, K, 1)
    with pytest.raises(np.linalg.LinAlgError,
                       match=f"element {K}: .*not positive definite"):
        lod._skeleton_solve(ws, [K], patch)
    assert (ws.dof_pos == -1).all()


def test_gate_sends_larger_skeletons_to_superlu(monkeypatch, small):
    # a skeleton of more than _DENSE_SKELETON_MAX dofs is factored by
    # lod.splu, one of at most that many by lod.dpotrf
    coarse, fine = small["coarse"], small["fine"]
    ws = lod._Workspace(fine, coarse, small["kappa"])
    K = 7
    patch = lod.patch_elements(coarse, K, 1)
    [s] = lod._skeleton_solve(ws, [K], patch)
    calls = []
    monkeypatch.setattr(lod, "splu", counted(calls, "splu", splu))
    monkeypatch.setattr(lod, "dpotrf", counted(calls, "dpotrf", dpotrf))
    for gate, factor in ((s.dofs.size - 1, "splu"), (s.dofs.size, "dpotrf")):
        monkeypatch.setattr(lod, "_DENSE_SKELETON_MAX", gate)
        calls.clear()
        lod._skeleton_solve(ws, [K], patch)
        assert calls == [factor]


@pytest.mark.parametrize("domain", [mm.unit_square, mm.l_shape, mm.u_shape])
@pytest.mark.parametrize("level", [1, 2])
def test_dense_and_sparse_skeletons_give_one_basis(monkeypatch, domain, level):
    # every skeleton factored sparse, then every one dense: the same basis
    # to roundoff, with a condensation (level 1) and without (level 2)
    chain = mesh_chain(3, domain)
    coarse, fine = chain[level], chain[3]
    kappa = asm.kappa_random_grid(2 ** -3, 0.05, 1.0, seed=31)
    system = make_system(fine, kappa)
    bases = []
    for gate in (0, fine.n_free):
        monkeypatch.setattr(lod, "_DENSE_SKELETON_MAX", gate)
        bases.append(lod.build_lod_basis(fine, coarse, kappa, 2, system))
    sparse, dense = bases
    for a, b in ((sparse.Rh, dense.Rh), (sparse.S_ms, dense.S_ms)):
        assert abs(a - b).max() <= 1e-12 * abs(a).max()
    n = sparse.stats["patch_factorizations"]
    assert n == dense.stats["patch_factorizations"] > 0
    assert (sparse.stats["patch_factorizations_sparse"]
            == dense.stats["patch_factorizations_dense"] == n)
    assert (sparse.stats["patch_factorizations_dense"]
            == dense.stats["patch_factorizations_sparse"] == 0)


def test_stats_count_dense_and_sparse_factorizations(monkeypatch, small):
    # with the gate between the smallest and the largest skeleton, the
    # build reports how many patch factorizations went either way
    coarse, fine, kappa = small["coarse"], small["fine"], small["kappa"]
    ws = lod._Workspace(fine, coarse, kappa)
    sizes = {}
    for K in range(coarse.n_triangles):
        patch = lod.patch_elements(coarse, K, 1)
        skeletons = lod._skeleton_solve(ws, [K], patch)
        if skeletons:
            sizes[patch.tobytes()] = skeletons[0].dofs.size
    sizes = np.array(list(sizes.values()))
    gate = int(np.median(sizes))
    assert sizes.min() <= gate < sizes.max()
    monkeypatch.setattr(lod, "_DENSE_SKELETON_MAX", gate)
    stats = lod.build_lod_basis(fine, coarse, kappa, 1, small["system"]).stats
    assert stats["patch_factorizations"] == sizes.size
    assert stats["patch_factorizations_dense"] == (sizes <= gate).sum()
    assert stats["patch_factorizations_sparse"] == (sizes > gate).sum()
    assert stats["skeleton_dofs_max"] == sizes.max()


# -- correctors ----------------------------------------------------------

def test_corrector_columns_local_and_in_kernel(small):
    coarse, fine = small["coarse"], small["fine"]
    I_free = lod.clement_interpolation(fine, coarse)
    ws = lod._Workspace(fine, coarse, small["kappa"])
    patch = lod.patch_elements(coarse, 3, 1)
    dof_free, cols, hat_free = patch_columns(ws, 3, patch)
    assert hat_free.size > 0
    assert cols.shape == (dof_free.size, hat_free.size)
    # support stays inside the patch
    allowed = set(ws.free_index[reference_patch_dofs(coarse, fine, patch)])
    assert set(dof_free) <= allowed
    # corrector lies in the kernel of the quasi interpolation
    assert np.abs(I_free[:, dof_free] @ cols).max() <= 1e-10


def test_corrector_energy_bound(small):
    coarse, fine = small["coarse"], small["fine"]
    kappa, system = small["kappa"], small["system"]
    ws = lod._Workspace(fine, coarse, kappa)
    K = 7
    patch = lod.patch_elements(coarse, K, 2)
    dof_free, cols, _ = patch_columns(ws, K, patch)
    hat_verts = coarse.triangles[K][ws.coarse_free_index[coarse.triangles[K]] >= 0]
    T = fine.triangles[mm.descendant_triangles(coarse, fine, K)]
    SK = asm._accumulate(T, fine.n_vertices,
                         asm._element_stiffness(fine, kappa, T))
    P_full = mm.prolongation(coarse, fine, all_nodes=True)
    for j, z in enumerate(hat_verts):
        phi = P_full[:, z].toarray().ravel()
        local_energy = phi @ (SK @ phi)
        q = np.zeros(fine.n_free)
        q[dof_free] = cols[:, j]
        assert q @ (system.S @ q) <= local_energy * (1 + 1e-12)


def test_corrector_zero_rhs_gives_zero(small):
    # the constrained solve is linear: a zero right-hand side gives exactly
    # zero columns
    coarse, fine = small["coarse"], small["fine"]
    ws = lod._Workspace(fine, coarse, small["kappa"])
    K = 4
    patch = lod.patch_elements(coarse, K, 1)
    _, Spp, Cp, rhs = ancestor_rule_problem(ws, small["kappa"], K, patch)
    cols = lod._constrained_solve(asm.factor_spd(Spp, splu=splu), Cp,
                                  np.zeros_like(rhs))
    assert cols.shape == rhs.shape
    assert np.abs(cols).max() == 0.0


# -- basis build ----------------------------------------------------------

def test_lod_basis_shapes_and_spd(small):
    coarse, fine = small["coarse"], small["fine"]
    basis = lod.build_lod_basis(fine, coarse, small["kappa"], k=2,
                                system=small["system"])
    nH = coarse.n_free
    assert basis.Rh.shape == (fine.n_free, nH)
    assert basis.n_coarse == nH
    for A in (basis.ms.M, basis.ms.S):
        assert A.shape == (nH, nH)
        assert abs(A - A.T).max() <= 1e-13 * abs(A).max()
        assert np.linalg.eigvalsh(A.toarray()).min() > 0
    assert basis.ms.B.shape == (nH, 3)
    assert basis.ms.C.shape == (1, nH)


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


def test_decay_profile_rejects_element_without_free_hat(small):
    # an element whose corners all lie on the Dirichlet boundary has no
    # corrector: its skeleton solve returns nothing and its profile is
    # refused
    coarse, fine, kappa = small["coarse"], small["fine"], small["kappa"]
    ws = lod._Workspace(fine, coarse, kappa)
    bare = [K for K in range(coarse.n_triangles)
            if ws.free_hats(K)[1].size == 0]
    assert bare
    K = bare[0]
    assert lod._skeleton_solve(ws, [K], lod.patch_elements(coarse, K, 1)) == []
    with pytest.raises(ValueError, match=f"element {K} carries no free"):
        lod.corrector_decay_profile(fine, coarse, kappa, K, k_max=2)


def per_element_basis(fine, coarse, kappa, k, system):
    """Rh built one element at a time: each element's skeleton solve
    factors its own patch skeleton; the interiors are recovered as in a
    build."""
    ws = lod._Workspace(fine, coarse, kappa)
    solved = [s for K in range(coarse.n_triangles)
              for s in lod._skeleton_solve(ws, [K],
                                           lod.patch_elements(coarse, K, k))]
    return (ws.P_free - lod._corrector_matrix(ws, solved)).tocsr()


def interior_chunks(n_interior, n_elements, budget=None):
    """Number of interior factorizations of a build: chunks of at most
    ``budget`` (default `_INTERIOR_CHUNK`) dofs, at least one element."""
    if n_interior == 0:
        return 0
    budget = lod._INTERIOR_CHUNK if budget is None else budget
    per_chunk = max(1, budget // n_interior)
    return -(-n_elements // per_chunk)


@pytest.mark.parametrize("level, n_patches", [(0, 2), (1, 22), (2, 126)])
def test_grouped_build_factors_each_patch_once(monkeypatch, level, n_patches):
    # elements with the same patch share one factorization of its
    # skeleton; the element interiors are factored once, in block-diagonal
    # chunks of at most _INTERIOR_CHUNK dofs, by the condensation alone,
    # and with one refinement not at all; the basis equals the
    # per-element build bit for bit
    chain = mesh_chain(3)
    coarse, fine = chain[level], chain[3]
    kappa = asm.kappa_random_grid(2 ** -3, 0.05, 1.0, seed=31)
    system = make_system(fine, kappa)
    k = lod.default_patch_radius(coarse)
    ws = lod._Workspace(fine, coarse, kappa)
    distinct = {lod.patch_elements(coarse, K, k).tobytes()
                for K in range(coarse.n_triangles) if ws.free_hats(K)[0].size}
    assert len(distinct) == n_patches

    calls = []
    with monkeypatch.context() as m:
        m.setattr(lod, "splu", counted(calls, "splu", splu))
        m.setattr(lod, "dpotrf", counted(calls, "dpotrf", dpotrf))
        basis = lod.build_lod_basis(fine, coarse, kappa, k, system)
    # every skeleton of the level-3 fine mesh is below the gate
    assert calls.count("splu") == interior_chunks(ws.condensation.n_interior,
                                                  coarse.n_triangles)
    assert calls.count("dpotrf") == n_patches
    assert basis.stats["patch_factorizations"] == n_patches
    assert basis.stats["n_elements"] == coarse.n_triangles

    expected = per_element_basis(fine, coarse, kappa, k, system)
    assert np.array_equal(basis.Rh.indptr, expected.indptr)
    assert np.array_equal(basis.Rh.indices, expected.indices)
    assert np.array_equal(basis.Rh.data, expected.data)


@pytest.mark.parametrize("level", [0, 1])
@pytest.mark.parametrize("budget", [10, None])
def test_interior_factors_are_chunks_solved_once(monkeypatch, level, budget):
    # every interior factor holds at most max(budget, n_I) rows, and the
    # condensation solves all n_B + 6 columns of it in one call; the
    # recovery solves nothing, and the chunking leaves the basis unchanged
    chain = mesh_chain(3)
    coarse, fine = chain[level], chain[3]
    kappa = asm.kappa_random_grid(2 ** -3, 0.05, 1.0, seed=31)
    system = make_system(fine, kappa)
    k = lod.default_patch_radius(coarse)
    cd = lod._Workspace(fine, coarse, kappa).condensation
    nI, nB = cd.n_interior, cd.V.shape[1] - cd.n_interior
    assert nI > 0
    expected = lod.build_lod_basis(fine, coarse, kappa, k, system).Rh
    factors, recovering = [], []

    class Counted:
        def __init__(self, lu, n):
            self.lu, self.widths = lu, []
            factors.append((n, self.widths))

        def solve(self, rhs, *args, **kwargs):
            assert not recovering
            self.widths.append(rhs.shape[1])
            return self.lu.solve(rhs, *args, **kwargs)

    corrector_matrix = lod._corrector_matrix

    def recovery(*args):
        recovering.append(True)
        try:
            return corrector_matrix(*args)
        finally:
            recovering.pop()

    if budget is not None:
        monkeypatch.setattr(lod, "_INTERIOR_CHUNK", budget)
    monkeypatch.setattr(lod, "_corrector_matrix", recovery)
    monkeypatch.setattr(lod, "splu",
                        lambda A, *a, **kw: Counted(splu(A, *a, **kw),
                                                    A.shape[0]))
    Rh = lod.build_lod_basis(fine, coarse, kappa, k, system).Rh
    # every skeleton of the level-3 fine mesh is below the gate, so every
    # SuperLU factor is an interior chunk
    assert len(factors) == interior_chunks(nI, coarse.n_triangles, budget)
    limit = max(lod._INTERIOR_CHUNK if budget is None else budget, nI)
    assert sum(n for n, _ in factors) == nI * coarse.n_triangles
    for n, widths in factors:
        assert n <= limit
        assert widths == [nB + 6]
    assert abs(Rh - expected).max() <= 1e-13 * abs(expected).max()


@pytest.mark.parametrize("domain", [mm.unit_square, mm.l_shape])
def test_recovered_interiors_match_dense_elimination(domain):
    # the interior rows of Q equal E_II^-1 (-E_IB x_B - Ic^T lam + r_I),
    # formed per element and hat with dense NumPy from the same skeleton
    # solves: x_B summed from their values, lam from their multipliers at
    # the element's corners, r_I where the element itself was solved
    chain = mesh_chain(3, domain)
    coarse, fine = chain[1], chain[3]
    kappa = asm.kappa_random_grid(2 ** -5, 0.05, 1.0, seed=31)
    ws = lod._Workspace(fine, coarse, kappa)
    cd = ws.condensation
    nI, n_c = cd.n_interior, coarse.n_free
    solved = [s for K in range(coarse.n_triangles)
              for s in lod._skeleton_solve(ws, [K],
                                           lod.patch_elements(coarse, K, 2))]
    Q = lod._corrector_matrix(ws, solved).toarray()
    x = np.zeros((fine.n_free, n_c))
    lam = {}
    for s in solved:
        x[np.ix_(s.dofs, s.hats)] += s.x
        for key, w in zip(s.keys, s.weights):
            lam[key] = lam.get(key, 0.0) + w[:3]
    P = mm.prolongation(coarse, fine, all_nodes=True)
    I_free = ws.I_free.toarray()
    own = {s.K for s in solved}
    checked = 0
    for e in range(coarse.n_triangles):
        T = fine.triangles[mm.descendant_triangles(coarse, fine, e)]
        E = asm._accumulate(T, fine.n_vertices,
                            asm._element_stiffness(fine, kappa, T))
        E = E.toarray()[np.ix_(cd.V[e], cd.V[e])]
        r = E @ P[cd.V[e]][:, coarse.triangles[e]].toarray()
        corners = ws.coarse_free_index[coarse.triangles[e]]
        interior = ws.free_index[cd.V[e, :nI]]
        edge = ws.free_index[cd.V[e, nI:]]
        Ic = np.zeros((3, nI))
        Ic[corners >= 0] = I_free[corners[corners >= 0]][:, interior]
        x_B = np.where(edge[:, None] >= 0, x[edge], 0.0)
        for z in range(n_c):
            rhs = (-E[:nI, nI:] @ x_B[:, z]
                   - Ic.T @ lam.get(e * n_c + z, np.zeros(3)))
            if e in own and z in corners:
                rhs += r[:nI, list(corners).index(z)]
            want = np.linalg.solve(E[:nI, :nI], rhs)
            got = Q[interior, z]
            assert (np.abs(got - want).max()
                    <= 1e-12 * max(np.abs(want).max(), 1e-300))
            checked += np.abs(want).max() > 0
    assert checked > coarse.n_triangles


def test_one_refinement_keeps_no_multipliers(small):
    # with no element interiors the skeleton records carry no recovery
    # weights, and no record keeps its patch's multipliers
    chain = mesh_chain(3)
    coarse, fine = chain[2], chain[3]
    ws = lod._Workspace(fine, coarse, small["kappa"])
    assert ws.condensation.n_interior == 0
    assert not {"patch", "c_free", "lam"} & set(lod._Skeleton._fields)
    solved = [s for K in range(coarse.n_triangles)
              for s in lod._skeleton_solve(ws, [K],
                                           lod.patch_elements(coarse, K, 2))]
    assert solved
    assert all(s.keys is None and s.weights is None for s in solved)


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


def test_system_of_another_mesh_is_refused_before_any_work(monkeypatch,
                                                          small):
    coarse, fine, kappa = small["coarse"], small["fine"], small["kappa"]
    other = make_system(mesh_chain(2)[2], kappa)

    def no_workspace(*args):
        raise AssertionError("workspace built for a mismatched system")

    monkeypatch.setattr(lod, "_Workspace", no_workspace)
    msg = f"{other.n} unknowns, but the fine mesh has {fine.n_free} free"
    with pytest.raises(ValueError, match=msg):
        lod.build_lod_basis(fine, coarse, kappa, 1, other)
    with pytest.raises(ValueError, match=msg):
        lod.global_corrector_basis(fine, coarse, kappa, other)


def test_default_patch_radius():
    chain = mesh_chain(3)
    assert lod.default_patch_radius(chain[0]) == 1
    assert lod.default_patch_radius(chain[3]) == 4


def test_weights_carry_over_to_every_basis(small):
    coarse, fine, kappa = small["coarse"], small["fine"], small["kappa"]
    s = small["system"]
    R = 3.0 * np.eye(s.m)
    system = asm.LqrSystem(M=s.M, S=s.S, B=s.B, C=s.C, Q=2.0, R=R)
    for basis in (lod.build_lod_basis(fine, coarse, kappa, 1, system),
                  lod.global_corrector_basis(fine, coarse, kappa, system)):
        assert np.array_equal(basis.system().Q, [[2.0]])
        assert np.array_equal(basis.system().R, R)



def test_system_and_basis_compute_no_dissection_order(monkeypatch):
    # the lod-fine6 path factors nothing in the fine order, so building the
    # fine system and a basis must not pay for the order
    def refuse(mesh):
        raise AssertionError("nested dissection computed")

    monkeypatch.setattr(mm, "nested_dissection", refuse)
    chain = mesh_chain(4)
    kappa = asm.kappa_random_grid(2 ** -3, 0.05, 1.0, seed=31)
    system = bench.build_system(chain[4], kappa, "unit_square")
    basis = lod.build_lod_basis(chain[4], chain[2], kappa, 1, system)
    assert basis.system().order is None
    # the reference solve is the first to need it
    with pytest.raises(AssertionError, match="nested dissection"):
        solve_dre(system, zero_factor(system.n), SolverConfig(n_t=1))
