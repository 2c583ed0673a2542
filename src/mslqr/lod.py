"""Localized orthogonal decomposition: corrected coarse basis and matrices.

The fine-scale space is the kernel of a mass-weighted nodal quasi
interpolation onto the coarse mesh.  For every coarse element a constrained
elliptic problem posed on a k-layer element patch yields corrector columns;
their sum corrects the nodal interpolation basis, and the coarse system
matrices are triple products with the fine ones through the corrected
basis.  Each constrained problem is solved through the small dense Schur
complement of its quasi-interpolation rows, so the only sparse
factorization is of the SPD patch stiffness, shared by all elements
with the same patch.  Element problems are independent and deterministic,
so the basis is reproducible and reusable across solver runs.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from itertools import groupby

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .assembly import (CoefficientField, LqrSystem, _element_stiffness,
                       assemble_mass, assemble_stiffness, restrict_system)
from .mesh import TriMesh, descendant_triangles, prolongation
from .runtime import single_thread_blas


def clement_interpolation(fine: TriMesh, coarse: TriMesh,
                          all_nodes: bool = False,
                          P_full: sp.csr_matrix | None = None
                          ) -> sp.csr_matrix:
    """Mass-weighted nodal averaging onto the coarse space.

    Row z maps a fine coefficient vector v to <v, phi_z^H> / <1, phi_z^H>.
    By default rows run over the free coarse nodes and columns over the
    free fine nodes.  ``P_full`` is the all-nodes prolongation of the mesh
    pair, when the caller already holds it.
    """
    P = (prolongation(coarse, fine, all_nodes=True) if P_full is None
         else P_full)
    Mf = assemble_mass(fine, all_nodes=True)
    W = (P.T @ Mf).tocsr()
    d = np.asarray(W.sum(axis=1)).ravel()
    I = sp.diags(1.0 / d) @ W
    if all_nodes:
        return I.tocsr()
    return I[coarse.free_nodes][:, fine.free_nodes].tocsr()


def patch_elements(coarse: TriMesh, K: int, k: int) -> np.ndarray:
    """Sorted ids (int64) of the k-layer element patch around element K.

    Layer 0 is {K}; each further layer adds every element sharing at least
    a vertex with the current patch.  Saturates at the full mesh.
    """
    if k < 0:
        raise ValueError("patch radius must be nonnegative")
    if not 0 <= K < coarse.n_triangles:
        raise ValueError(f"element id {K} out of range")
    vt = coarse.vertex_triangles
    in_patch = np.zeros(coarse.n_triangles, dtype=bool)
    in_patch[K] = True
    new = np.array([K])
    for _ in range(k):
        # the incidence rows of the last layer's vertices, concatenated
        verts = np.unique(coarse.triangles[new])
        starts = vt.indptr[verts]
        lens = vt.indptr[verts + 1] - starts
        around = vt.indices[np.repeat(starts - np.cumsum(lens) + lens, lens)
                            + np.arange(lens.sum())]
        new = np.unique(around[~in_patch[around]])
        if new.size == 0:
            break
        in_patch[new] = True
    return np.flatnonzero(in_patch)


def default_patch_radius(coarse: TriMesh) -> int:
    """Layers proportional to log(1/H): ceil(log2(1/pitch))."""
    return max(1, int(np.ceil(np.log2(1.0 / coarse.pitch))))


class _Workspace:
    """Shared immutable data for all corrector solves of one mesh pair."""

    def __init__(self, fine, coarse, kappa, system=None):
        self.fine = fine
        self.coarse = coarse
        self.P_full = prolongation(coarse, fine, all_nodes=True)
        self.P_free = self.P_full[fine.free_nodes][:, coarse.free_nodes].tocsr()
        self.I_free = clement_interpolation(fine, coarse, P_full=self.P_full)
        self.S_free = (system.S if system is not None
                       else assemble_stiffness(fine, kappa)).tocsr()
        # per fine triangle t, the 3 x 3 block [t] couples its local hats
        self.element_stiffness = np.ascontiguousarray(
            _element_stiffness(fine, kappa, fine.triangles).transpose(2, 0, 1))
        self.valence = np.bincount(fine.triangles.ravel())  # per vertex
        self.free_index = np.full(fine.n_vertices, -1, dtype=np.int64)
        self.free_index[fine.free_nodes] = np.arange(fine.n_free)
        self.coarse_free_index = np.full(coarse.n_vertices, -1, dtype=np.int64)
        self.coarse_free_index[coarse.free_nodes] = np.arange(coarse.n_free)
        # the entries of P_full sorted by the key row * n_coarse + column
        P = self.P_full
        keys = (np.repeat(np.arange(P.shape[0]), np.diff(P.indptr))
                * coarse.n_vertices + P.indices)
        order = np.argsort(keys)
        self._P_keys, self._P_vals = keys[order], P.data[order]

    def free_hats(self, K):
        zf = self.coarse_free_index[self.coarse.triangles[K]]
        return self.coarse.triangles[K][zf >= 0], zf[zf >= 0]

    def prolongation_values(self, verts, hat_verts):
        """P_full[v, z] for every fine vertex v in ``verts`` (any shape)
        and coarse vertex z in ``hat_verts``, as a dense array of shape
        verts.shape + hat_verts.shape."""
        q = verts[..., None] * self.coarse.n_vertices + hat_verts
        pos = np.minimum(np.searchsorted(self._P_keys, q),
                         self._P_keys.size - 1)
        return np.where(self._P_keys[pos] == q, self._P_vals[pos], 0.0)

    def element_rhs(self, K, hat_verts, local, n_local):
        """int_K kappa grad(phi_z).grad(phi_i) for the coarse hats z of
        ``hat_verts`` (columns) and the fine vertices i (rows, numbered by
        the map ``local`` onto 0 .. n_local - 1), summed triangle by
        triangle in the order of K's descendants."""
        tri_ids = descendant_triangles(self.coarse, self.fine, K)
        T = self.fine.triangles[tri_ids]
        per_vertex = np.einsum("tab,tbh->tah", self.element_stiffness[tri_ids],
                               self.prolongation_values(T, hat_verts))
        nh = hat_verts.size
        rows = local[T][:, :, None] * nh + np.arange(nh)
        return np.bincount(rows.ravel(), per_vertex.ravel(),
                           minlength=n_local * nh).reshape(n_local, nh)


def _gather(A: sp.csr_matrix, rows: np.ndarray, col_pos: np.ndarray):
    """(data, indices, indptr) of the rows ``rows`` of the CSR matrix A,
    keeping the columns that ``col_pos`` maps to positions >= 0 (-1 drops
    a column) and numbering them by those positions, in one step.

    Entries keep A's order within each row, sorted or not.  Read as CSR
    the arrays are the submatrix; read as CSC, its transpose.
    """
    starts = A.indptr[rows]
    lens = A.indptr[rows + 1] - starts
    ends = np.cumsum(lens)
    idx = np.repeat(starts - ends + lens, lens) + np.arange(lens.sum())
    pos = col_pos[A.indices[idx]]
    keep = pos >= 0
    kept = np.concatenate([[0], np.cumsum(keep)])
    return A.data[idx[keep]], pos[keep], kept[np.concatenate([[0], ends])]


def _factor_spd(S):
    """Sparse LU of an SPD matrix: symmetric minimum-degree ordering,
    diagonal pivots.  Raises RuntimeError when S is singular."""
    return splu(S.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                options=dict(SymmetricMode=True))


def _constrained_solve(lu, C, rhs: np.ndarray) -> np.ndarray:
    """x of the saddle system [[S, C^T], [C, 0]] [x; lam] = [rhs; 0].

    S is sparse SPD, given by its factorization ``lu`` (`_factor_spd`), and
    C has few rows, so the constraints are eliminated through their dense
    Schur complement Sigma = C S^-1 C^T: one solve with the right-hand
    sides and C^T together, and a Cholesky solve with Sigma for the
    multipliers.  Raises LinAlgError when Sigma is not positive definite
    (C rank deficient).
    """
    m = rhs.shape[1]
    X = lu.solve(np.hstack([rhs, C.T.toarray()]))
    CX = C @ X
    lam = sla.solve(CX[:, m:], CX[:, :m], assume_a="pos")
    return X[:, :m] - X[:, m:] @ lam


def _solve_patch(ws: _Workspace, elements, patch: np.ndarray) -> list:
    """Corrector columns of the elements that share one patch.

    Returns one (free positions of the patch dofs, dense corrector columns,
    free ids of the coarse hats of K) per element K, in the given order;
    empty results for an element with no free coarse hat.  The dofs are
    the free patch vertices whose fine triangles all lie in the patch, so
    the patch stiffness Spp is SPD; it is factored once for all the
    elements.  Spp and Cp are gathered straight from the CSR arrays of
    S_free and I_free, and each element's right-hand side int_K kappa
    grad(phi_z).grad(phi_i) is summed over the patch vertices by
    `_Workspace.element_rhs`, so the sparse work per patch is one
    factorization and one solve per element.  The columns minimize the
    energy subject to the quasi-interpolation rows Cp of the patch's free
    coarse nodes, solved by `_constrained_solve`; a singular Spp or a
    rank-deficient Cp raises LinAlgError naming the element.
    """
    hats = [ws.free_hats(K) for K in elements]
    out = [(np.empty(0, np.int64), np.zeros((0, 0)), hat_free)
           for _, hat_free in hats]
    with_hats = [i for i, (hat_verts, _) in enumerate(hats) if hat_verts.size]
    if not with_hats:
        return out
    fine = ws.fine
    K = elements[with_hats[0]]
    tri_ids = descendant_triangles(ws.coarse, fine, patch)
    counts = np.bincount(fine.triangles[tri_ids].ravel(),
                         minlength=fine.n_vertices)
    verts = np.flatnonzero(counts)
    inside = ((counts[verts] == ws.valence[verts])
              & (ws.free_index[verts] >= 0))
    if not inside.any():
        raise np.linalg.LinAlgError(
            f"element {K}: patch has no interior fine nodes")
    dof_free = ws.free_index[verts[inside]]
    local = np.empty(fine.n_vertices, dtype=np.int64)
    local[verts] = np.arange(verts.size)
    dof_pos = np.full(fine.n_free, -1, dtype=np.int64)
    dof_pos[dof_free] = np.arange(dof_free.size)

    cverts = np.unique(ws.coarse.triangles[patch])
    c_free = ws.coarse_free_index[cverts]
    c_free = c_free[c_free >= 0]
    Cp = sp.csr_matrix(_gather(ws.I_free, c_free, dof_pos),
                       shape=(c_free.size, dof_free.size))
    # S_free is symmetric, so its patch rows read as columns are Spp
    Spp = sp.csc_matrix(_gather(ws.S_free, dof_free, dof_pos),
                        shape=(dof_free.size, dof_free.size))
    try:
        lu = _factor_spd(Spp)
        for i in with_hats:
            K = elements[i]
            hat_verts, hat_free = hats[i]
            rhs_K = ws.element_rhs(K, hat_verts, local, verts.size)[inside]
            out[i] = (dof_free, _constrained_solve(lu, Cp, rhs_K), hat_free)
    except (RuntimeError, np.linalg.LinAlgError) as exc:
        raise np.linalg.LinAlgError(
            f"element {K}: singular local corrector system ({exc})") from exc
    return out


@dataclass
class LodBasis:
    """Corrected coarse basis and the corrected system.

    Rh maps corrected-coarse coefficients to fine coefficients; it has one
    column per free coarse node.  The corrected system is the Galerkin
    restriction of the fine one through Rh (weights Q and R unchanged).
    """

    k: int
    Rh: sp.csr_matrix
    ms: LqrSystem
    stats: dict = field(default_factory=dict)

    @classmethod
    def restrict(cls, k, Rh, system: LqrSystem, stats) -> "LodBasis":
        """Basis Rh together with the restriction of ``system`` through it."""
        return cls(k, Rh, restrict_system(system, Rh), stats)

    n_coarse = property(lambda self: self.Rh.shape[1])
    M_ms = property(lambda self: self.ms.M)
    S_ms = property(lambda self: self.ms.S)
    B_ms = property(lambda self: self.ms.B)
    C_ms = property(lambda self: self.ms.C)

    def system(self) -> LqrSystem:
        """Corrected-space LQR system ready for the Riccati solver."""
        return self.ms


def build_lod_basis(fine: TriMesh, coarse: TriMesh, kappa: CoefficientField,
                    k: int, system: LqrSystem) -> LodBasis:
    """Assemble the corrected basis Rh = prolongation - sum of correctors
    and the corrected matrices, solving one local problem per element.

    Elements whose k-layer patches coincide (every element, once patches
    saturate at the whole mesh) share one factorization of the patch
    stiffness; only one is held at a time.  Results are accumulated in
    element order, so the basis does not depend on the grouping.
    """
    if k < 1:
        raise ValueError("corrector patches need at least one layer")
    with single_thread_blas():
        return _build_lod_basis(fine, coarse, kappa, k, system)


def _build_lod_basis(fine, coarse, kappa, k, system):
    ws = _Workspace(fine, coarse, kappa, system=system)
    patches = [patch_elements(coarse, K, k) for K in range(coarse.n_triangles)]
    keys = [patch.tobytes() for patch in patches]
    results = [None] * coarse.n_triangles
    n_factorizations = 0
    for _, group in groupby(sorted(range(coarse.n_triangles),
                                   key=keys.__getitem__),
                            key=keys.__getitem__):
        group = list(group)
        solved = _solve_patch(ws, group, patches[group[0]])
        n_factorizations += any(hats.size for _, _, hats in solved)
        for K, res in zip(group, solved):
            results[K] = res

    rows, cols, vals = [], [], []
    for dof_free, qcols, hat_free in results:
        for j, zf in enumerate(hat_free):
            rows.append(dof_free)
            cols.append(np.full(dof_free.size, zf))
            vals.append(qcols[:, j])
    if rows:
        Q = sp.coo_matrix((np.concatenate(vals),
                           (np.concatenate(rows), np.concatenate(cols))),
                          shape=(fine.n_free, coarse.n_free)).tocsr()
    else:
        Q = sp.csr_matrix((fine.n_free, coarse.n_free))
    sizes = [patch.size for patch in patches]
    stats = {"n_elements": coarse.n_triangles,
             "patch_factorizations": n_factorizations,
             "patch_elements_min": int(min(sizes)),
             "patch_elements_max": int(max(sizes))}
    return LodBasis.restrict(k, (ws.P_free - Q).tocsr(), system, stats)


def global_corrector_basis(fine: TriMesh, coarse: TriMesh,
                           kappa: CoefficientField,
                           system: LqrSystem) -> LodBasis:
    """Unlocalized construction: one constrained solve over the whole fine
    space with every coarse constraint row.  Reference for testing the
    localized assembly at saturation."""
    ws = _Workspace(fine, coarse, kappa, system=system)
    Q = _constrained_solve(_factor_spd(ws.S_free), ws.I_free,
                           (ws.S_free @ ws.P_free).toarray())
    return LodBasis.restrict(-1, sp.csr_matrix(ws.P_free - Q), system,
                             {"global": True})


def corrector_decay_profile(fine: TriMesh, coarse: TriMesh,
                            kappa: CoefficientField, K: int,
                            k_max: int) -> list[float]:
    """Energy-norm distances between the k-localized and the full-domain
    correctors of element K, for k = 1 .. k_max.

    e_k aggregates the (at most three) hat columns of K; it is
    nonincreasing in k because growing the patch enlarges the Galerkin
    subspace of the same problem.
    """
    if k_max < 2:
        raise ValueError("profile needs k_max >= 2")
    ws = _Workspace(fine, coarse, kappa)
    full_patch = patch_elements(coarse, K, coarse.n_triangles)
    [(dofs_hat, cols_hat, hats)] = _solve_patch(ws, [K], full_patch)
    if hats.size == 0:
        raise ValueError(f"element {K} carries no free coarse hat")
    qhat = np.zeros((fine.n_free, hats.size))
    qhat[dofs_hat] = cols_hat
    energies = []
    for k in range(1, k_max + 1):
        patch = patch_elements(coarse, K, k)
        [(dofs, cols, _)] = _solve_patch(ws, [K], patch)
        qk = np.zeros_like(qhat)
        qk[dofs] = cols
        diff = qhat - qk
        energies.append(float(np.sqrt((diff * (ws.S_free @ diff)).sum())))
    return energies


def _fingerprint(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def basis_fingerprints(fine: TriMesh, coarse: TriMesh,
                       kappa: CoefficientField) -> dict:
    if kappa.kind == "grid":
        kp = _fingerprint(kappa.values, np.array([kappa.epsilon]))
    else:
        kp = _fingerprint(kappa.centers,
                          np.array([kappa.width, kappa.background,
                                    kappa.stripe_value]))
    return {"fine": _fingerprint(fine.vertices, fine.triangles),
            "coarse": _fingerprint(coarse.vertices, coarse.triangles),
            "kappa": kp}


def save_lod_basis(basis: LodBasis, path, fine=None, coarse=None,
                   kappa=None) -> None:
    """Persist Rh, k and input checksums so the pre-solve can be reused."""
    prints = (basis_fingerprints(fine, coarse, kappa)
              if fine is not None else {})
    Rh = basis.Rh.tocsr()
    np.savez_compressed(path, k=basis.k, data=Rh.data, indices=Rh.indices,
                        indptr=Rh.indptr, shape=Rh.shape,
                        fingerprints=repr(prints))


def load_lod_basis(path, system: LqrSystem, fine=None, coarse=None,
                   kappa=None) -> LodBasis:
    """Load a saved basis and rebuild the corrected matrices against the
    given fine system; optionally verifies the stored input checksums."""
    with np.load(path, allow_pickle=False) as z:
        Rh = sp.csr_matrix((z["data"], z["indices"], z["indptr"]),
                           shape=tuple(z["shape"]))
        k = int(z["k"])
        stored = str(z["fingerprints"])
    if fine is not None:
        expected = repr(basis_fingerprints(fine, coarse, kappa))
        if stored != expected:
            raise ValueError("saved basis does not match the given inputs")
    return LodBasis.restrict(k, Rh, system, {"loaded": True})
