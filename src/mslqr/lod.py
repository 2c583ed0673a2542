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

from .assembly import (CoefficientField, LqrSystem, _accumulate,
                       _element_stiffness, assemble_mass, assemble_stiffness,
                       restrict_system)
from .mesh import TriMesh, descendant_triangles, prolongation
from .runtime import single_thread_blas


def clement_interpolation(fine: TriMesh, coarse: TriMesh,
                          all_nodes: bool = False) -> sp.csr_matrix:
    """Mass-weighted nodal averaging onto the coarse space.

    Row z maps a fine coefficient vector v to <v, phi_z^H> / <1, phi_z^H>.
    By default rows run over the free coarse nodes and columns over the
    free fine nodes.
    """
    P = prolongation(coarse, fine, all_nodes=True)
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
        self.I_free = clement_interpolation(fine, coarse)
        self.S_free = (system.S if system is not None
                       else assemble_stiffness(fine, kappa)).tocsr()
        self.element_stiffness = _element_stiffness(fine, kappa,
                                                    fine.triangles)
        self.valence = np.bincount(fine.triangles.ravel())  # per vertex
        self.free_index = np.full(fine.n_vertices, -1, dtype=np.int64)
        self.free_index[fine.free_nodes] = np.arange(fine.n_free)
        self.coarse_free_index = np.full(coarse.n_vertices, -1, dtype=np.int64)
        self.coarse_free_index[coarse.free_nodes] = np.arange(coarse.n_free)

    def free_hats(self, K):
        zf = self.coarse_free_index[self.coarse.triangles[K]]
        return self.coarse.triangles[K][zf >= 0], zf[zf >= 0]


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
    elements.  Each element's right-hand side int_K kappa
    grad(phi_z).grad(phi_i) is assembled over the patch vertices.  The
    columns minimize the energy subject to the quasi-interpolation rows Cp
    of the patch's free coarse nodes, solved by `_constrained_solve`; a
    singular Spp or a rank-deficient Cp raises LinAlgError naming the
    element.
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
    verts, counts = np.unique(fine.triangles[tri_ids], return_counts=True)
    inside = (counts == ws.valence[verts]) & (ws.free_index[verts] >= 0)
    if not inside.any():
        raise np.linalg.LinAlgError(
            f"element {K}: patch has no interior fine nodes")
    dof_free = ws.free_index[verts[inside]]

    cverts = np.unique(ws.coarse.triangles[patch])
    c_free = ws.coarse_free_index[cverts]
    Cp = ws.I_free[c_free[c_free >= 0]][:, dof_free]
    P_verts = ws.P_full[verts]
    try:
        lu = _factor_spd(ws.S_free[dof_free][:, dof_free])
        for i in with_hats:
            K = elements[i]
            hat_verts, hat_free = hats[i]
            K_ids = descendant_triangles(ws.coarse, fine, K)
            SK = _accumulate(np.searchsorted(verts, fine.triangles[K_ids]),
                             verts.size, ws.element_stiffness[:, :, K_ids])
            rhs_K = (SK @ P_verts[:, hat_verts]).toarray()[inside]
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
