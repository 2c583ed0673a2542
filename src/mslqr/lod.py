"""Localized orthogonal decomposition: corrected coarse basis and matrices.

The fine-scale space is the kernel of a mass-weighted nodal quasi
interpolation onto the coarse mesh.  For every coarse element a constrained
elliptic problem posed on a k-layer element patch yields corrector columns;
their sum corrects the nodal interpolation basis, and the coarse system
matrices are triple products with the fine ones through the corrected
basis.  Element problems are independent and deterministic, so the basis
is reproducible and reusable across solver runs.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .assembly import (CoefficientField, LqrSystem, _stiffness_on,
                       assemble_mass, assemble_stiffness, restrict_system)
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


def _element_incidence(mesh: TriMesh) -> sp.csr_matrix:
    """Vertex-to-triangle incidence (n_vertices x n_triangles, 0/1)."""
    nt = mesh.n_triangles
    rows = mesh.triangles.ravel()
    cols = np.repeat(np.arange(nt), 3)
    return sp.csr_matrix((np.ones(3 * nt), (rows, cols)),
                         shape=(mesh.n_vertices, nt))


def patch_elements(coarse: TriMesh, K: int, k: int,
                   incidence: sp.csr_matrix | None = None) -> np.ndarray:
    """Sorted ids of the k-layer element patch around element K.

    Layer 0 is {K}; each further layer adds every element sharing at least
    a vertex with the current patch.  Saturates at the full mesh.
    """
    if k < 0:
        raise ValueError("patch radius must be nonnegative")
    if not 0 <= K < coarse.n_triangles:
        raise ValueError(f"element id {K} out of range")
    inc = incidence if incidence is not None else _element_incidence(coarse)
    mask = np.zeros(coarse.n_triangles, dtype=bool)
    mask[K] = True
    for _ in range(k):
        verts = (inc @ mask) > 0
        grown = (inc.T @ verts) > 0
        if (grown == mask).all():
            break
        mask = grown
    return np.nonzero(mask)[0]


def default_patch_radius(coarse: TriMesh) -> int:
    """Layers proportional to log(1/H): ceil(log2(1/pitch))."""
    return max(1, int(np.ceil(np.log2(1.0 / coarse.pitch))))


class _Workspace:
    """Shared immutable data for all corrector solves of one mesh pair."""

    def __init__(self, fine, coarse, kappa, system=None):
        self.fine = fine
        self.coarse = coarse
        self.kappa = kappa
        self.P_full = prolongation(coarse, fine, all_nodes=True)
        self.P_free = self.P_full[fine.free_nodes][:, coarse.free_nodes].tocsr()
        self.I_free = clement_interpolation(fine, coarse)
        self.S_free = (system.S if system is not None
                       else assemble_stiffness(fine, kappa)).tocsr()
        self.inc_coarse = _element_incidence(coarse)
        self.valence = np.bincount(fine.triangles.ravel())  # per vertex
        self.free_index = np.full(fine.n_vertices, -1, dtype=np.int64)
        self.free_index[fine.free_nodes] = np.arange(fine.n_free)
        self.coarse_free_index = np.full(coarse.n_vertices, -1, dtype=np.int64)
        self.coarse_free_index[coarse.free_nodes] = np.arange(coarse.n_free)

    def free_hats(self, K):
        zf = self.coarse_free_index[self.coarse.triangles[K]]
        return self.coarse.triangles[K][zf >= 0], zf[zf >= 0]

    def patch_dofs(self, patch):
        """Free fine vertices strictly interior to the patch: every fine
        triangle around them lies in the patch."""
        tri_ids = descendant_triangles(self.coarse, self.fine, patch)
        verts, counts = np.unique(self.fine.triangles[tri_ids],
                                  return_counts=True)
        inside = verts[counts == self.valence[verts]]
        return inside[self.free_index[inside] >= 0]

    def element_rhs(self, K, verts):
        """Columns int_K kappa grad(phi_z).grad(phi_i) at fine vertices."""
        tri_ids = descendant_triangles(self.coarse, self.fine, K)
        SK = _stiffness_on(self.fine, self.kappa, tri_ids)
        return (SK @ self.P_full[:, verts]).toarray()


def _solve_patch(ws: _Workspace, K: int, patch: np.ndarray):
    """Corrector columns of element K on a given patch.

    Returns (free positions of the patch dofs, dense corrector columns,
    free ids of the coarse hats of K); empty results when K carries no
    free coarse hat.
    """
    hat_verts, hat_free = ws.free_hats(K)
    if hat_verts.size == 0:
        return np.empty(0, np.int64), np.zeros((0, 0)), hat_free
    dof_verts = ws.patch_dofs(patch)
    if dof_verts.size == 0:
        raise np.linalg.LinAlgError(
            f"element {K}: patch has no interior fine nodes")
    dof_free = ws.free_index[dof_verts]

    cverts = np.unique(ws.coarse.triangles[patch])
    c_free = ws.coarse_free_index[cverts]
    c_free = c_free[c_free >= 0]

    Spp = ws.S_free[dof_free][:, dof_free]
    Cp = ws.I_free[c_free][:, dof_free]
    saddle = sp.bmat([[Spp, Cp.T], [Cp, None]], format="csc")
    try:
        lu = splu(saddle)
    except RuntimeError as exc:
        raise np.linalg.LinAlgError(
            f"element {K}: singular local corrector system") from exc

    rhs_all = ws.element_rhs(K, hat_verts)[dof_verts]
    rhs = np.vstack([rhs_all, np.zeros((c_free.size, hat_verts.size))])
    sol = lu.solve(rhs)
    return dof_free, sol[: dof_free.size], hat_free


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
                    k: int, system: LqrSystem,
                    workers: int = 1) -> LodBasis:
    """Assemble the corrected basis Rh = prolongation - sum of correctors
    and the corrected matrices, solving one local problem per element.

    Element problems are independent; with ``workers > 1`` they run on a
    thread pool.  Results are accumulated in element order either way, so
    the basis is bit-identical for any worker count.
    """
    if k < 1:
        raise ValueError("corrector patches need at least one layer")
    with single_thread_blas():
        return _build_lod_basis(fine, coarse, kappa, k, system, workers)


def _build_lod_basis(fine, coarse, kappa, k, system, workers):
    ws = _Workspace(fine, coarse, kappa, system=system)

    def solve_one(K):
        patch = patch_elements(coarse, K, k, incidence=ws.inc_coarse)
        return patch.size, _solve_patch(ws, K, patch)

    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(solve_one, range(coarse.n_triangles)))
    else:
        results = [solve_one(K) for K in range(coarse.n_triangles)]

    rows, cols, vals = [], [], []
    patch_sizes = []
    for patch_size, (dof_free, qcols, hat_free) in results:
        patch_sizes.append(patch_size)
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
    stats = {"n_elements": coarse.n_triangles,
             "patch_elements_min": int(min(patch_sizes)),
             "patch_elements_max": int(max(patch_sizes))}
    return LodBasis.restrict(k, (ws.P_free - Q).tocsr(), system, stats)


def global_corrector_basis(fine: TriMesh, coarse: TriMesh,
                           kappa: CoefficientField,
                           system: LqrSystem) -> LodBasis:
    """Unlocalized construction: one constrained solve over the whole fine
    space with every coarse constraint row.  Reference for testing the
    localized assembly at saturation."""
    ws = _Workspace(fine, coarse, kappa, system=system)
    n, nH = fine.n_free, coarse.n_free
    saddle = sp.bmat([[ws.S_free, ws.I_free.T], [ws.I_free, None]],
                     format="csc")
    lu = splu(saddle)
    rhs = np.vstack([(ws.S_free @ ws.P_free).toarray(), np.zeros((nH, nH))])
    Q = lu.solve(rhs)[:n]
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
    full_patch = patch_elements(coarse, K, coarse.n_triangles,
                                incidence=ws.inc_coarse)
    dofs_hat, cols_hat, hats = _solve_patch(ws, K, full_patch)
    if hats.size == 0:
        raise ValueError(f"element {K} carries no free coarse hat")
    qhat = np.zeros((fine.n_free, hats.size))
    qhat[dofs_hat] = cols_hat
    energies = []
    for k in range(1, k_max + 1):
        patch = patch_elements(coarse, K, k, incidence=ws.inc_coarse)
        dofs, cols, _ = _solve_patch(ws, K, patch)
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
