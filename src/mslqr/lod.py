"""Localized orthogonal decomposition: corrected coarse basis and matrices.

The fine-scale space is the kernel of a mass-weighted nodal quasi
interpolation onto the coarse mesh.  For every coarse element a constrained
elliptic problem posed on a k-layer element patch yields corrector columns;
their sum corrects the nodal interpolation basis, and the coarse system
matrices are triple products with the fine ones through the corrected
basis.  The fine dofs strictly inside each coarse element are condensed
once per build, so a constrained problem is solved on its patch skeleton
(the patch dofs on coarse edges) through the small dense Schur complement
of its quasi-interpolation rows, and the element interiors are recovered
at the end with one product from the condensation's solved columns.  The
factorizations are sparse ones of the block-diagonal interior matrix, a
chunk of elements at a time, and one per distinct patch skeleton: a dense
Cholesky factor of a small skeleton, a sparse one of a large one.
Element problems are independent and deterministic, so the basis is
reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby
from typing import NamedTuple

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.linalg.lapack import dpotrf, dpotrs
from scipy.sparse.linalg import splu

from .assembly import (CoefficientField, LqrSystem, _element_stiffness,
                       assemble_mass, assemble_stiffness, factor_spd,
                       restrict_system)
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
    """Shared data for all corrector solves of one mesh pair."""

    def __init__(self, fine, coarse, kappa):
        self.fine = fine
        self.coarse = coarse
        self.kappa = kappa
        self.P_full = prolongation(coarse, fine, all_nodes=True)
        self.P_free = self.P_full[fine.free_nodes][:, coarse.free_nodes].tocsr()
        self.I_free = clement_interpolation(fine, coarse, P_full=self.P_full)
        self.valence = np.bincount(fine.triangles.ravel())  # per vertex
        self.free_index = np.full(fine.n_vertices, -1, dtype=np.int64)
        self.free_index[fine.free_nodes] = np.arange(fine.n_free)
        self.coarse_free_index = np.full(coarse.n_vertices, -1, dtype=np.int64)
        self.coarse_free_index[coarse.free_nodes] = np.arange(coarse.n_free)
        # patch position of each free fine dof, -1 outside the patch being
        # solved (`_skeleton_solve` sets and resets its own entries)
        self.dof_pos = np.full(fine.n_free, -1, dtype=np.int64)
        self._condensation = None

    def free_hats(self, K):
        zf = self.coarse_free_index[self.coarse.triangles[K]]
        return self.coarse.triangles[K][zf >= 0], zf[zf >= 0]

    @property
    def condensation(self) -> "_Condensation":
        """The element interiors' condensation, built at first use."""
        if self._condensation is None:
            self._condensation = _Condensation(self)
        return self._condensation


def _entries(A: sp.csr_matrix, rows: np.ndarray, cols: np.ndarray):
    """A[rows, cols] elementwise for broadcast index arrays, as a dense
    array; a negative index reads 0.  A holds no duplicate entries."""
    if not A.has_sorted_indices:
        A = A.sorted_indices()
    keys = (np.repeat(np.arange(A.shape[0]), np.diff(A.indptr)) * A.shape[1]
            + A.indices)
    q = rows * A.shape[1] + cols
    pos = np.minimum(np.searchsorted(keys, q), keys.size - 1)
    return np.where((keys[pos] == q) & (rows >= 0) & (cols >= 0),
                    A.data[pos], 0.0)


def _block(rows, cols, sel, shape):
    """(entries, indices, indptr): the CSR pattern, in a block of this
    shape, of the distinct entries (rows[sel], cols[sel]), and which of
    all the entries fill it, in CSR order."""
    idx = np.flatnonzero(sel)
    A = sp.csr_matrix((np.arange(1.0, idx.size + 1), (rows[idx], cols[idx])),
                      shape=shape)
    A.sort_indices()
    return idx[A.data.astype(np.int64) - 1], A.indices, A.indptr


def _block_diagonal(values, indices, indptr, shape) -> sp.csr_matrix:
    """CSR matrix blockdiag(A_1, ..., A_n) of blocks of one shape and one
    CSR pattern (indices, indptr); column e of ``values`` holds the
    entries of A_e."""
    n, nnz = values.shape[1], indices.size
    offsets = np.arange(n)[:, None]
    return sp.csr_matrix(
        (values.T.ravel(), (indices + shape[1] * offsets).ravel(),
         np.append((indptr[:-1] + nnz * offsets).ravel(), n * nnz)),
        shape=(n * shape[0], n * shape[1]))


class _Condensation:
    """The fine dofs strictly inside each coarse element, eliminated once.

    Uniform refinement gives every coarse element the same local topology,
    so its fine vertices are numbered once: first the n_I vertices with six
    local triangles, strictly inside the element and always free, then the
    n_B on its edges.  With E an element's assembled stiffness, Ic its
    interior quasi-interpolation rows (one per corner, zero for a Dirichlet
    corner; no other row touches the interior) and r = E P the element
    right-hand side of its corner hats, it holds per element:

    - ``r`` and ``X`` = E_II^-1 [E_IB | Ic^T | r_I], the solved stacked
      columns, from which `_corrector_matrix` recovers the interiors with
      one product;
    - the condensed right-hand side rt = r_B - E_BI E_II^-1 r_I on the
      edges and, corner by corner, D = Ic E_II^-1 Ic^T and
      g = Ic E_II^-1 r_I.

    Over the whole mesh, on the free nodes, it holds S_skel, the sum of
    the elements' Schur complements E_BB - E_BI E_II^-1 E_IB, and C_skel,
    the quasi-interpolation rows off the element interiors minus the
    boundary images E_BI E_II^-1 Ic^T.  A patch gathers its skeleton rows
    of both: every element at a patch dof lies in the patch.

    The elements are factored as blockdiag(E_II) in chunks of at most
    `_INTERIOR_CHUNK` interior dofs (one element when it alone has more),
    each chunk's columns solved in one call; no factor outlives its chunk.
    With one refinement between the meshes no vertex is interior, and the
    condensation is the identity.  Raises ValueError if two elements
    differ in topology.
    """

    def __init__(self, ws: _Workspace):
        fine, coarse = ws.fine, ws.coarse
        n_el = coarse.n_triangles
        T = fine.triangles[descendant_triangles(
            coarse, fine, np.arange(n_el))].reshape(n_el, -1, 3)
        _, first, loc = np.unique(T[0].ravel(), return_index=True,
                                  return_inverse=True)
        local_valence = np.bincount(loc)
        order = np.argsort(local_valence != 6, kind="stable")
        rank = np.empty_like(order)
        rank[order] = np.arange(order.size)
        loc = rank[loc].reshape(-1, 3)
        nI = int((local_valence == 6).sum())
        V = T.reshape(n_el, -1)[:, first[order]]
        if not (np.array_equal(V[:, loc], T)
                and (np.diff(np.sort(V, axis=1), axis=1) > 0).all()
                and (ws.free_index[V[:, :nI]] >= 0).all()):
            raise ValueError("coarse elements differ in fine topology: "
                             "the meshes are not a uniform refinement")
        n_sub, nL = T.shape[1], V.shape[1]
        nB = nL - nI
        self.V, self.n_interior = V, nI
        self.B_valence = local_valence[order][nI:]

        # E[key, e]: element e's distinct entries (rows, cols), each its
        # triangles' blocks summed in triangle order by one assembly
        # operator; with the triangles taken child by child, the local
        # stiffness Et[(a, b, child), e] needs no copy
        keys, inv = np.unique((loc[:, :, None] * nL + loc[:, None, :]).ravel(),
                              return_inverse=True)
        rows, cols = np.divmod(keys, nL)
        Et = _element_stiffness(fine, ws.kappa,
                                T.transpose(1, 0, 2).reshape(-1, 3))
        order = np.argsort(inv, kind="stable")
        child, ab = np.divmod(order, 9)
        assemble = sp.csr_matrix(
            (np.ones(order.size), ab * n_sub + child,
             np.append(0, np.cumsum(np.bincount(inv)))),
            shape=(keys.size, order.size))
        E = assemble @ Et.reshape(-1, n_el)
        del Et
        # r = E P, with P the corner hats' prolongation values, summed by
        # row in key order
        P = _entries(ws.P_full, V[:, :, None], coarse.triangles[:, None, :])
        by_row = sp.csr_matrix((np.ones(keys.size),
                                (rows, np.arange(keys.size))),
                               shape=(nL, keys.size))
        self.r = np.empty((n_el, nL, 3))
        for c in range(3):
            self.r[:, :, c] = (by_row @ (E * P[:, cols, c].T)).T
        corners = ws.coarse_free_index[coarse.triangles]
        Ic = _entries(ws.I_free, corners[:, :, None],
                      ws.free_index[V[:, None, :nI]])

        # out = [E_BB - E_BI X_B | -E_BI X_c | r_B - E_BI X_r] and
        # IX = Ic [X_c | X_r], with X = [X_B | X_c | X_r]
        out = np.zeros((n_el, nB, nB + 6))
        bb = (rows >= nI) & (cols >= nI)
        out[:, rows[bb] - nI, cols[bb] - nI] = E[bb].T
        out[:, :, nB + 3:] = self.r[:, nI:]
        X = np.zeros((n_el, nI, nB + 6))
        ib = _block(rows, cols - nI, (rows < nI) & (cols >= nI), (nI, nB))
        X[:, rows[ib[0]], cols[ib[0]] - nI] = E[ib[0]].T
        X[:, :, nB:nB + 3] = Ic.transpose(0, 2, 1)
        X[:, :, nB + 3:] = self.r[:, :nI]
        if nI:
            ii = _block(rows, cols, (rows < nI) & (cols < nI), (nI, nI))
            step = max(1, _INTERIOR_CHUNK // nI)
            for a in range(0, n_el, step):
                b = min(a + step, n_el)
                try:  # E_II is symmetric: its CSR transpose is its CSC form
                    lu = factor_spd(_block_diagonal(E[ii[0], a:b], *ii[1:],
                                                    (nI, nI)).T, splu=splu)
                except np.linalg.LinAlgError as exc:
                    raise np.linalg.LinAlgError(
                        f"singular element interior stiffness ({exc})"
                    ) from exc
                X[a:b] = lu.solve(X[a:b].reshape(-1, nB + 6)).reshape(
                    b - a, nI, nB + 6)
                del lu
                E_BI = _block_diagonal(E[ib[0], a:b], *ib[1:], (nI, nB)).T
                out[a:b] -= (E_BI @ X[a:b].reshape(-1, nB + 6)).reshape(
                    b - a, nB, nB + 6)
        del E
        self.X = X
        IX = Ic @ X[:, :, nB:]
        self.rt = out[:, :, nB + 3:].copy()
        self.D, self.g = IX[:, :, :3], IX[:, :, 3:]
        G = out[:, :, nB:nB + 3].copy()  # -E_BI E_II^-1 Ic^T
        S = out[:, :, :nB] + out[:, :, :nB].transpose(0, 2, 1)
        S *= 0.5
        del out

        # an off-diagonal entry of S_skel sums at most two elements, so
        # S_skel is exactly symmetric
        bf = ws.free_index[V[:, nI:]].astype(np.intc)
        on = bf >= 0
        pair = on[:, :, None] & on[:, None, :]
        self.S_skel = sp.csr_matrix(
            (S[pair], (np.broadcast_to(bf[:, :, None], pair.shape)[pair],
                       np.broadcast_to(bf[:, None, :], pair.shape)[pair])),
            shape=(fine.n_free,) * 2)
        del S
        I_free = ws.I_free.tocoo()
        interior = np.zeros(fine.n_free, dtype=bool)
        interior[ws.free_index[V[:, :nI]]] = True
        keep = ~interior[I_free.col]
        pair = on[:, :, None] & (corners >= 0)[:, None, :]
        self.C_skel = sp.csr_matrix(
            (np.concatenate([I_free.data[keep], G[pair]]),
             (np.concatenate([I_free.row[keep], np.broadcast_to(
                 corners[:, None, :], pair.shape)[pair]]),
              np.concatenate([I_free.col[keep], np.broadcast_to(
                  bf[:, :, None], pair.shape)[pair]]))),
            shape=I_free.shape)


def _row_entries(A: sp.csr_matrix, rows: np.ndarray):
    """(idx, lens): the positions in A.indices and A.data of the entries
    of the CSR rows ``rows``, row after row in A's order, and the number
    of entries of each row."""
    starts = A.indptr[rows]
    lens = A.indptr[rows + 1] - starts
    ends = np.cumsum(lens)
    return np.repeat(starts - ends + lens, lens) + np.arange(lens.sum()), lens


def _gather(A: sp.csr_matrix, rows: np.ndarray, col_pos: np.ndarray):
    """(data, indices, indptr) of the rows ``rows`` of the CSR matrix A,
    keeping the columns that ``col_pos`` maps to positions >= 0 (-1 drops
    a column) and numbering them by those positions, in one step.

    Entries keep A's order within each row, sorted or not.  Read as CSR
    the arrays are the submatrix; read as CSC, its transpose.
    """
    idx, lens = _row_entries(A, rows)
    pos = col_pos[A.indices[idx]]
    keep = pos >= 0
    kept = np.concatenate([[0], np.cumsum(keep)])
    return A.data[idx[keep]], pos[keep], kept[np.append(0, np.cumsum(lens))]


def _gather_dense(A: sp.csr_matrix, rows: np.ndarray, col_pos: np.ndarray,
                  n_cols: int) -> np.ndarray:
    """The submatrix of `_gather`, as a dense array in Fortran order with
    ``n_cols`` columns.  A holds no duplicate entries.

    Every entry is scattered into the transpose, a dropped one (position
    -1) into an extra last row that is cut off, so no entry is filtered.
    """
    idx, lens = _row_entries(A, rows)
    out = np.zeros((n_cols + 1, rows.size))
    out[col_pos[A.indices[idx]], np.repeat(np.arange(rows.size), lens)] = \
        A.data[idx]
    return out[:-1].T


# Interior dofs per factorization of blockdiag(E_II) in the condensation,
# a bound for memory: SuperLU reserves its fill estimate per factor.  On
# the `lod-fine6` shape (13440 interior dofs, one BLAS thread) one chunk of
# all of them peaked at 106.3-106.9 MiB RSS against 95.6-95.7 MiB with
# this budget, at the same build time.
_INTERIOR_CHUNK = 2048

# Patch skeletons of at most this many dofs are factored dense, by
# LAPACK's Cholesky (`dpotrf`); larger ones by `factor_spd`.  A small
# skeleton is about half dense after the condensation, and SuperLU's
# per-call overhead outweighs its arithmetic there.  One skeleton solve
# (gather, factor, Ct^T and the element's columns) on the level-6 fine
# mesh, median of 11, one BLAS thread, 2-vCPU VM, dense against sparse:
# 228 dofs (coarse 2, k=1) 1.16 against 1.93 ms; 297 (coarse 3, k=2)
# 2.19 against 2.82 ms; 324 (coarse 4, k=3) 2.83 against 3.13 ms; but
# 330 with 108 constraint rows (coarse 5, k=5) 4.5 against 4.1 ms, 435
# 4.0 against 3.8-3.9 ms, and 630 (coarse 5, k=7, the size of a
# `grid-full` level-6 patch) 16.9 against 10.3 ms.  The crossover is
# near 300 dofs, lower the more constraint rows a patch has.  Memory does
# not set the gate: with every `desk-grid` skeleton dense (218-518 dofs)
# its peak RSS read 104.4-105.2 against 103.4-105.4 MiB (three pairs).
_DENSE_SKELETON_MAX = 300


class _Skeleton(NamedTuple):
    """Element K's corrector columns on the skeleton of its patch: the free
    positions ``dofs`` of the skeleton vertices and the values ``x``, one
    column per free coarse hat of K (free ids ``hats``).

    With element interiors, ``keys`` numbers each (patch element, hat) as
    element * (free coarse nodes) + hat, and ``weights`` holds its six
    recovery weights: the multipliers at the element's three corners (0 at
    a Dirichlet corner), then a one at the hat's corner if the element is
    K itself.  Without interiors both are None.
    """

    K: int
    dofs: np.ndarray
    x: np.ndarray
    hats: np.ndarray
    keys: np.ndarray | None
    weights: np.ndarray | None


def _skeleton_solve(ws: _Workspace, elements, patch: np.ndarray) -> list:
    """Skeleton parts of the corrector columns of the elements that share
    one patch, one `_Skeleton` per element with a free coarse hat, in the
    given order.

    The patch dofs are its free fine vertices whose fine triangles all lie
    in the patch; its skeleton is those on coarse edges.  The element
    interiors are condensed (`_Condensation`), so the patch gathers and
    factors only the skeleton Schur complement Sc, once for all the
    elements: up to `_DENSE_SKELETON_MAX` dofs, Sc and the condensed rows
    Ct are gathered dense and Sc is factored by `dpotrf`, otherwise both
    stay sparse and Sc is factored by `factor_spd`.  The columns minimize
    the energy subject to the patch's quasi-interpolation rows C: one
    solve with Sc for Ct^T, then per element one solve for its right-hand
    side and the multipliers from the Cholesky factor of
    Sigma = Ct Sc^-1 Ct^T + D; the multipliers leave only as recovery
    weights (`_Skeleton`).  An Sc that is singular (sparse) or not
    positive definite (dense), or a rank-deficient C, raises LinAlgError
    naming the element.
    """
    coarse = ws.coarse
    hats = [(K, ws.free_hats(K)[1]) for K in elements]
    hats = [(K, hat_free) for K, hat_free in hats if hat_free.size]
    if not hats:
        return []
    K = hats[0][0]
    cd = ws.condensation
    Bv = cd.V[patch, cd.n_interior:]
    verts, inv = np.unique(Bv, return_inverse=True)
    counts = np.bincount(inv.ravel(), np.broadcast_to(cd.B_valence,
                                                      Bv.shape).ravel())
    verts = verts[(counts == ws.valence[verts]) & (ws.free_index[verts] >= 0)]
    if not verts.size:
        raise np.linalg.LinAlgError(
            f"element {K}: patch has no skeleton fine nodes")
    dof_free = ws.free_index[verts]
    n_s = dof_free.size
    corner = ws.coarse_free_index[coarse.triangles[patch]]
    c_free = np.unique(corner)
    c_free = c_free[c_free >= 0]
    n_c = c_free.size
    cpos = np.where(corner >= 0, np.searchsorted(c_free, corner), -1)
    cc = (cpos >= 0)[:, :, None] & (cpos >= 0)[:, None, :]
    D = np.bincount((cpos[:, :, None] * n_c + cpos[:, None, :])[cc],
                    cd.D[patch][cc], minlength=n_c * n_c).reshape(n_c, n_c)
    dof_pos = ws.dof_pos
    out = []
    try:
        dof_pos[dof_free] = np.arange(n_s)
        # S_skel is symmetric, so its patch rows read as columns are Sc
        if n_s <= _DENSE_SKELETON_MAX:
            Ct = _gather_dense(cd.C_skel, c_free, dof_pos, n_s)
            U, info = dpotrf(_gather_dense(cd.S_skel, dof_free, dof_pos, n_s),
                             overwrite_a=True, clean=False)
            if info > 0:
                raise np.linalg.LinAlgError(
                    f"skeleton matrix not positive definite (minor {info})")

            def solve(b):
                return dpotrs(U, b)[0]
            Yc = solve(Ct.T)
        else:
            Ct = sp.csr_matrix(_gather(cd.C_skel, c_free, dof_pos),
                               shape=(n_c, n_s))
            solve = factor_spd(
                sp.csc_matrix(_gather(cd.S_skel, dof_free, dof_pos),
                              shape=(n_s, n_s)), splu=splu).solve
            Yc = solve(Ct.T.toarray())
        sigma = sla.cho_factor(Ct @ Yc + D)
        for K, hat_free in hats:
            p = np.searchsorted(patch, K)
            own = corner[p] >= 0
            bf = ws.free_index[cd.V[K, cd.n_interior:]]
            on = np.flatnonzero(bf >= 0)
            rhs = np.zeros((n_s, hat_free.size))
            rhs[dof_pos[bf[on]]] = cd.rt[K][on][:, own]
            g = np.zeros((n_c, hat_free.size))
            g[cpos[p][own]] = cd.g[K][own][:, own]
            Yr = solve(rhs)
            lam = sla.cho_solve(sigma, Ct @ Yr + g)
            keys = weights = None
            if cd.n_interior:
                keys = (patch[:, None] * coarse.n_free + hat_free).ravel()
                weights = np.zeros((patch.size, hat_free.size, 6))
                weights[:, :, :3] = np.vstack(
                    [lam, np.zeros(hat_free.size)])[cpos].transpose(0, 2, 1)
                weights[p, :, 3:] = corner[p] == hat_free[:, None]
                weights = weights.reshape(-1, 6)
            out.append(_Skeleton(K, dof_free, Yr - Yc @ lam, hat_free,
                                 keys, weights))
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            f"element {K}: singular local corrector system ({exc})") from exc
    finally:
        dof_pos[dof_free] = -1
    return out


def _corrector_matrix(ws: _Workspace, solved) -> sp.csr_matrix:
    """Q, the sum by hat of the corrector columns of the given skeleton
    solves (`_skeleton_solve`), over the free fine and coarse nodes.

    The skeleton values enter as solved.  The interior values follow for
    every element and every hat whose columns touch it (padded to the
    same number of hat slots per element): with the skeleton values x_B
    on the element's edges read off Q and the records' weights summed by
    (element, hat), the interior is X [-x_B; -lam; o] with the
    condensation's solved columns X = E_II^-1 [E_IB | Ic^T | r_I], one
    batched product for all elements.  The sums run in element order, so
    Q does not depend on how the solves were grouped.
    """
    fine, coarse = ws.fine, ws.coarse
    n_c, n_el = coarse.n_free, coarse.n_triangles
    solved = sorted(solved, key=lambda s: s.K)
    if not solved:
        return sp.csr_matrix((fine.n_free, n_c))
    Q = sp.coo_matrix(
        (np.concatenate([s.x.ravel() for s in solved]),
         (np.concatenate([np.repeat(s.dofs, s.hats.size) for s in solved]),
          np.concatenate([np.tile(s.hats, s.dofs.size) for s in solved]))),
        shape=(fine.n_free, n_c)).tocsr()
    cd = ws.condensation
    nI = cd.n_interior
    if nI == 0:
        return Q
    keys, inv = np.unique(np.concatenate([s.keys for s in solved]),
                          return_inverse=True)
    weights = np.concatenate([s.weights for s in solved])
    weights = np.stack([np.bincount(inv, weights[:, c], minlength=keys.size)
                        for c in range(6)], axis=1)
    # slot j of element e: its j-th hat in increasing order, -1 past the end
    element, hat = np.divmod(keys, n_c)
    slot = (np.arange(keys.size)
            - np.searchsorted(element, np.arange(n_el))[element])
    hats = np.full((n_el, slot.max() + 1), -1)
    hats[element, slot] = hat
    nB = cd.X.shape[2] - 6
    Y = np.zeros((n_el, nB + 6, hats.shape[1]))
    Y[:, :nB] = -_entries(Q, ws.free_index[cd.V[:, nI:]][:, :, None],
                          hats[:, None, :])
    Y[element, nB:, slot] = weights * [-1, -1, -1, 1, 1, 1]
    X = cd.X @ Y
    e, j = np.nonzero(hats >= 0)
    Q_int = sp.coo_matrix(
        (X[e, :, j].ravel(),
         (ws.free_index[cd.V[e, :nI]].ravel(), np.repeat(hats[e, j], nI))),
        shape=Q.shape).tocsr()
    return Q + Q_int


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

    n_coarse = property(lambda self: self.Rh.shape[1])
    S_ms = property(lambda self: self.ms.S)

    def system(self) -> LqrSystem:
        """Corrected-space LQR system ready for the Riccati solver."""
        return self.ms


def _check_system(fine: TriMesh, system: LqrSystem) -> None:
    """Refuse a fine system of another size than the fine mesh, before any
    local problem is solved."""
    if system.n != fine.n_free:
        raise ValueError(f"the fine system has {system.n} unknowns, but the "
                         f"fine mesh has {fine.n_free} free nodes")


def build_lod_basis(fine: TriMesh, coarse: TriMesh, kappa: CoefficientField,
                    k: int, system: LqrSystem) -> LodBasis:
    """Assemble the corrected basis Rh = prolongation - sum of correctors
    and the corrected matrices, solving one local problem per element.

    Elements whose k-layer patches coincide (every element, once patches
    saturate at the whole mesh) share one factorization of the patch
    skeleton; only one is held at a time.  Results are accumulated in
    element order, so the basis does not depend on the grouping.
    """
    if k < 1:
        raise ValueError("corrector patches need at least one layer")
    _check_system(fine, system)
    with single_thread_blas():
        return _build_lod_basis(fine, coarse, kappa, k, system)


def _build_lod_basis(fine, coarse, kappa, k, system):
    ws = _Workspace(fine, coarse, kappa)
    patches = [patch_elements(coarse, K, k) for K in range(coarse.n_triangles)]
    keys = [patch.tobytes() for patch in patches]
    solved = []
    skeleton_sizes = []  # dofs of each factored patch skeleton
    for _, group in groupby(sorted(range(coarse.n_triangles),
                                   key=keys.__getitem__),
                            key=keys.__getitem__):
        group = list(group)
        skeletons = _skeleton_solve(ws, group, patches[group[0]])
        if skeletons:
            skeleton_sizes.append(skeletons[0].dofs.size)
        solved += skeletons
    Q = _corrector_matrix(ws, solved)
    P_free = ws.P_free
    del ws, solved  # the condensation, before the Galerkin restriction
    sizes = [patch.size for patch in patches]
    n_dense = sum(n <= _DENSE_SKELETON_MAX for n in skeleton_sizes)
    stats = {"n_elements": coarse.n_triangles,
             "patch_factorizations": len(skeleton_sizes),
             "patch_factorizations_dense": n_dense,
             "patch_factorizations_sparse": len(skeleton_sizes) - n_dense,
             "skeleton_dofs_max": max(skeleton_sizes, default=0),
             "patch_elements_min": int(min(sizes)),
             "patch_elements_max": int(max(sizes))}
    Rh = (P_free - Q).tocsr()
    return LodBasis(k, Rh, restrict_system(system, Rh), stats)


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
    full_patch = patch_elements(coarse, K, coarse.n_triangles)
    ws = _Workspace(fine, coarse, kappa)
    hats = ws.free_hats(K)[1]
    if hats.size == 0:
        raise ValueError(f"element {K} carries no free coarse hat")
    S = assemble_stiffness(fine, kappa).tocsr()

    def corrector(patch):
        Q = _corrector_matrix(ws, _skeleton_solve(ws, [K], patch))
        return Q[:, hats].toarray()

    qhat = corrector(full_patch)
    energies = []
    for k in range(1, k_max + 1):
        diff = qhat - corrector(patch_elements(coarse, K, k))
        energies.append(float(np.sqrt((diff * (S @ diff)).sum())))
    return energies
