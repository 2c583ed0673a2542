"""Multiscale diffusion coefficients and P1 finite element matrices.

The diffusion coefficient is piecewise constant, either on a square
background grid (values drawn from a seeded PCG64 generator) or as a set
of thin horizontal stripes on a constant background.  Element stiffness
contributions sample the coefficient at the triangle centroid, which is
exact whenever the mesh resolves the coefficient geometry; the benchmark
always chooses the reference mesh that way.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .mesh import TriMesh


class CoefficientField:
    """Piecewise-constant scalar diffusion coefficient on the unit box.

    Grid fields store one value per half-open cell
    [i*eps, (i+1)*eps) x [j*eps, (j+1)*eps); stripe fields are a constant
    background with horizontal bands of a second value.  Lookup is
    deterministic in either case.
    """

    def __init__(self, kind, *, epsilon=None, values=None, background=None,
                 stripe_value=None, centers=None, width=None):
        self.kind = kind
        if kind == "grid":
            self.epsilon = float(epsilon)
            self.values = np.ascontiguousarray(values, dtype=float)
            self.values.setflags(write=False)
            self.alpha = float(self.values.min())
            self.beta = float(self.values.max())
            given, size, size_name = self.values, self.epsilon, "epsilon"
        elif kind == "stripes":
            self.background = float(background)
            self.stripe_value = float(stripe_value)
            self.centers = np.asarray(centers, dtype=float)
            self.width = float(width)
            vals = [self.background] + ([self.stripe_value] if len(self.centers) else [])
            self.alpha = min(vals)
            self.beta = max(vals)
            given = np.array([self.background, self.stripe_value])
            size, size_name = self.width, "stripe width"
        else:
            raise ValueError(f"unknown coefficient kind {kind!r}")
        bad = given[~(np.isfinite(given) & (given > 0))]
        if bad.size:
            raise ValueError("coefficient values must be finite and "
                             f"positive, got {float(bad[0])!r}")
        if not (size > 0 and np.isfinite(size)):
            raise ValueError(f"{size_name} must be finite and positive, "
                             f"got {size!r}")

    def values_at(self, points: np.ndarray) -> np.ndarray:
        """Coefficient values at an (m, 2) array of points."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if self.kind == "grid":
            ny, nx = self.values.shape
            ix = np.clip(np.floor(pts[:, 0] / self.epsilon).astype(int), 0, nx - 1)
            iy = np.clip(np.floor(pts[:, 1] / self.epsilon).astype(int), 0, ny - 1)
            return self.values[iy, ix]
        out = np.full(pts.shape[0], self.background)
        half = 0.5 * self.width
        for c in self.centers:
            band = (pts[:, 1] >= c - half) & (pts[:, 1] < c + half)
            out[band] = self.stripe_value
        return out

    def to_grid(self, epsilon: float) -> "CoefficientField":
        """Rasterize onto a square grid by sampling cell centers."""
        n = int(round(1.0 / epsilon))
        xs = (np.arange(n) + 0.5) * epsilon
        X, Y = np.meshgrid(xs, xs)
        vals = self.values_at(np.column_stack([X.ravel(), Y.ravel()]))
        return CoefficientField("grid", epsilon=epsilon,
                                values=vals.reshape(n, n))


def kappa_random_grid(epsilon: float, lo: float, hi: float,
                      seed: int) -> CoefficientField:
    """I.i.d. uniform values on [lo, hi] per grid cell, seeded PCG64 stream.

    Cells are drawn row-major (y outer, x inner) so a given seed yields the
    same field on every platform.
    """
    if not (epsilon > 0 and np.isfinite(epsilon)):
        raise ValueError(f"epsilon must be finite and positive, got "
                         f"{epsilon!r}")
    if not np.isfinite([lo, hi]).all():
        raise ValueError(f"coefficient bounds must be finite, got lo={lo!r}, "
                         f"hi={hi!r}")
    if lo <= 0:
        raise ValueError("lower coefficient bound must be positive")
    if hi < lo:
        raise ValueError("upper bound must not be below the lower bound")
    n = int(round(1.0 / epsilon))
    if abs(n * epsilon - 1.0) > 1e-12:
        raise ValueError("epsilon must divide the unit box")
    rng = np.random.Generator(np.random.PCG64(seed))
    values = rng.uniform(lo, hi, size=(n, n))
    return CoefficientField("grid", epsilon=epsilon, values=values)


def kappa_stripes(n_stripes: int, width: float, background: float,
                  stripe_value: float) -> CoefficientField:
    """Horizontal bands of a contrasting value, centered at j/(n+1)."""
    centers = np.arange(1, n_stripes + 1) / (n_stripes + 1.0)
    if n_stripes and (centers[0] - width / 2 < 0 or centers[-1] + width / 2 > 1):
        raise ValueError("stripes do not fit inside the unit box")
    return CoefficientField("stripes", background=background,
                            stripe_value=stripe_value, centers=centers,
                            width=width)


def kappa_constant(value: float) -> CoefficientField:
    return CoefficientField("grid", epsilon=1.0, values=[[value]])


def dump_kappa(kappa: CoefficientField, path) -> None:
    """Plain-text grid dump: first line epsilon, then row-major cell values.

    Non-grid fields are rasterized first at half the stripe width, which
    resolves dyadic stripe edges exactly.
    """
    if kappa.kind != "grid":
        kappa = kappa.to_grid(kappa.width / 2)
    with open(path, "w") as fh:
        fh.write(f"{kappa.epsilon!r}\n")
        for row in kappa.values:
            fh.write(" ".join(repr(float(v)) for v in row) + "\n")


# -- P1 assembly ------------------------------------------------------------

def _p1_geometry(mesh: TriMesh, triangles=None):
    """Signed areas and the hat gradient coefficients b, c per triangle.

    grad(phi_i) = (b_i, c_i) / (2 area) with b_i = y_{i+1} - y_{i+2} and
    c_i = x_{i+2} - x_{i+1} (cyclic local indices).
    """
    v = mesh.vertices[mesh.triangles if triangles is None else triangles]
    x, y = v[:, :, 0], v[:, :, 1]
    b = np.roll(y, -1, axis=1) - np.roll(y, -2, axis=1)
    c = np.roll(x, -2, axis=1) - np.roll(x, -1, axis=1)
    area = 0.5 * (x * b).sum(axis=1)
    return area, b, c


def _restrict(full: sp.csr_matrix, mesh: TriMesh,
              all_nodes: bool) -> sp.csr_matrix:
    if all_nodes:
        return full
    return full[mesh.free_nodes][:, mesh.free_nodes]


def _accumulate(triangles, n, local_vals):
    """Sum 3x3 local element matrices over the given triangles (rows of
    vertex ids below n) into an n x n sparse matrix with no stored zeros."""
    rows, cols, vals = [], [], []
    for i in range(3):
        for j in range(3):
            rows.append(triangles[:, i])
            cols.append(triangles[:, j])
            vals.append(local_vals[i][j])
    A = sp.coo_matrix((np.concatenate(vals),
                       (np.concatenate(rows), np.concatenate(cols))),
                      shape=(n, n)).tocsr()
    # symmetric local matrices give an exactly symmetric A: an off-diagonal
    # entry sums at most two triangles.  The P1 stiffness couples the two
    # ends of a right triangle's hypotenuse by exactly 0; dropping those
    # entries leaves S the 5-point pattern its minimum-degree factor needs
    A.eliminate_zeros()
    return A


def assemble_mass(mesh: TriMesh, all_nodes: bool = False) -> sp.csr_matrix:
    """P1 mass matrix; element matrix (area/12) [[2,1,1],[1,2,1],[1,1,2]]."""
    area, _, _ = _p1_geometry(mesh)
    local = [[area * ((2.0 if i == j else 1.0) / 12.0) for j in range(3)]
             for i in range(3)]
    return _restrict(_accumulate(mesh.triangles, mesh.n_vertices, local),
                     mesh, all_nodes)


def assemble_stiffness(mesh: TriMesh, kappa: CoefficientField,
                       all_nodes: bool = False) -> sp.csr_matrix:
    """Diffusion stiffness S_ij = int kappa grad(phi_j) . grad(phi_i).

    The coefficient is sampled at triangle centroids.  The evolution
    operator of the state equation is -S.
    """
    E = _element_stiffness(mesh, kappa, mesh.triangles)
    return _restrict(_accumulate(mesh.triangles, mesh.n_vertices, E),
                     mesh, all_nodes)


def _element_stiffness(mesh, kappa, T):
    """P1 stiffness values of the triangles T (rows of vertex ids), as a
    3 x 3 x len(T) array: entry [i, j, t] couples local hats i and j of t."""
    area, b, c = _p1_geometry(mesh, T)
    scale = kappa.values_at(mesh.vertices[T].mean(axis=1)) / (4.0 * area)
    return np.array([[scale * (b[:, i] * b[:, j] + c[:, i] * c[:, j])
                      for j in range(3)] for i in range(3)])


def _clip_axis(poly, axis, bound, keep_below):
    """Sutherland-Hodgman clip of a polygon against an axis-aligned line."""
    out = []
    m = len(poly)
    for i in range(m):
        p, q = poly[i], poly[(i + 1) % m]
        pin = (p[axis] <= bound) if keep_below else (p[axis] >= bound)
        qin = (q[axis] <= bound) if keep_below else (q[axis] >= bound)
        if pin:
            out.append(p)
        if pin != qin:
            t = (bound - p[axis]) / (q[axis] - p[axis])
            out.append((p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])))
    return out


def _clip_to_rect(tri, rect):
    x0, y0, x1, y1 = rect
    poly = [tuple(p) for p in tri]
    for axis, bound, below in ((0, x0, False), (0, x1, True),
                               (1, y0, False), (1, y1, True)):
        poly = _clip_axis(poly, axis, bound, below)
        if len(poly) < 3:
            return []
    return poly


def assemble_input_squares(mesh: TriMesh, squares,
                           all_nodes: bool = False) -> np.ndarray:
    """Input matrix for characteristic functions of axis-aligned squares.

    Column j holds int_{square_j} phi_i, computed exactly.  A triangle
    whose bounding box lies in the closed square adds |T|/3 to each of
    its vertices; a triangle that crosses a square edge is clipped against
    the square, and the linear hat is integrated over the clipped polygon
    (area times the mean of its corner values).
    Squares are (x0, y0, x1, y1) tuples.
    """
    area, b, c = _p1_geometry(mesh)
    v = mesh.vertices[mesh.triangles]
    a0 = v[:, 1, 0] * v[:, 2, 1] - v[:, 2, 0] * v[:, 1, 1]
    a1 = v[:, 2, 0] * v[:, 0, 1] - v[:, 0, 0] * v[:, 2, 1]
    a2 = v[:, 0, 0] * v[:, 1, 1] - v[:, 1, 0] * v[:, 0, 1]
    aa = np.stack([a0, a1, a2], axis=1)

    B = np.zeros((mesh.n_vertices, len(squares)))
    mins = v.min(axis=1)
    maxs = v.max(axis=1)
    for col, rect in enumerate(squares):
        x0, y0, x1, y1 = rect
        cand = ((mins[:, 0] < x1) & (maxs[:, 0] > x0)
                & (mins[:, 1] < y1) & (maxs[:, 1] > y0))
        inside = cand & ((mins[:, 0] >= x0) & (maxs[:, 0] <= x1)
                         & (mins[:, 1] >= y0) & (maxs[:, 1] <= y1))
        B[:, col] = np.bincount(mesh.triangles[inside].ravel(),
                                np.repeat(area[inside] / 3.0, 3),
                                minlength=mesh.n_vertices)
        for t in np.flatnonzero(cand & ~inside):
            poly = _clip_to_rect(v[t], rect)
            if not poly:
                continue
            # hat values at the clipped polygon corners via barycentrics
            px = np.array([p[0] for p in poly])
            py = np.array([p[1] for p in poly])
            lam = (aa[t][:, None] + np.outer(b[t], px)
                   + np.outer(c[t], py)) / (2.0 * area[t])
            for i in range(len(poly) - 2):
                ids = [0, i + 1, i + 2]
                sub = 0.5 * ((px[ids[1]] - px[ids[0]]) * (py[ids[2]] - py[ids[0]])
                             - (px[ids[2]] - px[ids[0]]) * (py[ids[1]] - py[ids[0]]))
                B[mesh.triangles[t], col] += sub * lam[:, ids].mean(axis=1)
    if all_nodes:
        return B
    return B[mesh.free_nodes]


def assemble_output_mean(mesh: TriMesh, all_nodes: bool = False) -> np.ndarray:
    """1 x n output row with entries int_Omega phi_i (domain integral)."""
    area, _, _ = _p1_geometry(mesh)
    out = np.zeros(mesh.n_vertices)
    np.add.at(out, mesh.triangles.ravel(), np.repeat(area / 3.0, 3))
    if not all_nodes:
        out = out[mesh.free_nodes]
    return out[None, :]


@dataclass
class LqrSystem:
    """Semidiscrete LQR data over the free nodes of one mesh.

    M and S are the SPD mass and diffusion stiffness matrices (the state
    evolution matrix is A = -S), B the input matrix, C the output matrix,
    Q and R the output/input weights.  ``mesh`` is the mesh whose free
    nodes the unknowns are, when the system was assembled on one; the
    Riccati solver then factors M and the Crank-Nicolson matrix in its
    nested-dissection order (`order`), and otherwise lets `factor_spd`
    order them by minimum degree.  Shapes that do not fit n, m = B's
    columns and p = C's rows, and a NaN or an Inf in any of the six
    matrices, raise ValueError before any factorization.
    """

    M: sp.csr_matrix
    S: sp.csr_matrix
    B: np.ndarray
    C: np.ndarray
    Q: np.ndarray = None
    R: np.ndarray = None
    mesh: TriMesh | None = None

    def __post_init__(self):
        if self.mesh is not None and self.mesh.n_free != self.n:
            raise ValueError(f"the system has {self.n} unknowns, but its "
                             f"mesh has {self.mesh.n_free} free nodes")
        self.B = np.atleast_2d(np.asarray(self.B, dtype=float))
        self.C = np.atleast_2d(np.asarray(self.C, dtype=float))
        if self.Q is None:
            self.Q = np.eye(self.p)
        if self.R is None:
            self.R = np.eye(self.m)
        self.Q = np.atleast_2d(np.asarray(self.Q, dtype=float))
        self.R = np.atleast_2d(np.asarray(self.R, dtype=float))
        n, m, p = self.n, self.m, self.p
        for name, want in (("M", (n, n)), ("S", (n, n)), ("B", (n, m)),
                           ("C", (p, n)), ("Q", (p, p)), ("R", (m, m))):
            value = getattr(self, name)
            got = tuple(value.shape)
            if got != want:
                raise ValueError(f"{name} has shape {got}, expected {want}")
            if not np.isfinite(value.data if sp.issparse(value)
                               else value).all():
                raise ValueError(f"{name} holds a NaN or an Inf")

    @property
    def n(self) -> int:
        return self.M.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    @property
    def p(self) -> int:
        return self.C.shape[0]

    @property
    def order(self) -> np.ndarray | None:
        """The mesh's nested-dissection order of the unknowns (computed on
        first use), or None for a system built without a mesh."""
        return None if self.mesh is None else self.mesh.dissection_order


def permuted(A: sp.spmatrix, order: np.ndarray | None) -> sp.csr_matrix:
    """A[order][:, order], or A itself without an order."""
    A = A.tocsr()
    return A if order is None else A[order][:, order]


def factor_spd(A: sp.spmatrix, order: np.ndarray | None = None, *, splu):
    """SuperLU factor of the SPD matrix A, pivoting only on the diagonal.

    Given a symmetric ``order`` (a mesh's nested dissection), the factor is
    of A[order][:, order] in its own numbering; otherwise SuperLU orders A
    by minimum degree on A^T + A.  ``splu`` is the caller's binding of
    `scipy.sparse.linalg.splu`, so each module's factorizations run, and
    can be traced, under its own name.  A singular A raises LinAlgError.
    """
    if order is None:
        A, spec = A.tocsc(), "MMD_AT_PLUS_A"
    else:
        A, spec = permuted(A, order).tocsc(), "NATURAL"
    try:
        return splu(A, permc_spec=spec, diag_pivot_thresh=0.0,
                    options=dict(SymmetricMode=True))
    except RuntimeError as exc:
        raise np.linalg.LinAlgError(f"singular matrix ({exc})") from exc


def restrict_system(system: LqrSystem, lift) -> LqrSystem:
    """Galerkin restriction of a system to the column span of ``lift``.

    ``lift`` maps coarse coefficients to fine ones (the prolongation P for
    plain coarse elements, the corrected basis Rh for LOD).  The result
    holds lift^T M lift and lift^T S lift (symmetrized), lift^T B and
    C lift, with the weights Q and R unchanged.
    """
    M = (lift.T @ system.M @ lift).tocsr()
    S = (lift.T @ system.S @ lift).tocsr()
    return LqrSystem(M=0.5 * (M + M.T), S=0.5 * (S + S.T),
                     B=lift.T @ system.B, C=system.C @ lift,
                     Q=system.Q, R=system.R)
