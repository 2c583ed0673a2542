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
from .runtime import _text_file


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
        elif kind == "stripes":
            self.background = float(background)
            self.stripe_value = float(stripe_value)
            self.centers = np.asarray(centers, dtype=float)
            self.width = float(width)
            vals = [self.background] + ([self.stripe_value] if len(self.centers) else [])
            self.alpha = min(vals)
            self.beta = max(vals)
        else:
            raise ValueError(f"unknown coefficient kind {kind!r}")
        if self.alpha <= 0:
            raise ValueError("coefficient values must be positive")

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

    def to_grid(self, epsilon: float, extent=(1.0, 1.0)) -> "CoefficientField":
        """Rasterize onto a square grid by sampling cell centers."""
        nx = int(round(extent[0] / epsilon))
        ny = int(round(extent[1] / epsilon))
        xs = (np.arange(nx) + 0.5) * epsilon
        ys = (np.arange(ny) + 0.5) * epsilon
        X, Y = np.meshgrid(xs, ys)
        vals = self.values_at(np.column_stack([X.ravel(), Y.ravel()]))
        return CoefficientField("grid", epsilon=epsilon,
                                values=vals.reshape(ny, nx))


def kappa_random_grid(epsilon: float, lo: float, hi: float, seed: int,
                      extent=(1.0, 1.0)) -> CoefficientField:
    """I.i.d. uniform values on [lo, hi] per grid cell, seeded PCG64 stream.

    Cells are drawn row-major (y outer, x inner) so a given seed yields the
    same field on every platform.
    """
    if lo <= 0:
        raise ValueError("lower coefficient bound must be positive")
    if hi < lo:
        raise ValueError("upper bound must not be below the lower bound")
    nx = int(round(extent[0] / epsilon))
    ny = int(round(extent[1] / epsilon))
    if abs(nx * epsilon - extent[0]) > 1e-12 or abs(ny * epsilon - extent[1]) > 1e-12:
        raise ValueError("epsilon must divide the domain extents")
    rng = np.random.Generator(np.random.PCG64(seed))
    values = rng.uniform(lo, hi, size=(ny, nx))
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


def dump_kappa(kappa: CoefficientField, file, epsilon=None) -> None:
    """Plain-text grid dump: first line epsilon, then row-major cell values.

    Non-grid fields are rasterized first (default epsilon: half the stripe
    width, which resolves dyadic stripe edges exactly).
    """
    if kappa.kind != "grid":
        eps = epsilon if epsilon is not None else kappa.width / 2
        kappa = kappa.to_grid(eps)
    with _text_file(file, "w") as fh:
        fh.write(f"{kappa.epsilon!r}\n")
        for row in kappa.values:
            fh.write(" ".join(repr(float(v)) for v in row) + "\n")


def load_kappa(file) -> CoefficientField:
    with _text_file(file) as fh:
        eps = float(fh.readline())
        values = [[float(v) for v in line.split()] for line in fh if line.strip()]
    return CoefficientField("grid", epsilon=eps, values=np.array(values))


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
    """Sum 3x3 local element matrices over the given triangles into a
    global n x n sparse matrix."""
    rows, cols, vals = [], [], []
    for i in range(3):
        for j in range(3):
            rows.append(triangles[:, i])
            cols.append(triangles[:, j])
            vals.append(local_vals[i][j])
    A = sp.coo_matrix((np.concatenate(vals),
                       (np.concatenate(rows), np.concatenate(cols))),
                      shape=(n, n)).tocsr()
    return 0.5 * (A + A.T)


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
    return _restrict(_stiffness_on(mesh, kappa, None), mesh, all_nodes)


def _stiffness_on(mesh, kappa, tri_ids):
    """Full-size stiffness assembled over a subset of triangles (or all)."""
    T = mesh.triangles if tri_ids is None else mesh.triangles[tri_ids]
    area, b, c = _p1_geometry(mesh, T)
    centroids = mesh.vertices[T].mean(axis=1)
    scale = kappa.values_at(centroids) / (4.0 * area)
    local = [[scale * (b[:, i] * b[:, j] + c[:, i] * c[:, j])
              for j in range(3)] for i in range(3)]
    return _accumulate(T, mesh.n_vertices, local)


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

    Column j holds int_{square_j} phi_i, computed exactly by clipping each
    triangle against the square and integrating the linear hat over the
    clipped polygon (area times the mean of its corner values).
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
        cand = np.nonzero((mins[:, 0] < x1) & (maxs[:, 0] > x0)
                          & (mins[:, 1] < y1) & (maxs[:, 1] > y0))[0]
        for t in cand:
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
    Q and R the output/input weights.
    """

    M: sp.csr_matrix
    S: sp.csr_matrix
    B: np.ndarray
    C: np.ndarray
    Q: np.ndarray = None
    R: np.ndarray = None

    def __post_init__(self):
        self.B = np.atleast_2d(np.asarray(self.B, dtype=float))
        self.C = np.atleast_2d(np.asarray(self.C, dtype=float))
        if self.Q is None:
            self.Q = np.eye(self.p)
        if self.R is None:
            self.R = np.eye(self.m)
        self.Q = np.atleast_2d(np.asarray(self.Q, dtype=float))
        self.R = np.atleast_2d(np.asarray(self.R, dtype=float))

    @property
    def n(self) -> int:
        return self.M.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    @property
    def p(self) -> int:
        return self.C.shape[0]


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
