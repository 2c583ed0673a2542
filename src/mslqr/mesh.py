"""Nested triangulations of the benchmark domains.

Meshes are built on structured lattices (2x2 squares for the unit square,
each square split into two triangles along its lower-left/upper-right
diagonal) and refined uniformly by edge bisection, so that every refinement
level is nested in the next and the prolongation between levels is exact
nodal interpolation with entries in {0, 0.5, 1}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .runtime import _text_file

INTERIOR = 0
DIRICHLET = 1
NEUMANN = 2

FLAG_NAMES = {INTERIOR: "interior", DIRICHLET: "dirichlet", NEUMANN: "neumann"}

_GEOM_TOL = 1e-12


@dataclass(frozen=True)
class Domain:
    """Polygonal domain assembled from cells of a structured base grid.

    kind
        One of ``"unit_square"``, ``"l_shape"``, ``"u_shape"``.
    base_pitch
        Cell size of the coarsest structured grid that resolves the
        geometry exactly.
    width, height
        Extents of the bounding box ``[0, width] x [0, height]``.
    """

    kind: str
    base_pitch: float
    width: float
    height: float

    @property
    def area(self) -> float:
        if self.kind == "unit_square":
            return 1.0
        if self.kind == "l_shape":
            return 0.75
        if self.kind == "u_shape":
            return 7.0 / 18.0
        raise ValueError(f"unknown domain kind {self.kind!r}")

    def cell_inside(self, x0: float, y0: float, x1: float, y1: float) -> bool:
        """Whether the closed cell [x0,x1] x [y0,y1] belongs to the domain."""
        if self.kind == "unit_square":
            return True
        if self.kind == "l_shape":
            # unit square with the upper-right quadrant removed
            return not (x0 >= 0.5 - _GEOM_TOL and y0 >= 0.5 - _GEOM_TOL)
        if self.kind == "u_shape":
            # lying U, opening to the left: two horizontal handles of
            # thickness 1/6 joined by a vertical bar on the right
            return (
                y1 <= 1.0 / 6.0 + _GEOM_TOL
                or y0 >= 3.0 / 6.0 - _GEOM_TOL
                or x0 >= 5.0 / 6.0 - _GEOM_TOL
            )
        raise ValueError(f"unknown domain kind {self.kind!r}")

    def boundary_flag(self, x: float, y: float) -> int:
        """Boundary condition flag for a point known to lie on the boundary."""
        if self.kind == "u_shape":
            # Dirichlet only on the left end of the bottom handle
            if x <= _GEOM_TOL and y <= 1.0 / 6.0 + _GEOM_TOL:
                return DIRICHLET
            return NEUMANN
        return DIRICHLET


def unit_square() -> Domain:
    return Domain("unit_square", 0.5, 1.0, 1.0)


def l_shape() -> Domain:
    return Domain("l_shape", 0.25, 1.0, 1.0)


def u_shape() -> Domain:
    return Domain("u_shape", 1.0 / 6.0, 1.0, 4.0 / 6.0)


DOMAINS = {"unit_square": unit_square, "l_shape": l_shape, "u_shape": u_shape}


class TriMesh:
    """Conforming triangulation with refinement genealogy.

    Vertices of a refined mesh keep the indices they had in the parent;
    the edge-midpoint vertices are appended sorted by (min endpoint,
    max endpoint) index.  Triangle ``t`` of the parent owns the four child
    triangles ``4t .. 4t+3``.  Instances are immutable after construction.
    """

    def __init__(self, domain, vertices, triangles, node_flags, level=0,
                 parent=None, edge_parents=None):
        self.domain = domain
        self.vertices = np.ascontiguousarray(vertices, dtype=float)
        self.triangles = np.ascontiguousarray(triangles, dtype=np.int64)
        self.node_flags = np.ascontiguousarray(node_flags, dtype=np.int8)
        self.level = int(level)
        self.parent = parent
        # endpoints (in parent indexing) of the bisected edge that created
        # each appended vertex; None for a base mesh
        self.edge_parents = edge_parents
        for a in (self.vertices, self.triangles, self.node_flags):
            a.setflags(write=False)
        if self.edge_parents is not None:
            self.edge_parents.setflags(write=False)
        self._free = None

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_triangles(self) -> int:
        return self.triangles.shape[0]

    @property
    def free_nodes(self) -> np.ndarray:
        """Indices of non-Dirichlet (degree-of-freedom carrying) vertices."""
        if self._free is None:
            self._free = np.nonzero(self.node_flags != DIRICHLET)[0]
            self._free.setflags(write=False)
        return self._free

    @property
    def n_free(self) -> int:
        return self.free_nodes.shape[0]

    @property
    def pitch(self) -> float:
        """Lattice spacing of this refinement level."""
        return self.domain.base_pitch / 2 ** self.level

    def triangle_areas(self) -> np.ndarray:
        x, y = self._corner_coords()
        return 0.5 * ((x[:, 1] - x[:, 0]) * (y[:, 2] - y[:, 0])
                      - (x[:, 2] - x[:, 0]) * (y[:, 1] - y[:, 0]))

    def _corner_coords(self):
        v = self.vertices[self.triangles]
        return v[:, :, 0], v[:, :, 1]

    def __repr__(self):
        return (f"TriMesh({self.domain.kind}, level={self.level}, "
                f"triangles={self.n_triangles}, free={self.n_free})")


def _boundary_edges(triangles):
    """Edges (sorted pairs) together with their triangle-adjacency counts."""
    e = np.vstack([triangles[:, [0, 1]], triangles[:, [1, 2]],
                   triangles[:, [2, 0]]])
    e.sort(axis=1)
    edges, counts = np.unique(e, axis=0, return_counts=True)
    return edges, counts


def _classify_vertices(domain, vertices, triangles):
    """Flag every vertex that lies on a boundary edge, interior otherwise."""
    edges, counts = _boundary_edges(triangles)
    flags = np.full(vertices.shape[0], INTERIOR, dtype=np.int8)
    boundary_nodes = np.unique(edges[counts == 1])
    for i in boundary_nodes:
        flags[i] = domain.boundary_flag(vertices[i, 0], vertices[i, 1])
    return flags


def build_base_mesh(domain: Domain) -> TriMesh:
    """Coarsest structured mesh of a domain (level 0).

    Each grid square is split along its lower-left to upper-right diagonal
    into two counter-clockwise triangles.  Vertices are numbered
    lexicographically by (y, x).
    """
    p = domain.base_pitch
    nx = int(round(domain.width / p))
    ny = int(round(domain.height / p))
    cells = [(ix, iy)
             for iy in range(ny) for ix in range(nx)
             if domain.cell_inside(ix * p, iy * p, (ix + 1) * p, (iy + 1) * p)]
    if not cells:
        raise ValueError("domain contains no grid cells")

    used = sorted({(ix + dx, iy + dy)
                   for ix, iy in cells for dx in (0, 1) for dy in (0, 1)},
                  key=lambda t: (t[1], t[0]))
    index = {lat: i for i, lat in enumerate(used)}
    vertices = np.array([(ix * p, iy * p) for ix, iy in used], dtype=float)

    triangles = []
    for ix, iy in sorted(cells, key=lambda t: (t[1], t[0])):
        v00 = index[(ix, iy)]
        v10 = index[(ix + 1, iy)]
        v01 = index[(ix, iy + 1)]
        v11 = index[(ix + 1, iy + 1)]
        triangles.append((v00, v10, v11))   # lower-right triangle
        triangles.append((v00, v11, v01))   # upper-left triangle
    triangles = np.array(triangles, dtype=np.int64)

    flags = _classify_vertices(domain, vertices, triangles)
    return TriMesh(domain, vertices, triangles, flags, level=0)


def refine_uniform(mesh: TriMesh) -> TriMesh:
    """Refine every triangle into four similar children via edge midpoints."""
    V, T = mesh.vertices, mesh.triangles
    nv = V.shape[0]

    e = np.vstack([T[:, [0, 1]], T[:, [1, 2]], T[:, [2, 0]]])
    e.sort(axis=1)
    edges = np.unique(e, axis=0)                    # (min, max) lexicographic
    keys = edges[:, 0] * nv + edges[:, 1]           # ascending

    vertices = np.vstack([V, 0.5 * (V[edges[:, 0]] + V[edges[:, 1]])])

    def mid(i, j):
        lo, hi = np.minimum(i, j), np.maximum(i, j)
        return nv + np.searchsorted(keys, lo * nv + hi)

    a, b, c = T[:, 0], T[:, 1], T[:, 2]
    mab, mbc, mca = mid(a, b), mid(b, c), mid(c, a)
    children = np.stack([
        np.column_stack([a, mab, mca]),
        np.column_stack([b, mbc, mab]),
        np.column_stack([c, mca, mbc]),
        np.column_stack([mab, mbc, mca]),
    ], axis=1).reshape(-1, 3)

    # midpoints of boundary edges are classified geometrically, all other
    # new vertices are interior; old vertices keep their flags
    flags = np.concatenate([mesh.node_flags,
                            np.full(edges.shape[0], INTERIOR, dtype=np.int8)])
    _, counts = _boundary_edges(T)
    boundary = counts == 1
    for i in np.nonzero(boundary)[0]:
        x, y = vertices[nv + i]
        flags[nv + i] = mesh.domain.boundary_flag(x, y)

    return TriMesh(mesh.domain, vertices, children, flags,
                   level=mesh.level + 1, parent=mesh, edge_parents=edges)


def lineage(coarse: TriMesh, fine: TriMesh):
    """Refinement chain [coarse, ..., fine]; raises if not a descendant."""
    chain = [fine]
    m = fine
    while m is not coarse:
        if m.parent is None:
            raise ValueError("fine mesh is not a refinement of the coarse mesh")
        m = m.parent
        chain.append(m)
    return chain[::-1]


def _step_prolongation(child: TriMesh) -> sp.csr_matrix:
    """One-level nodal interpolation over all vertices (parent -> child)."""
    n_parent = child.parent.n_vertices
    n_child = child.n_vertices
    n_new = n_child - n_parent
    rows = np.concatenate([np.arange(n_parent),
                           np.repeat(np.arange(n_parent, n_child), 2)])
    cols = np.concatenate([np.arange(n_parent),
                           child.edge_parents.reshape(-1)])
    vals = np.concatenate([np.ones(n_parent), np.full(2 * n_new, 0.5)])
    return sp.csr_matrix((vals, (rows, cols)), shape=(n_child, n_parent))


def prolongation(coarse: TriMesh, fine: TriMesh,
                 all_nodes: bool = False) -> sp.csr_matrix:
    """Nodal interpolation matrix from the coarse to the fine P1 space.

    Entry (i, j) is the coarse hat function of node j evaluated at fine
    vertex i.  By default rows and columns run over the free
    (non-Dirichlet) nodes of the respective meshes; with ``all_nodes``
    the full vertex sets are used.
    """
    chain = lineage(coarse, fine)
    if len(chain) == 1:
        P = sp.identity(coarse.n_vertices, format="csr")
    else:
        P = _step_prolongation(chain[1])
        for m in chain[2:]:
            P = _step_prolongation(m) @ P
    if all_nodes:
        return P.tocsr()
    return P[fine.free_nodes][:, coarse.free_nodes].tocsr()


def shape_regularity(mesh: TriMesh) -> float:
    """max over triangles of (inscribed ball diameter) / (triangle diameter)."""
    x, y = mesh._corner_coords()
    sides = []
    for i, j in ((0, 1), (1, 2), (2, 0)):
        sides.append(np.sqrt((x[:, i] - x[:, j]) ** 2 + (y[:, i] - y[:, j]) ** 2))
    sides = np.array(sides)
    peri = sides.sum(axis=0)
    diam = sides.max(axis=0)
    area = np.abs(mesh.triangle_areas())
    # inradius r = 2*area / perimeter, ball diameter = 2r
    gamma = (4.0 * area / peri) / diam
    return float(gamma.max())


def dump_mesh(mesh: TriMesh, file) -> None:
    """Write a plain-text mesh dump: one 'vertex x y flag' line per vertex
    followed by one 'triangle i j k' line per triangle."""
    with _text_file(file, "w") as fh:
        for (x, y), f in zip(mesh.vertices, mesh.node_flags):
            fh.write(f"vertex {float(x)!r} {float(y)!r} {FLAG_NAMES[int(f)]}\n")
        for i, j, k in mesh.triangles:
            fh.write(f"triangle {i} {j} {k}\n")


def descendant_triangles(coarse: TriMesh, fine: TriMesh,
                         elements) -> np.ndarray:
    """Ids of the fine triangles inside the given coarse elements: by the
    4-children rule one contiguous range per element, in the given order."""
    n = 4 ** (len(lineage(coarse, fine)) - 1)
    elements = np.atleast_1d(np.asarray(elements, dtype=np.int64))
    if not ((0 <= elements) & (elements < coarse.n_triangles)).all():
        raise ValueError("coarse element id out of range")
    return (elements[:, None] * n + np.arange(n)).ravel()
