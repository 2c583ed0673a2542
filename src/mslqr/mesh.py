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

INTERIOR = 0
DIRICHLET = 1
NEUMANN = 2

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
        self._vertex_triangles = None
        self._dissection = None

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
    def vertex_triangles(self) -> sp.csr_matrix:
        """Vertex-to-triangle incidence; row v lists the triangles at v."""
        if self._vertex_triangles is None:
            n = self.triangles.size
            self._vertex_triangles = sp.csr_matrix(
                (np.ones(n), (self.triangles.ravel(), np.arange(n) // 3)),
                shape=(self.n_vertices, self.n_triangles))
        return self._vertex_triangles

    @property
    def dissection_order(self) -> np.ndarray:
        """Nested-dissection order of the free nodes (`nested_dissection`),
        computed on first use: A[order][:, order] is a matrix over the free
        nodes renumbered for a sparse factorization with little fill."""
        if self._dissection is None:
            self._dissection = nested_dissection(self)
            self._dissection.setflags(write=False)
        return self._dissection

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

    edges, counts = _boundary_edges(T)              # (min, max) lexicographic
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
    for i in np.nonzero(counts == 1)[0]:
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


def descendant_triangles(coarse: TriMesh, fine: TriMesh,
                         elements) -> np.ndarray:
    """Ids of the fine triangles inside the given coarse elements: by the
    4-children rule one contiguous range per element, in the given order."""
    n = 4 ** (len(lineage(coarse, fine)) - 1)
    elements = np.atleast_1d(np.asarray(elements, dtype=np.int64))
    if not ((0 <= elements) & (elements < coarse.n_triangles)).all():
        raise ValueError("coarse element id out of range")
    return (elements[:, None] * n + np.arange(n)).ravel()


# parts of at most this many nodes are not cut again
_DISSECTION_LEAF = 8
# a base-3 code of this many digits still fits an int64
_DISSECTION_DEPTH = 39


def nested_dissection(mesh: TriMesh) -> np.ndarray:
    """Nested-dissection order of the free nodes of a mesh (George, SIAM
    J. Numer. Anal. 1973), as positions into ``free_nodes``.

    Each part is cut at the median of the longer side of its bounding box.
    The nodes on the upper side that share a mesh edge with the lower side
    form the separator, which is numbered after both halves; no edge then
    joins the halves.  Parts of at most 8 nodes keep their node order.
    """
    free = mesh.free_nodes
    pos = np.full(mesh.n_vertices, -1)
    pos[free] = np.arange(free.size)
    t = np.sort(pos[mesh.triangles], axis=1)
    # each edge once, as (lower, upper) position, among free nodes only
    pairs = np.unique(np.concatenate([t[:, 0] * free.size + t[:, 1],
                                      t[:, 0] * free.size + t[:, 2],
                                      t[:, 1] * free.size + t[:, 2]]))
    edges = np.column_stack(np.divmod(pairs, free.size))
    edges = edges[edges[:, 0] >= 0]
    keys, _ = _dissection_keys(mesh.vertices[free], edges)
    return np.argsort(keys, kind="stable")


def _dissection_keys(points: np.ndarray, edges: np.ndarray):
    """Base-3 codes of the nodes' places in a nested dissection, and the
    number of digits.

    Digit l (most significant first) is 0 or 1 for the lower or upper half
    of the cut at level l, and 2 for that cut's separator; a node pads with
    0 once its part is no longer cut.  Sorting by code puts each separator
    after both halves of its part.  All parts are cut level by level at
    once: the open nodes of one part share one code.
    """
    n = points.shape[0]
    # coordinates as ranks, equal coordinates sharing one
    ranks = [np.unique(c, return_inverse=True)[1] for c in points.T]
    u, v = np.ascontiguousarray(edges.T)
    keys = np.zeros(n, dtype=np.int64)
    is_open = np.ones(n, dtype=bool)
    nodes = np.arange(n)
    levels = 0
    while nodes.size and levels < _DISSECTION_DEPTH:
        _, part, size = np.unique(keys[nodes], return_inverse=True,
                                  return_counts=True)
        extent = []
        for c in points[nodes].T:
            lo = np.full(size.size, np.inf)
            hi = np.full(size.size, -np.inf)
            np.minimum.at(lo, part, c)
            np.maximum.at(hi, part, c)
            extent.append(hi - lo)
        longer = (extent[1] > extent[0])[part]
        coord = np.where(longer, ranks[1][nodes], ranks[0][nodes])
        first = np.concatenate([[0], np.cumsum(size)[:-1]])
        median = coord[np.argsort(part * n + coord)[first + size // 2]]
        lower = coord < median[part]
        n_lower = np.bincount(part, weights=lower, minlength=size.size)
        cut = ((size > _DISSECTION_LEAF) & (n_lower > 0)
               & (n_lower < size))[part]

        side = np.zeros(n, dtype=bool)
        side[nodes] = lower
        separator = np.zeros(n, dtype=bool)
        across = side[u] != side[v]
        separator[np.where(side[u], v, u)[across]] = True
        digit = np.where(lower, 0, np.where(separator[nodes], 2, 1))
        digit[~cut] = 0

        keys *= 3
        keys[nodes] += digit
        is_open[nodes[~cut | separator[nodes]]] = False
        nodes = nodes[is_open[nodes]]
        levels += 1
        same = is_open[u] & is_open[v] & (keys[u] == keys[v])
        u, v = u[same], v[same]
    return keys, levels
