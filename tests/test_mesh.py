import gc
import weakref

import numpy as np
import pytest

from hdgplate import verification as vf
from hdgplate.assembly import PlateMaterial, SpaceConfig
from hdgplate.femspace import element_batches
from hdgplate.mesh import (Mesh, MeshTopologyError, ShapeRegularityWarning,
                           generate_structured)
from meshes import (arrays_in, mixed_group_mesh, mixed_strip, renumbered,
                    renumbered_grid)


NONCONVEX_PENTAGON = np.array([[0, 0], [2, 0], [1, 0.2], [2, 2], [0, 2]])

# triangles, pentagons and quadrilaterals tiling [0, 1]^2, the groups
# interleaved in the element order
MIXED_POINTS = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0],
                         [4.0, 0.0], [2.0, 1.0], [0.0, 2.0], [2.0, 2.0],
                         [4.0, 2.0], [0.0, 3.0], [2.0, 3.0], [4.0, 3.0]]) \
    / np.array([4.0, 3.0])
MIXED_LOOPS = [(1, 2, 5), (0, 1, 5, 7, 6), (6, 7, 10, 9),
               (2, 3, 5), (3, 4, 8, 7, 5), (7, 8, 11, 10)]


def euler_characteristic(mesh):
    return len(mesh.points) - mesh.num_edges + mesh.num_elements


class TestGenerators:
    def test_triangle_2x2_counts(self):
        mesh = generate_structured("triangle", 2)
        assert (len(mesh.points), mesh.num_edges, mesh.num_elements) == (9, 16, 8)
        assert euler_characteristic(mesh) == 1

    def test_quad_2x2_counts(self):
        mesh = generate_structured("quadrilateral", 2)
        assert (len(mesh.points), mesh.num_edges, mesh.num_elements) == (9, 12, 4)

    def test_triangle_1x1(self):
        mesh = generate_structured("triangle", 1)
        assert (len(mesh.points), mesh.num_edges, mesh.num_elements) == (4, 5, 2)
        assert mesh.area == pytest.approx([0.5, 0.5], abs=1e-15)

    def test_loop_order(self):
        # cells row by row from the lower-left corner, each triangle pair
        # split along the lower-left to upper-right diagonal
        quad = generate_structured("quadrilateral", 2)
        assert [el.vertex_loop for el in quad.elements] == [
            (0, 1, 4, 3), (1, 2, 5, 4), (3, 4, 7, 6), (4, 5, 8, 7)]
        tri = generate_structured("triangle", 2)
        assert [el.vertex_loop for el in tri.elements] == [
            (0, 1, 4), (0, 4, 3), (1, 2, 5), (1, 5, 4),
            (3, 4, 7), (3, 7, 6), (4, 5, 8), (4, 8, 7)]

    def test_bad_args(self):
        with pytest.raises(ValueError):
            generate_structured("triangle", 0)
        with pytest.raises(ValueError, match="unknown mesh kind 'hex'"):
            generate_structured("hex", 2)
        with pytest.raises(ValueError, match=r"^n=2.5 must be an integer$"):
            generate_structured("quadrilateral", 2.5)

    @pytest.mark.parametrize("kind", ["triangle", "quadrilateral"])
    def test_euler_relation(self, kind):
        for n in (1, 3, 5, 8):
            assert euler_characteristic(generate_structured(kind, n)) == 1

    @pytest.mark.parametrize("kind", ["triangle", "quadrilateral"])
    def test_refinement_halving_exact(self, kind):
        for n in (1, 2, 4, 8):
            coarse = generate_structured(kind, n)
            fine = generate_structured(kind, 2 * n)
            assert fine.h == coarse.h / 2  # bitwise for dyadic meshes


class TestGeometry:
    def test_outward_normals_unit_square(self):
        mesh = generate_structured("quadrilateral", 1)
        normals = element_batches(mesh)[0].normals[0]
        expected = [(0, -1), (1, 0), (0, 1), (-1, 0)]
        for got, want in zip(normals, expected):
            assert got == pytest.approx(want, abs=1e-15)

    def test_normal_sum_closes(self):
        for kind in ("triangle", "quadrilateral"):
            mesh = generate_structured(kind, 3)
            for batch in element_batches(mesh):
                total = (batch.edge_len[..., None] * batch.normals).sum(1)
                assert np.abs(total).max() <= 1e-13

    def test_interior_edge_normals_opposite(self):
        mesh = generate_structured("triangle", 3)
        interior = ~mesh.boundary_mask
        # signs exactly opposite on the shared normal
        net = np.bincount(mesh.loop_edges, weights=mesh.loop_signs)
        assert np.all(net[interior] == 0)
        assert np.all(np.abs(net[~interior]) == 1)

    def test_edge_frame_orthonormal(self):
        mesh = generate_structured("triangle", 4)
        for batch in element_batches(mesh):
            t, n = batch.tangents, batch.normals
            assert np.linalg.norm(t, axis=-1) == pytest.approx(1.0, abs=1e-14)
            assert np.linalg.norm(n, axis=-1) == pytest.approx(1.0, abs=1e-14)
            assert (t * n).sum(-1) == pytest.approx(0.0, abs=1e-15)

    def test_tangent_fixed_by_vertex_order(self):
        mesh = generate_structured("quadrilateral", 2)
        lo, hi = mesh.edge_vertices.T
        assert np.all(lo < hi)
        d = mesh.points[hi] - mesh.points[lo]
        tangent = d / np.linalg.norm(d, axis=1)[:, None]
        for batch in element_batches(mesh):
            # the in-element tangent is the global one times the sign
            want = batch.edge_signs[..., None] * tangent[batch.edge_ids]
            assert batch.tangents == pytest.approx(want, abs=1e-14)

    def test_normal_points_outward(self):
        mesh = generate_structured("triangle", 2)
        for batch in element_batches(mesh):
            mid = mesh.points[mesh.edge_vertices[batch.edge_ids]].mean(axis=2)
            out = ((mid - batch.centroid[:, None, :]) * batch.normals).sum(-1)
            assert np.all(out > 0)

    def test_adjacency_symmetric(self):
        # each slot's edge joins the slot's vertex to the next in its loop
        mesh = generate_structured("quadrilateral", 3)
        for batch in element_batches(mesh):
            slots = mesh.slots(batch.ids)
            a = mesh.loop_vertices[slots]
            pairs = np.sort(np.stack([a, np.roll(a, -1, axis=1)], -1), -1)
            assert np.array_equal(mesh.edge_vertices[batch.edge_ids], pairs)

    def test_adjacency_counts(self):
        mesh = generate_structured("triangle", 3)
        adjacent = np.bincount(mesh.loop_edges)
        assert np.array_equal(adjacent, np.where(mesh.boundary_mask, 1, 2))

    def test_shape_regularity_warning(self):
        points = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.001], [0.0, 0.001]])
        with pytest.warns(ShapeRegularityWarning,
                          match=r"^element 0: edge 1 shorter than 0.05 \* h_K$"):
            Mesh(points, [(0, 1, 2, 3)])


def reference_geometry(points, loops):
    """Edge numbering and element geometry by a loop over the elements,
    with the per-element formulas that Mesh applies to whole groups."""
    edge_of_pair, edge_ids, signs = {}, [], []
    area, centroid, diameter = [], [], []
    for loop in loops:
        pts = points[list(loop)]
        x, y = pts[:, 0], pts[:, 1]
        xn, yn = np.roll(x, -1), np.roll(y, -1)
        cross = x * yn - xn * y
        a = 0.5 * np.sum(cross)
        area.append(a)
        centroid.append([np.sum((x + xn) * cross) / (6.0 * a),
                         np.sum((y + yn) * cross) / (6.0 * a)])
        diff = pts[:, None, :] - pts[None, :, :]
        diameter.append(np.sqrt((diff ** 2).sum(-1)).max())
        for v, w in zip(loop, loop[1:] + loop[:1]):
            key = (min(v, w), max(v, w))
            edge_ids.append(edge_of_pair.setdefault(key, len(edge_of_pair)))
            signs.append(1 if v == key[0] else -1)
    ends = np.array(list(edge_of_pair))   # first-appearance order
    d = points[ends[:, 1]] - points[ends[:, 0]]
    return {"edge_vertices": ends, "edge_length": np.hypot(d[:, 0], d[:, 1]),
            "boundary_mask": np.bincount(edge_ids) == 1,
            "loop_edges": np.array(edge_ids), "loop_signs": np.array(signs),
            "area": np.array(area), "centroid": np.array(centroid),
            "diameter": np.array(diameter)}


class TestArrays:
    @pytest.mark.parametrize("points, loops", [
        (MIXED_POINTS, MIXED_LOOPS),
        renumbered_grid("triangle", 6, seed=3),
        renumbered_grid("quadrilateral", 5, seed=4),
    ], ids=["mixed", "tri-renumbered", "quad-renumbered"])
    def test_bitwise_equal_to_per_element_reference(self, points, loops):
        mesh = Mesh(points, loops)
        for name, want in reference_geometry(points, loops).items():
            got = getattr(mesh, name)
            assert got.shape == want.shape, name
            assert np.array_equal(got, want), name
        assert mesh.h == max(mesh.diameter)

    def test_groups_and_batches_slice_the_arrays(self):
        mesh = Mesh(MIXED_POINTS, MIXED_LOOPS)
        assert [g.tolist() for g in mesh.groups] == [[0, 3], [2, 5], [1, 4]]
        for batch, ids in zip(element_batches(mesh), mesh.groups):
            assert np.array_equal(batch.ids, ids)
            assert batch.nv == len(MIXED_LOOPS[ids[0]])
            for row, eid in enumerate(ids):
                loop = list(MIXED_LOOPS[eid])
                assert np.array_equal(batch.verts[row], MIXED_POINTS[loop])
                start = mesh.loop_start[eid]
                sl = slice(start, start + len(loop))
                assert np.array_equal(batch.edge_ids[row], mesh.loop_edges[sl])
                assert np.array_equal(batch.edge_signs[row],
                                      mesh.loop_signs[sl])
            assert np.array_equal(batch.centroid, mesh.centroid[ids])
            assert np.array_equal(batch.h, mesh.diameter[ids])
            assert np.array_equal(batch.edge_len,
                                  mesh.edge_length[batch.edge_ids])

    def test_arrays_are_read_only(self):
        mesh = generate_structured("triangle", 2)
        with pytest.raises(ValueError):
            mesh.area[0] = 1.0
        with pytest.raises(ValueError):
            mesh.loop_edges[0] = 3


class TestEdgeOrder:
    @pytest.mark.parametrize("points, loops", [
        (MIXED_POINTS, MIXED_LOOPS),
        renumbered_grid("triangle", 12, seed=3),
        renumbered_grid("quadrilateral", 10, seed=4),
    ], ids=["mixed", "tri-renumbered", "quad-renumbered"])
    def test_cached_read_only_permutation(self, points, loops):
        mesh = Mesh(points, loops)
        order = mesh.edge_order
        assert np.array_equal(np.sort(order), np.arange(mesh.num_edges))
        assert mesh.edge_order is order
        with pytest.raises(ValueError):
            order[0] = 1

    @pytest.mark.parametrize("base", [
        lambda: generate_structured("triangle", 12),
        lambda: generate_structured("quadrilateral", 10),
        lambda: mixed_strip(12),
    ], ids=["tri", "quad", "mixed"])
    def test_order_depends_on_geometry_only(self, base):
        # the edge midpoints, taken in edge order, are the same sequence
        # for every vertex and element numbering of one mesh
        def ordered_midpoints(mesh):
            return mesh.points[mesh.edge_vertices].mean(axis=1)[
                mesh.edge_order]
        base = base()
        want = ordered_midpoints(base)
        for seed in (1, 2, 3):
            got = ordered_midpoints(Mesh(*renumbered(base, seed)))
            assert np.array_equal(got, want), seed

    @pytest.mark.parametrize("seed", [0, 5])
    def test_root_separator_is_midline_numbered_last(self, seed):
        # 512 triangles: the first cut is at x = 1/2 (equal extents split
        # along x), and the 16 edges on that line come last
        mesh = Mesh(*renumbered_grid("triangle", 16, seed))
        on_midline = np.all(mesh.points[mesh.edge_vertices][..., 0] == 0.5,
                            axis=1)
        assert np.count_nonzero(on_midline) == 16
        assert np.all(on_midline[mesh.edge_order[-16:]])


class TestTopologyErrors:
    def test_empty_mesh(self):
        with pytest.raises(MeshTopologyError, match=r"^mesh has no elements$"):
            Mesh(MIXED_POINTS, [])

    def test_fewer_than_three_vertices(self):
        with pytest.raises(MeshTopologyError,
                           match=r"^element 1 has fewer than 3 vertices$"):
            Mesh(MIXED_POINTS, [(1, 2, 5), (2, 3)])

    @pytest.mark.parametrize("bad", [12, -1])
    def test_unknown_vertex(self, bad):
        with pytest.raises(MeshTopologyError,
                           match=r"^element 2 references unknown vertex$"):
            Mesh(MIXED_POINTS, [(1, 2, 5), (2, 3, 5), (3, 4, bad)])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_vertex(self, bad):
        with pytest.raises(ValueError,
                           match=r"^vertex 2 has a non-finite coordinate$"):
            Mesh([[0, 0], [1, 0], [bad, 1]], [[0, 1, 2]])

    def test_degenerate_edge(self):
        # vertices 3 and 4 coincide; the loops are CCW and convex
        points = np.array([[0, 0], [1, 0], [2, 0], [2, 1], [2, 1], [0, 1.0]])
        with pytest.raises(
                MeshTopologyError,
                match=r"^degenerate edge between vertices \(3, 4\)$"):
            Mesh(points, [(0, 1, 4, 5), (1, 2, 3, 4)])

    @pytest.mark.parametrize("loops", [
        [[0, 1, 2], [0, 1, 3]],     # folded onto each other along (0, 1)
        [[0, 1, 2], [0, 1, 2]],     # one triangle twice: no boundary edge
    ], ids=["folded", "duplicated"])
    def test_shared_edge_traversed_in_same_direction(self, loops):
        points = [(0, 0), (1, 0), (0, 1), (1, 1)]
        with pytest.raises(
                MeshTopologyError,
                match=r"^edge 0 \(0, 1\) is traversed in the same direction "
                      r"by both its elements$"):
            Mesh(points, loops)

    def test_nonmanifold_edge_rejected(self):
        # three triangles sharing the edge (0, 1)
        points = np.array([[0, 0], [1, 0], [0.5, 1], [0.5, -1], [1.5, 1]],
                          dtype=float)
        loops = [(0, 1, 2), (1, 0, 3), (0, 1, 4)]
        with pytest.raises(MeshTopologyError):
            Mesh(points, loops)

    def test_clockwise_loop_rejected(self):
        points = np.array([[0, 0], [1, 0], [0, 1]], dtype=float)
        with pytest.raises(MeshTopologyError):
            Mesh(points, [(0, 2, 1)])

    def test_nonconvex_element_rejected(self):
        # counter-clockwise with positive area, but vertex 2 is reflex
        with pytest.raises(MeshTopologyError, match="element 0 is not convex"):
            Mesh(NONCONVEX_PENTAGON, [(0, 1, 2, 3, 4)])

    def test_self_intersecting_element_rejected(self):
        # a pentagram turns left at every vertex but crosses itself
        angles = np.pi / 2 + 2 * np.pi * np.arange(5) / 5
        points = np.column_stack([np.cos(angles), np.sin(angles)])
        with pytest.raises(MeshTopologyError, match="not convex"):
            Mesh(points, [(0, 2, 4, 1, 3)])


class TestKept:
    """What is built from a mesh stays in its one store, ``Mesh.kept``."""

    @pytest.mark.parametrize("make", [
        mixed_group_mesh, lambda: generate_structured("quadrilateral", 2),
    ], ids=["mixed", "quad"])
    def test_only_kept_grows_read_only_and_freed(self, make):
        gc.collect()
        gc.disable()
        try:
            mesh = make()
            attrs = set(vars(mesh))
            assert "kept" in attrs and mesh.kept == {}
            for t in (1e-2, 1e-6):
                mat = PlateMaterial(t=t)
                ex = vf.exact_fields(mat)
                fields = vf.solve_plate(mesh, SpaceConfig(2), mat, ex)
                vf.table_errors(fields, ex)
            assert set(vars(mesh)) == attrs
            # no stage keeps its Y_A or S: stages one and three keep their
            # operator and factor, stage two its pattern and block maps;
            # table_errors keeps nothing
            poisson, saddle = ((2, True),), ((6, True), (2, False))
            assert set(mesh.kept) == {
                "edge_order", "element_batches", "edge_adjacency",
                ("poisson", 2), ("poisson", 2, "factor"),
                ("pattern", poisson), ("pattern", saddle),
                *(("pattern", saddle, name)
                  for name in ("B11", "B12", "B22c"))}
            for key, value in mesh.kept.items():
                arrays = list(arrays_in(value))
                assert arrays, key
                for arr in arrays:
                    with pytest.raises(ValueError, match="read-only"):
                        arr[...] = 0
            # the factor's own permutation: SuperLU takes no weak reference
            lu = weakref.ref(mesh.kept["poisson", 2, "factor"].perm)
            ref = weakref.ref(mesh)
            del mesh, fields, value, arrays
            assert ref() is None and lu() is None
        finally:
            gc.enable()
