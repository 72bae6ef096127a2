import io

import numpy as np
import pytest

from hdgplate.mesh import (Mesh, MeshFormatError, MeshTopologyError,
                           ShapeRegularityWarning, generate_structured,
                           load_mesh, save_mesh)


NONCONVEX_PENTAGON = np.array([[0, 0], [2, 0], [1, 0.2], [2, 2], [0, 2]])


def euler_characteristic(mesh):
    return mesh.num_vertices - mesh.num_edges + mesh.num_elements


class TestGenerators:
    def test_triangle_2x2_counts(self):
        mesh = generate_structured("triangle", 2)
        assert (mesh.num_vertices, mesh.num_edges, mesh.num_elements) == (9, 16, 8)
        assert euler_characteristic(mesh) == 1

    def test_quad_2x2_counts(self):
        mesh = generate_structured("quadrilateral", 2)
        assert (mesh.num_vertices, mesh.num_edges, mesh.num_elements) == (9, 12, 4)

    def test_triangle_1x1(self):
        mesh = generate_structured("triangle", 1)
        assert (mesh.num_vertices, mesh.num_edges, mesh.num_elements) == (4, 5, 2)
        assert all(el.area == pytest.approx(0.5, abs=1e-15) for el in mesh.elements)

    def test_bad_args(self):
        with pytest.raises(ValueError):
            generate_structured("triangle", 0)
        with pytest.raises(ValueError):
            generate_structured("hex", 2)

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
        normals = [mesh.outward_normal(0, i) for i in range(4)]
        expected = [(0, -1), (1, 0), (0, 1), (-1, 0)]
        for got, want in zip(normals, expected):
            assert got == pytest.approx(want, abs=1e-15)

    def test_normal_sum_closes(self):
        for kind in ("triangle", "quadrilateral"):
            mesh = generate_structured(kind, 3)
            for el in mesh.elements:
                total = np.zeros(2)
                for i, (eid, _) in enumerate(el.edges):
                    total += mesh.edges[eid].length * mesh.outward_normal(el.id, i)
                assert np.abs(total).max() <= 1e-13

    def test_interior_edge_normals_opposite(self):
        mesh = generate_structured("triangle", 3)
        for edge in mesh.edges:
            if edge.is_boundary:
                continue
            e1, e2 = edge.adjacent_elements
            n1 = next(s for eid, s in mesh.elements[e1].edges if eid == edge.id)
            n2 = next(s for eid, s in mesh.elements[e2].edges if eid == edge.id)
            assert n1 == -n2  # signs exactly opposite on the shared normal

    def test_edge_frame_orthonormal(self):
        mesh = generate_structured("triangle", 4)
        for e in mesh.edges:
            assert np.linalg.norm(e.tangent) == pytest.approx(1.0, abs=1e-14)
            assert np.linalg.norm(e.normal) == pytest.approx(1.0, abs=1e-14)
            assert e.tangent @ e.normal == pytest.approx(0.0, abs=1e-15)

    def test_tangent_fixed_by_vertex_order(self):
        mesh = generate_structured("quadrilateral", 2)
        for e in mesh.edges:
            assert e.endpoints[0] < e.endpoints[1]
            d = mesh.points[e.endpoints[1]] - mesh.points[e.endpoints[0]]
            assert d / np.linalg.norm(d) == pytest.approx(e.tangent, abs=1e-14)

    def test_normal_points_outward(self):
        mesh = generate_structured("triangle", 2)
        for el in mesh.elements:
            for i, (eid, _) in enumerate(el.edges):
                edge = mesh.edges[eid]
                mid = mesh.points[list(edge.endpoints)].mean(axis=0)
                assert (mid - el.centroid) @ mesh.outward_normal(el.id, i) > 0

    def test_adjacency_symmetric(self):
        mesh = generate_structured("quadrilateral", 3)
        for edge in mesh.edges:
            for eid in edge.adjacent_elements:
                assert any(e == edge.id for e, _ in mesh.elements[eid].edges)

    def test_adjacency_counts(self):
        mesh = generate_structured("triangle", 3)
        for edge in mesh.edges:
            expected = 1 if edge.is_boundary else 2
            assert len(edge.adjacent_elements) == expected

    def test_shape_regularity_warning(self):
        points = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.001], [0.0, 0.001]])
        with pytest.warns(ShapeRegularityWarning):
            Mesh(points, [(0, 1, 2, 3)], c_reg=0.05)


class TestIO:
    def test_roundtrip_identity(self):
        for kind, n in (("triangle", 3), ("quadrilateral", 2)):
            mesh = generate_structured(kind, n)
            buf = io.StringIO()
            save_mesh(mesh, buf)
            buf.seek(0)
            loaded = load_mesh(buf)
            assert np.array_equal(loaded.points, mesh.points)
            assert [el.vertex_loop for el in loaded.elements] \
                == [el.vertex_loop for el in mesh.elements]
            assert euler_characteristic(loaded) == 1

    def test_save_line_counts(self):
        buf = io.StringIO()
        save_mesh(generate_structured("quadrilateral", 2), buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "polymesh 1"
        assert lines[1] == "vertices 9"
        assert lines[11] == "elements 4"
        assert len(lines) == 2 + 9 + 1 + 4

    def test_empty_file_is_parse_error(self):
        with pytest.raises(MeshFormatError):
            load_mesh(io.StringIO(""))

    def test_parse_error_carries_line_number(self):
        text = "polymesh 1\nvertices 2\n0 0\nnot a number\n"
        with pytest.raises(MeshFormatError) as err:
            load_mesh(io.StringIO(text))
        assert err.value.line == 4

    def test_bad_header(self):
        with pytest.raises(MeshFormatError):
            load_mesh(io.StringIO("trimesh 7\n"))

    def test_vertex_out_of_range(self):
        text = "polymesh 1\nvertices 3\n0 0\n1 0\n0 1\nelements 1\n3 0 1 9\n"
        with pytest.raises(MeshFormatError):
            load_mesh(io.StringIO(text))

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

    def test_load_mesh_rejects_nonconvex_element(self):
        text = ("polymesh 1\nvertices 5\n"
                + "".join(f"{x} {y}\n" for x, y in NONCONVEX_PENTAGON)
                + "elements 1\n5 0 1 2 3 4\n")
        with pytest.raises(MeshTopologyError, match="not convex"):
            load_mesh(io.StringIO(text))

    def test_self_intersecting_element_rejected(self):
        # a pentagram turns left at every vertex but crosses itself
        angles = np.pi / 2 + 2 * np.pi * np.arange(5) / 5
        points = np.column_stack([np.cos(angles), np.sin(angles)])
        with pytest.raises(MeshTopologyError, match="not convex"):
            Mesh(points, [(0, 2, 4, 1, 3)])
