import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rectmorley.mesh import build_mesh


def test_entity_counts_2d():
    mesh = build_mesh(2, 2)
    assert mesh.num_elements == 4
    assert mesh.num_vertices == 9
    assert mesh.facets_per_axis == 6
    assert mesh.num_facets == 12
    assert mesh.cell_width == pytest.approx(0.5)
    assert mesh.half_width == pytest.approx(0.25)


def test_entity_counts_3d():
    mesh = build_mesh(3, 2)
    assert mesh.num_elements == 8
    assert mesh.num_vertices == 27
    assert mesh.num_facets == 36


def test_element_vertices_follow_corner_order():
    mesh = build_mesh(2, 2)
    # Vertex ids stride 1 along axis 0 and n+1 = 3 along axis 1.
    assert list(mesh.element_vertices(0)) == [0, 1, 3, 4]
    assert list(mesh.element_vertices(3)) == [4, 5, 7, 8]
    mesh3 = build_mesh(3, 2)
    assert list(mesh3.element_vertices(0)) == [0, 1, 3, 4, 9, 10, 12, 13]


def test_neighbours_share_a_facet_with_opposite_signs():
    mesh = build_mesh(2, 2)
    # Elements 0 and 1 are adjacent along axis 0.
    right_of_0 = mesh.element_facets(0)[1]
    left_of_1 = mesh.element_facets(1)[0]
    assert right_of_0[0] == left_of_1[0]
    assert right_of_0[1] == 1.0
    assert left_of_1[1] == -1.0


def test_every_interior_facet_is_shared_exactly_twice():
    for dim, n in ((2, 3), (3, 2)):
        mesh = build_mesh(dim, n)
        counts = np.zeros(mesh.num_facets, dtype=int)
        signed = np.zeros(mesh.num_facets)
        for e in range(mesh.num_elements):
            for fid, sign in mesh.element_facets(e):
                counts[fid] += 1
                signed[fid] += sign
        _, fflags = mesh.boundary_flags()
        assert np.all(counts[fflags] == 1)
        assert np.all(counts[~fflags] == 2)
        # Interior facets see one plus side and one minus side.
        assert np.all(signed[~fflags] == 0.0)


def test_boundary_counts():
    mesh = build_mesh(2, 4)
    vflags, fflags = mesh.boundary_flags()
    assert vflags.sum() == 16
    assert fflags.sum() == 16
    mesh3 = build_mesh(3, 2)
    vflags3, fflags3 = mesh3.boundary_flags()
    assert vflags3.sum() == 27 - 1
    assert fflags3.sum() == 6 * 4


@pytest.mark.parametrize("dim,n", [(2, 3), (3, 2)])
def test_boundary_flags_follow_multi_indices(dim, n):
    mesh = build_mesh(dim, n)
    vflags, fflags = mesh.boundary_flags()
    for v in range(mesh.num_vertices):
        assert vflags[v] == any(m in (0, n) for m in mesh.vertex_multi_index(v))
    for f in range(mesh.num_facets):
        axis, multi = mesh.facet_axis_and_multi(f)
        assert fflags[f] == (multi[axis] in (0, n))


@pytest.mark.parametrize("dim,n", [(2, 3), (3, 2)])
def test_cell_centers_equal_element_geometry(dim, n):
    mesh = build_mesh(dim, n, domain=((-0.5,) * dim, (1.5,) * dim))
    centers = mesh.cell_centers()
    assert centers.shape == (mesh.num_elements, dim)
    for e in range(mesh.num_elements):
        assert np.array_equal(centers[e], mesh.element_geometry(e)[0])


def test_geometry_maps_reference_corners_to_vertices():
    mesh = build_mesh(2, 4, domain=((0.0, -1.0), (2.0, 1.0)))
    from rectmorley.element import reference_corners

    corners = reference_corners(2)
    for e in (0, 5, 15):
        center, h = mesh.element_geometry(e)
        vids = mesh.element_vertices(e)
        for corner, vid in zip(corners, vids):
            mapped = center + h * np.asarray(corner)
            assert mapped == pytest.approx(mesh.vertex_coords(vid), abs=1e-14)


def test_facet_geometry_midpoints():
    mesh = build_mesh(2, 2)
    fid, _ = mesh.element_facets(0)[1]  # right edge of cell (0, 0)
    axis, mid = mesh.facet_geometry(fid)
    assert axis == 0
    assert mid == pytest.approx([0.5, 0.25])


def test_round_trip_ids():
    mesh = build_mesh(3, 3)
    for v in range(mesh.num_vertices):
        assert mesh.vertex_id(mesh.vertex_multi_index(v)) == v
    for f in range(mesh.num_facets):
        axis, multi = mesh.facet_axis_and_multi(f)
        assert mesh.facet_id(axis, multi) == f


def test_build_mesh_validates_arguments():
    with pytest.raises(ValueError):
        build_mesh(1, 4)
    with pytest.raises(ValueError):
        build_mesh(4, 4)
    with pytest.raises(ValueError):
        build_mesh(2, 0)
    with pytest.raises(ValueError):
        # Rectangular but not square cells are rejected.
        build_mesh(2, 4, domain=((0.0, 0.0), (1.0, 2.0)))
    with pytest.raises(ValueError):
        build_mesh(2, 4, domain=((0.0, 0.0), (0.0, 0.0)))
    with pytest.raises(ValueError):
        build_mesh(2, 4, domain=((0.0,), (1.0,)))


def test_ids_rejected_out_of_range():
    mesh = build_mesh(2, 2)
    with pytest.raises(IndexError):
        mesh.element_multi_index(4)
    with pytest.raises(IndexError):
        mesh.facet_axis_and_multi(12)


@settings(max_examples=25, deadline=None)
@given(dim=st.sampled_from([2, 3]), n=st.integers(min_value=1, max_value=4))
def test_incidence_sizes_are_consistent(dim, n):
    mesh = build_mesh(dim, n)
    assert mesh.num_elements == n ** dim
    assert mesh.num_vertices == (n + 1) ** dim
    assert mesh.num_facets == dim * (n + 1) * n ** (dim - 1)
    for e in range(mesh.num_elements):
        assert len(mesh.element_vertices(e)) == 2 ** dim
        assert len(mesh.element_facets(e)) == 2 * dim
