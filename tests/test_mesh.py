import itertools

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
    assert list(mesh.cell_vertices()[0]) == [0, 1, 3, 4]
    assert list(mesh.cell_vertices()[3]) == [4, 5, 7, 8]
    mesh3 = build_mesh(3, 2)
    assert list(mesh3.cell_vertices()[0]) == [0, 1, 3, 4, 9, 10, 12, 13]


def test_neighbours_share_a_facet_with_opposite_signs(ref2, entity_ids):
    mesh = build_mesh(2, 2)
    # Elements 0 and 1 are adjacent along axis 0: the axis0+ facet (local
    # slot 1) of the one is the axis0- facet (slot 0) of the other.
    right_of_0, left_of_1 = mesh.cell_facets()[[0, 1], [1, 0]]
    assert right_of_0 == left_of_1 == entity_ids(mesh).facet[0, (1, 0)]
    facet_signs = ref2.orientation[ref2.facet_dof_mask]
    assert (facet_signs[1], facet_signs[0]) == (1.0, -1.0)


def test_every_interior_facet_is_shared_exactly_twice(ref2, ref3):
    for element, n in ((ref2, 3), (ref3, 2)):
        mesh = build_mesh(element.dim, n)
        facets = mesh.cell_facets().ravel()
        counts = np.bincount(facets, minlength=mesh.num_facets)
        signs = np.tile(element.orientation[element.facet_dof_mask], mesh.num_elements)
        signed = np.bincount(facets, weights=signs, minlength=mesh.num_facets)
        fflags = mesh.face_flags()[1].any(axis=0)
        assert np.all(counts[fflags] == 1)
        assert np.all(counts[~fflags] == 2)
        # Interior facets see one plus side and one minus side.
        assert np.all(signed[~fflags] == 0.0)


def test_boundary_counts():
    mesh = build_mesh(2, 4)
    vflags, fflags = (flags.any(axis=0) for flags in mesh.face_flags())
    assert vflags.sum() == 16
    assert fflags.sum() == 16
    mesh3 = build_mesh(3, 2)
    vflags3, fflags3 = (flags.any(axis=0) for flags in mesh3.face_flags())
    assert vflags3.sum() == 27 - 1
    assert fflags3.sum() == 6 * 4


@pytest.mark.parametrize("dim,n", [(2, 3), (3, 2)])
def test_boundary_flags_follow_multi_indices(dim, n, entity_ids):
    mesh = build_mesh(dim, n)
    ids = entity_ids(mesh)
    vflags, fflags = mesh.face_flags()
    # Faces in the order (axis0 lower, axis0 upper, axis1 lower, ...).
    for face, (axis, side) in enumerate(itertools.product(range(dim), (0, n))):
        for multi, v in ids.vertex.items():
            assert vflags[face, v] == (multi[axis] == side)
        for (normal, multi), f in ids.facet.items():
            assert fflags[face, f] == (normal == axis and multi[axis] == side)


@pytest.mark.parametrize("dim,n", [(2, 3), (3, 2)])
def test_cell_centers_equal_element_geometry(dim, n, entity_ids):
    mesh = build_mesh(dim, n, domain=((-0.5,) * dim, (1.5,) * dim))
    ids = entity_ids(mesh)
    centers = mesh.cell_centers()
    assert centers.shape == (mesh.num_elements, dim)
    for e in range(mesh.num_elements):
        assert np.array_equal(centers[e], ids.center(e))


def test_geometry_maps_reference_corners_to_vertices(entity_ids):
    mesh = build_mesh(2, 4, domain=((0.0, -1.0), (2.0, 1.0)))
    from rectmorley.element import reference_corners

    ids = entity_ids(mesh)
    vertex_multi = {v: m for m, v in ids.vertex.items()}
    corners = reference_corners(2)
    for e in (0, 5, 15):
        center = mesh.cell_centers()[e]
        for corner, vid in zip(corners, mesh.cell_vertices()[e]):
            mapped = center + mesh.half_width * np.asarray(corner)
            assert mapped == pytest.approx(ids.point(vertex_multi[vid]), abs=1e-14)


def test_facet_geometry_midpoints():
    from rectmorley.assembly import _entity_coordinates

    mesh = build_mesh(2, 2)
    fid = mesh.cell_facets()[0, 1]  # right edge of cell (0, 0)
    # Doubled integer coordinates: the midpoint (0.5, 0.25) in half cell widths.
    assert list(_entity_coordinates(mesh)[mesh.num_vertices + fid]) == [2, 1]


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


@settings(max_examples=25, deadline=None)
@given(dim=st.sampled_from([2, 3]), n=st.integers(min_value=1, max_value=4))
def test_incidence_sizes_are_consistent(dim, n):
    mesh = build_mesh(dim, n)
    assert mesh.num_elements == n ** dim
    assert mesh.num_vertices == (n + 1) ** dim
    assert mesh.num_facets == dim * (n + 1) * n ** (dim - 1)
    assert mesh.cell_vertices().shape == (mesh.num_elements, 2 ** dim)
    assert mesh.cell_facets().shape == (mesh.num_elements, 2 * dim)
