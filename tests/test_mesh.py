import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rectmorley.assembly import BC_CLAMPED, PARITY_EVEN, PARITY_ODD, build_dof_map
from rectmorley.element import reference_dof_points
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


def on_boundary(mesh):
    """Boundary flags of every entity: a doubled coordinate is 0 or 2n."""
    coords = mesh.entity_coordinates
    return ((coords == 0) | (coords == 2 * mesh.n)).any(axis=1)


def test_element_vertices_follow_corner_order():
    mesh = build_mesh(2, 2)
    # Vertex ids stride 1 along axis 0 and n+1 = 3 along axis 1.
    assert list(mesh.cell_entities[0, :4]) == [0, 1, 3, 4]
    assert list(mesh.cell_entities[3, :4]) == [4, 5, 7, 8]
    mesh3 = build_mesh(3, 2)
    assert list(mesh3.cell_entities[0, :8]) == [0, 1, 3, 4, 9, 10, 12, 13]


def test_neighbours_share_a_facet_with_opposite_signs(entity_ids):
    mesh = build_mesh(2, 2)
    # Elements 0 and 1 are adjacent along axis 0: the axis0+ facet (local
    # slot 4 + 1) of the one is the axis0- facet (slot 4 + 0) of the other.
    right_of_0, left_of_1 = mesh.cell_entities[[0, 1], [5, 4]]
    assert right_of_0 == left_of_1 == entity_ids(mesh).facet[0, (1, 0)]
    # Both see the one DOF along +x_0; their outward normal derivatives,
    # side times it, have opposite signs.
    sides = reference_dof_points(2)[[5, 4], 0]
    assert tuple(sides) == (1, -1)


def test_every_interior_facet_is_shared_exactly_twice(ref2, ref3):
    for element, n in ((ref2, 3), (ref3, 2)):
        mesh = build_mesh(element.dim, n)
        facets = mesh.cell_entities[:, element.facet_dof_mask].ravel()
        counts = np.bincount(facets, minlength=mesh.num_entities)[mesh.num_vertices:]
        sides = reference_dof_points(element.dim)[element.facet_dof_mask].sum(axis=1)
        signed = np.bincount(facets, weights=np.tile(sides, mesh.num_elements),
                             minlength=mesh.num_entities)[mesh.num_vertices:]
        fflags = on_boundary(mesh)[mesh.num_vertices:]
        assert np.all(counts[fflags] == 1)
        assert np.all(counts[~fflags] == 2)
        # Interior facets see one plus side and one minus side.
        assert np.all(signed[~fflags] == 0.0)


def test_boundary_counts():
    mesh = build_mesh(2, 4)
    vflags, fflags = np.split(on_boundary(mesh), [mesh.num_vertices])
    assert vflags.sum() == 16
    assert fflags.sum() == 16
    mesh3 = build_mesh(3, 2)
    vflags3, fflags3 = np.split(on_boundary(mesh3), [mesh3.num_vertices])
    assert vflags3.sum() == 27 - 1
    assert fflags3.sum() == 6 * 4


@pytest.mark.parametrize("dim,n", [(2, 3), (3, 2)])
def test_boundary_flags_follow_multi_indices(dim, n, entity_ids):
    # A condition on one face constrains exactly the entities in that face:
    # clamping it fixes its vertices and the facets lying in it.
    mesh = build_mesh(dim, n)
    ids = entity_ids(mesh)

    def fixed(face, others):
        faces = [others] * (2 * dim)
        faces[face] = BC_CLAMPED
        return build_dof_map(mesh, BC_CLAMPED, faces).entity_dof < 0

    # Faces in the order (axis0 lower, axis0 upper, axis1 lower, ...).
    for face, (axis, side) in enumerate(itertools.product(range(dim), (0, n))):
        # Odd faces fix vertices only, so the fixed facets are the clamped face's.
        facets = fixed(face, PARITY_ODD)
        for (normal, multi), f in ids.facet.items():
            assert facets[f] == (normal == axis and multi[axis] == side)
        # Even faces fix facets only, so the fixed vertices are the clamped face's.
        vertices = fixed(face, PARITY_EVEN)
        for multi, v in ids.vertex.items():
            assert vertices[v] == (multi[axis] == side)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("dim", [2, 3])
def test_cell_entities_match_the_oracle(dim, n, entity_ids):
    # Every cell's entities, in reference DOF order: its corner vertices,
    # then its facets (axis0-, axis0+, axis1-, ...).
    mesh = build_mesh(dim, n)
    ids = entity_ids(mesh)
    expected = [ids.vertices_of(e) + [fid for fid, _ in ids.facets_of(e)]
                for e in range(mesh.num_elements)]
    assert np.array_equal(mesh.cell_entities, expected)
    assert np.array_equal(mesh.entity_coordinates, ids.coordinates())


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
        for corner, vid in zip(corners, mesh.cell_entities[e]):
            mapped = center + mesh.half_width * np.asarray(corner)
            assert mapped == pytest.approx(ids.point(vertex_multi[vid]), abs=1e-14)


def test_facet_geometry_midpoints():
    mesh = build_mesh(2, 2)
    fid = mesh.cell_entities[0, 5]  # right edge of cell (0, 0)
    # Doubled integer coordinates: the midpoint (0.5, 0.25) in half cell widths.
    assert list(mesh.entity_coordinates[fid]) == [2, 1]


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
    assert mesh.num_entities == mesh.num_vertices + mesh.num_facets
    assert mesh.entity_coordinates.shape == (mesh.num_entities, dim)
    assert mesh.cell_entities.shape == (mesh.num_elements, 2 ** dim + 2 * dim)
    # Built once per mesh and shared read-only by every caller.
    for incidence in ("entity_coordinates", "cell_entities"):
        assert getattr(mesh, incidence) is getattr(mesh, incidence)
        assert not getattr(mesh, incidence).flags.writeable
