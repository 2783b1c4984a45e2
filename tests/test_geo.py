import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from portcall import geo

SQUARE = geo.Polygon("square", "terminal", ((0.0, 0.0), (0.0, 1.0), (1.0, 1.0), (1.0, 0.0)))


class TestHaversine:
    def test_zero_distance(self):
        assert geo.haversine_m(37.0, 23.5, 37.0, 23.5) == 0.0

    def test_one_degree_longitude_at_equator(self):
        # 2*pi*R/360 along the equator
        expect = 2 * math.pi * geo.EARTH_RADIUS_M / 360.0
        assert geo.haversine_m(0.0, 0.0, 0.0, 1.0) == pytest.approx(expect, rel=1e-9)

    @given(
        st.floats(min_value=-85, max_value=85),
        st.floats(min_value=-180, max_value=180),
        st.floats(min_value=-85, max_value=85),
        st.floats(min_value=-180, max_value=180),
    )
    def test_symmetric(self, lat1, lon1, lat2, lon2):
        assert geo.haversine_m(lat1, lon1, lat2, lon2) == geo.haversine_m(lat2, lon2, lat1, lon1)

    @settings(max_examples=50)
    @given(
        st.lists(
            st.tuples(st.floats(min_value=-80, max_value=80), st.floats(min_value=-179, max_value=179)),
            min_size=3,
            max_size=3,
        )
    )
    def test_triangle_inequality(self, pts):
        a, b, c = pts
        ab = geo.haversine_m(*a, *b)
        bc = geo.haversine_m(*b, *c)
        ac = geo.haversine_m(*a, *c)
        assert ac <= ab + bc + 1e-6


class TestProjection:
    def test_origin_maps_to_zero(self):
        assert geo.project_local(34.0, 18.0, 34.0, 18.0) == (0.0, 0.0)

    def test_one_degree_north(self):
        x, y = geo.project_local(34.0, 18.0, 35.0, 18.0)
        assert x == 0.0
        assert y == pytest.approx(2 * math.pi * geo.EARTH_RADIUS_M / 360.0, rel=1e-9)

    def test_agrees_with_haversine_nearby(self):
        # within 20 km of the origin the planar distance is within 1%
        lat0, lon0 = 34.45, 18.30
        for dn in range(-18, 19, 6):
            for de in range(-18, 19, 6):
                lat = lat0 + dn / 111.0
                lon = lon0 + de / (111.0 * math.cos(math.radians(lat0)))
                x, y = geo.project_local(lat0, lon0, lat, lon)
                planar = math.hypot(x, y)
                true = geo.haversine_m(lat0, lon0, lat, lon)
                if true > 100.0:
                    assert planar == pytest.approx(true, rel=0.01)


class TestPolygon:
    def test_contains_inside_outside(self):
        assert SQUARE.contains(0.5, 0.5)
        assert not SQUARE.contains(2.0, 2.0)

    def test_boundary_counts_as_inside(self):
        assert SQUARE.contains(0.0, 0.5)
        assert SQUARE.contains(1.0, 1.0)  # vertex
        assert SQUARE.contains(0.5, 0.0)

    def test_boundary_convention_against_shapely(self):
        shapely = pytest.importorskip("shapely.geometry")
        poly = shapely.Polygon([(lon, lat) for lat, lon in SQUARE.ring])
        # dense grid around the edges, including exact edge points
        steps = [i / 20 for i in range(-2, 23)]
        for lat in steps:
            for lon in steps:
                ours = SQUARE.contains(lat, lon)
                ref = poly.covers(shapely.Point(lon, lat))
                assert ours == ref, f"mismatch at ({lat}, {lon})"

    def test_translation_invariance(self):
        for dlat, dlon in ((0.3, -0.7), (-1.2, 2.5)):
            moved = geo.Polygon("m", "terminal", tuple((a + dlat, b + dlon) for a, b in SQUARE.ring))
            for lat, lon in ((0.5, 0.5), (0.99, 0.01), (1.5, 0.2), (0.0, 0.0)):
                assert SQUARE.contains(lat, lon) == moved.contains(lat + dlat, lon + dlon)

    def test_explicitly_closed_ring_accepted(self):
        ring = ((0.0, 0.0), (0.0, 1.0), (1.0, 1.0), (0.0, 0.0))
        assert len(geo.Polygon("p", "anchorage", ring).ring) == 3

    def test_too_few_vertices(self):
        with pytest.raises(geo.InvalidPolygon):
            geo.Polygon("p", "anchorage", ((0.0, 0.0), (1.0, 1.0)))

    def test_repeated_vertex(self):
        with pytest.raises(geo.InvalidPolygon):
            geo.Polygon("p", "anchorage", ((0.0, 0.0), (0.0, 0.0), (1.0, 1.0), (1.0, 0.0)))

    def test_self_intersection(self):
        bowtie = ((0.0, 0.0), (1.0, 1.0), (0.0, 1.0), (1.0, 0.0))
        with pytest.raises(geo.InvalidPolygon):
            geo.Polygon("p", "anchorage", bowtie)

    @pytest.mark.parametrize("vertex", [(math.nan, 0.5), (0.5, math.nan), (95.0, 0.5), (-90.5, 0.5), (0.5, 180.5),
                                        (0.5, -181.0), (math.inf, 0.5), (0.5, -math.inf)])
    def test_a_vertex_off_the_globe(self, vertex):
        """A NaN vertex once loaded, and every point it should have held tested outside the polygon."""
        with pytest.raises(geo.InvalidPolygon, match="not on the globe"):
            geo.Polygon("p", "anchorage", ((0.0, 0.0), (0.0, 1.0), vertex, (1.0, 0.0)))

    def test_vertices_on_the_globe_s_edges_are_taken(self):
        ring = ((-90.0, -180.0), (-90.0, 180.0), (90.0, 180.0), (90.0, -180.0))
        assert geo.Polygon("p", "anchorage", ring).contains(0.0, 0.0)


EDGE_EPS = 1e-9  # the boundary tolerance of the polygon test, in degrees


def _star(lat, lon, scale, spokes, grid):
    """A ring around (lat, lon) through one vertex per spoke (angle as a fraction of a turn, radius as a fraction
    of scale), in angle order, so it does not cross itself; with a grid, every vertex snapped to it."""
    ring = []
    for turn, radius in sorted(spokes):
        a, b = lat + scale * radius * math.sin(2 * math.pi * turn), lon + scale * radius * math.cos(2 * math.pi * turn)
        ring.append((round(a / grid) * grid, round(b / grid) * grid) if grid else (a, b))
    return ring


coordinates = st.tuples(st.floats(-80.0, 80.0), st.floats(-179.0, 179.0))
sizes = st.sampled_from((1e-4, 1e-3, 0.01, 0.5)) | st.floats(1e-4, 1.0)
rings = (
    st.builds(lambda c, h, w: [c, (c[0], c[1] + w), (c[0] + h, c[1] + w), (c[0] + h, c[1])], coordinates, sizes, sizes)
    | st.builds(_star, st.floats(-80.0, 80.0), st.floats(-179.0, 179.0), sizes,
                st.lists(st.tuples(st.floats(0.0, 1.0, exclude_max=True), st.floats(0.1, 1.0)), min_size=3,
                         max_size=8, unique_by=lambda spoke: spoke[0]),
                st.sampled_from((None, 1e-3, 0.25)))
)
NUDGES = (0.0, 0.5, 0.999, 1.0, 1.001, 2.0, -0.5, -1.0, -1.001, -2.0)  # in units of EDGE_EPS


def _edge_point(data, ring):
    """A vertex, a point on an edge, or a point a few EDGE_EPS off an edge, by distance or by cross product."""
    i = data.draw(st.integers(0, len(ring) - 1))
    (alat, alon), (blat, blon) = ring[i], ring[i - 1]
    t = data.draw(st.sampled_from((0.0, 0.5, 1.0)) | st.floats(0.0, 1.0))
    lat, lon = alat + t * (blat - alat), alon + t * (blon - alon)
    length = math.hypot(blat - alat, blon - alon)
    k = data.draw(st.sampled_from(NUDGES))
    unit = data.draw(st.sampled_from((1.0, 1.0 / length)))  # a distance, or a cross product, of k EDGE_EPS
    return lat - k * EDGE_EPS * unit * (blon - alon) / length, lon + k * EDGE_EPS * unit * (blat - alat) / length


def _box_point(data, ring):
    """A point on, or a few EDGE_EPS beside, an edge of the ring's bounding box, or anywhere near the box."""
    lats, lons = [p[0] for p in ring], [p[1] for p in ring]
    lat = data.draw(st.floats(min(lats) - 2 * EDGE_EPS, max(lats) + 2 * EDGE_EPS))
    lon = data.draw(st.floats(min(lons) - 2 * EDGE_EPS, max(lons) + 2 * EDGE_EPS))
    side = data.draw(st.sampled_from(("lat", "lon", None)))
    edge = data.draw(st.sampled_from((min, max))) if side else None
    k = data.draw(st.sampled_from(NUDGES))
    if side == "lat":
        lat = edge(lats) + k * EDGE_EPS
    elif side == "lon":
        lon = edge(lons) + k * EDGE_EPS
    return lat, lon


@settings(max_examples=150, deadline=None)
@given(rings, st.data())
def test_polygon_test_is_the_scalar_rule(ring, data):
    """One array test against the even-odd rule one point and one edge at a time: vertices, points on edges and
    within EDGE_EPS of them, the box edges and the horizontal edges of rectangles and snapped rings."""
    try:
        poly = geo.Polygon("p", "terminal", tuple(ring))
    except geo.InvalidPolygon:
        assume(False)
    points = [data.draw(st.sampled_from((_edge_point, _box_point)))(data, poly.ring) for _ in range(12)]
    points.append(poly.ring[data.draw(st.integers(0, len(poly.ring) - 1))])
    expected = [oracles.polygon_contains(poly.ring, lat, lon) for lat, lon in points]
    lats, lons = np.array([p[0] for p in points]), np.array([p[1] for p in points])
    assert poly.contains(lats, lons).tolist() == expected
    assert [poly.contains(lat, lon) for lat, lon in points] == expected
    assert geo.AreaFilter(polygon=poly).contains(lats, lons).tolist() == expected
    port = geo.PortGeometry(anchorages=(poly,), terminals=())
    assert [port.anchorage_at(lat, lon) is poly for lat, lon in points] == expected


def _feature(name, kind, ring_latlon):
    coords = [[lon, lat] for lat, lon in ring_latlon]
    coords.append(coords[0])
    return {
        "type": "Feature",
        "properties": {"name": name, "kind": kind},
        "geometry": {"type": "Polygon", "coordinates": [coords]},
    }


class TestGeoJson:
    def test_load_port_geometry(self, tmp_path):
        fc = {
            "type": "FeatureCollection",
            "features": [
                _feature("anch", "anchorage", [(0, 0), (0, 1), (1, 1), (1, 0)]),
                _feature("berth", "terminal", [(2, 2), (2, 3), (3, 3), (3, 2)]),
            ],
        }
        path = tmp_path / "port.geojson"
        path.write_text(json.dumps(fc))
        port = geo.load_port_geometry(path)
        assert [p.name for p in port.anchorages] == ["anch"]
        assert [p.name for p in port.terminals] == ["berth"]
        assert port.anchorage_at(0.5, 0.5).name == "anch"
        assert port.terminal_at(2.5, 2.5).name == "berth"
        assert port.terminal_at(0.5, 0.5) is None

    def test_kind_required(self):
        fc = {"type": "FeatureCollection", "features": [_feature("x", "harbor", [(0, 0), (0, 1), (1, 1)])]}
        with pytest.raises(geo.InvalidPolygon):
            geo.load_port_geometry(fc)

    def test_name_required(self):
        bad = _feature("x", "terminal", [(0, 0), (0, 1), (1, 1)])
        del bad["properties"]["name"]
        with pytest.raises(geo.InvalidPolygon):
            geo.load_port_geometry({"type": "FeatureCollection", "features": [bad]})

    def test_holes_rejected(self):
        f = _feature("x", "terminal", [(0, 0), (0, 3), (3, 3), (3, 0)])
        f["geometry"]["coordinates"].append([[1, 1], [1, 2], [2, 2], [1, 1]])
        with pytest.raises(geo.InvalidPolygon):
            geo.load_port_geometry({"type": "FeatureCollection", "features": [f]})

    @pytest.mark.parametrize("data", [
        [], "port", {"type": "FeatureCollection", "features": {"a": 1}},
        {"type": "FeatureCollection", "features": [[1, 2]]},
        {"type": "FeatureCollection", "features": [{"type": "Feature", "geometry": [], "properties": {}}]},
        {"type": "FeatureCollection", "features": [{"type": "Feature", "properties": {"name": "x", "kind": "terminal"},
                                                    "geometry": {"type": "Polygon", "coordinates": None}}]},
    ], ids=["list", "string", "features-object", "feature-list", "geometry-list", "no-rings"])
    def test_json_of_another_shape_is_invalid(self, data, tmp_path):
        path = tmp_path / "port.geojson"
        path.write_text(json.dumps(data))
        with pytest.raises(geo.InvalidPolygon):
            geo.load_port_geometry(path)
        with pytest.raises(geo.InvalidPolygon):
            geo.AreaFilter.from_geojson(path)

    @pytest.mark.parametrize("point", [None, [None, 1.0], [1.0], [1.0, "x"], "ab", 5],
                             ids=["null", "null-lon", "one-number", "text-lat", "text", "number"])
    def test_a_vertex_that_is_not_a_number_pair_is_invalid(self, point):
        f = _feature("x", "terminal", [(0, 0), (0, 1), (1, 1), (1, 0)])
        f["geometry"]["coordinates"][0][1] = point
        with pytest.raises(geo.InvalidPolygon, match="pairs of numbers"):
            geo.load_port_geometry({"type": "FeatureCollection", "features": [f]})
        with pytest.raises(geo.InvalidPolygon, match="pairs of numbers"):
            geo.AreaFilter.from_geojson(f)

    def test_area_filter_circle_and_polygon(self):
        circle = geo.AreaFilter.circle(34.0, 18.0, 5000.0)
        assert circle.contains(34.0, 18.0)
        assert not circle.contains(35.0, 18.0)
        area = geo.AreaFilter.from_geojson(
            {"type": "FeatureCollection", "features": [_feature("a", "terminal", [(0, 0), (0, 1), (1, 1), (1, 0)])]}
        )
        assert area.contains(0.5, 0.5)
        assert not area.contains(1.5, 0.5)
