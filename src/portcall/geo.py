"""Geospatial primitives for port-area traffic analysis.

Everything works in plain latitude/longitude degrees. Port scenes span a few
kilometres, so polygons are treated as flat rings in lat/lon space and local
planar coordinates come from an equirectangular projection around a nearby
origin. Great-circle distances use the haversine formula on a spherical
Earth (R = 6,371 km), which is exact to well under a metre at port scale.
"""

import json
import math
import pathlib
from dataclasses import dataclass

import numpy as np

EARTH_RADIUS_M = 6_371_000.0

_DEG = math.pi / 180.0
_EDGE_EPS = 1e-9  # degrees; boundary tolerance for point-on-edge tests


class InvalidPolygon(ValueError):
    """Ring fails structural validation (size, duplicates, self-crossing)."""


def haversine_m(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Great-circle distance in metres between two lat/lon points."""
    phi1 = lat1 * _DEG
    phi2 = lat2 * _DEG
    dphi = (lat2 - lat1) * _DEG
    dlam = (lon2 - lon1) * _DEG
    a = math.sin(dphi / 2.0) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlam / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_M * math.asin(math.sqrt(a))


def project_local(origin_lat: float, origin_lon: float, lat, lon):
    """Project points to local planar metres around an origin.

    Equirectangular: x grows east, y grows north, and the longitude
    difference wraps at the antimeridian. Only meaningful near the origin.
    lat and lon may be floats or numpy arrays.
    """
    dlon = (lon - origin_lon + 180.0) % 360.0 - 180.0
    x = EARTH_RADIUS_M * dlon * _DEG * math.cos(origin_lat * _DEG)
    y = EARTH_RADIUS_M * (lat - origin_lat) * _DEG
    return x, y


def _orient(ax, ay, bx, by, cx, cy):
    return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)


def _on_segment(plat, plon, alat, alon, blat, blon):
    """Whether p lies on segment ab within _EDGE_EPS; p may be a float pair or numpy columns, a and b are floats."""
    cross = _orient(alon, alat, blon, blat, plon, plat)
    return (~(np.abs(cross) > _EDGE_EPS)
            & (min(alat, blat) - _EDGE_EPS <= plat) & (plat <= max(alat, blat) + _EDGE_EPS)
            & (min(alon, blon) - _EDGE_EPS <= plon) & (plon <= max(alon, blon) + _EDGE_EPS))


def _segments_cross(a, b, c, d) -> bool:
    """True when segment ab intersects cd (touching counts)."""
    d1 = _orient(c[1], c[0], d[1], d[0], a[1], a[0])
    d2 = _orient(c[1], c[0], d[1], d[0], b[1], b[0])
    d3 = _orient(a[1], a[0], b[1], b[0], c[1], c[0])
    d4 = _orient(a[1], a[0], b[1], b[0], d[1], d[0])
    if ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0)) and d1 != 0 and d2 != 0 and d3 != 0 and d4 != 0:
        return True
    if d1 == 0 and _on_segment(a[0], a[1], c[0], c[1], d[0], d[1]):
        return True
    if d2 == 0 and _on_segment(b[0], b[1], c[0], c[1], d[0], d[1]):
        return True
    if d3 == 0 and _on_segment(c[0], c[1], a[0], a[1], b[0], b[1]):
        return True
    if d4 == 0 and _on_segment(d[0], d[1], a[0], a[1], b[0], b[1]):
        return True
    return False


def _self_intersects(ring) -> bool:
    n = len(ring)
    edges = [(ring[i], ring[(i + 1) % n]) for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            # skip edges sharing a vertex (consecutive, incl. the wrap pair)
            if j == i + 1 or (i == 0 and j == n - 1):
                continue
            if _segments_cross(edges[i][0], edges[i][1], edges[j][0], edges[j][1]):
                return True
    return False


@dataclass(frozen=True)
class Polygon:
    """Closed ring of (lat, lon) vertices; the closing edge is implicit.

    Rings are validated on construction: at least three vertices, each with
    lat in [-90, 90] and lon in [-180, 180], no repeated consecutive
    vertices, no self-intersection.
    """

    name: str
    kind: str
    ring: tuple[tuple[float, float], ...]

    def __post_init__(self):
        ring = tuple((float(a), float(b)) for a, b in self.ring)
        if len(ring) > 1 and ring[0] == ring[-1]:
            ring = ring[:-1]  # accept explicitly closed rings
        if len(ring) < 3:
            raise InvalidPolygon(f"{self.name!r}: ring needs at least 3 vertices")
        for lat, lon in ring:
            if not (-90.0 <= lat <= 90.0 and -180.0 <= lon <= 180.0):  # NaN fails too
                raise InvalidPolygon(f"{self.name!r}: vertex {(lat, lon)} is not on the globe")
        for i in range(len(ring)):
            if ring[i] == ring[(i + 1) % len(ring)]:
                raise InvalidPolygon(f"{self.name!r}: repeated consecutive vertex {ring[i]}")
        if _self_intersects(ring):
            raise InvalidPolygon(f"{self.name!r}: ring crosses itself")
        object.__setattr__(self, "ring", ring)
        lats = [p[0] for p in ring]
        lons = [p[1] for p in ring]
        object.__setattr__(self, "_bbox", (min(lats), min(lons), max(lats), max(lons)))

    def contains(self, lat, lon):
        """Even-odd ray-crossing test; points on the boundary count as inside.

        lat and lon may be floats, giving a bool, or numpy arrays, giving a
        bool array; for arrays, only the points within the bounding box are
        tested, one edge at a time over all of them.
        """
        lat0, lon0, lat1, lon1 = self._bbox
        near = ((lat0 - _EDGE_EPS <= lat) & (lat <= lat1 + _EDGE_EPS)
                & (lon0 - _EDGE_EPS <= lon) & (lon <= lon1 + _EDGE_EPS))
        if not np.ndim(lat):
            return bool(near and self._crossings(lat, lon))
        near = np.flatnonzero(near)
        out = np.zeros(len(lat), dtype=bool)
        if near.size:
            out[near] = self._crossings(lat[near], lon[near])
        return out

    def _crossings(self, lat, lon):
        """The ray-crossing rule without the bounding box, for floats or for numpy arrays alike."""
        on_edge = inside = False
        ring = self.ring
        j = len(ring) - 1
        for i in range(len(ring)):
            alat, alon = ring[i]
            blat, blon = ring[j]
            on_edge = on_edge | _on_segment(lat, lon, alat, alon, blat, blon)
            if alat != blat:  # a horizontal edge crosses no ray
                cross_lon = alon + (lat - alat) * (blon - alon) / (blat - alat)
                inside = inside ^ (((alat > lat) != (blat > lat)) & (lon < cross_lon))
            j = i
        return on_edge | inside


@dataclass(frozen=True)
class PortGeometry:
    """Named anchorage and terminal polygons for one port."""

    anchorages: tuple[Polygon, ...]
    terminals: tuple[Polygon, ...]

    def anchorage_at(self, lat: float, lon: float) -> Polygon | None:
        for poly in self.anchorages:
            if poly.contains(lat, lon):
                return poly
        return None

    def terminal_at(self, lat: float, lon: float) -> Polygon | None:
        for poly in self.terminals:
            if poly.contains(lat, lon):
                return poly
        return None


def _geojson(source) -> dict:
    """The GeoJSON object a dict or a file holds; InvalidPolygon for JSON of another shape."""
    data = source if isinstance(source, dict) else json.loads(pathlib.Path(source).read_text())
    if not isinstance(data, dict):
        raise InvalidPolygon(f"expected a GeoJSON object, got a JSON {type(data).__name__}")
    return data


def _features(data: dict) -> list:
    features = data.get("features", [])
    if not isinstance(features, list):
        raise InvalidPolygon("the features of a FeatureCollection must be a list")
    return features


def _feature_polygon(feature, require_kind: bool = True) -> Polygon:
    if not isinstance(feature, dict):
        raise InvalidPolygon(f"expected a GeoJSON Feature, got a JSON {type(feature).__name__}")
    props = feature.get("properties") or {}
    geom = feature.get("geometry") or {}
    if not isinstance(props, dict) or not isinstance(geom, dict):
        raise InvalidPolygon("a feature's properties and geometry must be JSON objects")
    if geom.get("type") != "Polygon":
        raise InvalidPolygon(f"unsupported geometry type {geom.get('type')!r}")
    coords = geom.get("coordinates")
    if not isinstance(coords, list) or not coords:
        raise InvalidPolygon("a Polygon's coordinates must be a list of its rings")
    if len(coords) != 1:
        raise InvalidPolygon("polygons with holes are not supported")
    name = props.get("name")
    kind = props.get("kind")
    if not name:
        raise InvalidPolygon("feature is missing the 'name' property")
    if require_kind and kind not in ("anchorage", "terminal"):
        raise InvalidPolygon(f"feature {name!r}: kind must be 'anchorage' or 'terminal', got {kind!r}")
    # GeoJSON stores [lon, lat]
    try:
        ring = tuple((float(lat), float(lon)) for lon, lat in coords[0])
    except (TypeError, ValueError):
        raise InvalidPolygon(f"feature {name!r}: coordinates must be [lon, lat] pairs of numbers") from None
    return Polygon(name=name, kind=kind or "area", ring=ring)


def load_port_geometry(source) -> PortGeometry:
    """Load anchorage/terminal polygons from a GeoJSON FeatureCollection.

    Every feature must be a simple Polygon carrying `name` and `kind`
    ("anchorage" or "terminal") properties.
    """
    data = _geojson(source)
    if data.get("type") != "FeatureCollection":
        raise InvalidPolygon("expected a GeoJSON FeatureCollection")
    anchorages = []
    terminals = []
    for feature in _features(data):
        poly = _feature_polygon(feature)
        (anchorages if poly.kind == "anchorage" else terminals).append(poly)
    if not anchorages and not terminals:
        raise InvalidPolygon("FeatureCollection contains no polygons")
    return PortGeometry(anchorages=tuple(anchorages), terminals=tuple(terminals))


@dataclass(frozen=True)
class AreaFilter:
    """Port-area membership test: a polygon or a centre-plus-radius circle."""

    polygon: Polygon | None = None
    center: tuple[float, float] | None = None
    radius_m: float | None = None

    def __post_init__(self):
        if (self.polygon is None) == (self.center is None or self.radius_m is None):
            raise ValueError("provide either a polygon or a center with radius_m")

    def contains(self, lat, lon):
        """Whether a point lies in the area; for numpy arrays of lat and lon, a bool array."""
        if self.polygon is not None:
            return self.polygon.contains(lat, lon)
        clat, clon = self.center
        if np.ndim(lat):  # one scalar distance each: numpy's sin and cos may round differently from math's
            points = zip(np.asarray(lat).tolist(), np.asarray(lon).tolist())
            return np.array([haversine_m(clat, clon, a, b) <= self.radius_m for a, b in points], dtype=bool)
        return haversine_m(clat, clon, lat, lon) <= self.radius_m

    @classmethod
    def circle(cls, lat: float, lon: float, radius_m: float) -> "AreaFilter":
        return cls(center=(lat, lon), radius_m=radius_m)

    @classmethod
    def from_geojson(cls, source) -> "AreaFilter":
        """Build a polygon filter from the first polygon feature in a file."""
        data = _geojson(source)
        if data.get("type") == "FeatureCollection":
            features = _features(data)
        elif data.get("type") == "Feature":
            features = [data]
        else:
            raise InvalidPolygon("expected a GeoJSON Feature or FeatureCollection")
        for feature in features:
            return cls(polygon=_feature_polygon(feature, require_kind=False))
        raise InvalidPolygon("no polygon feature found")
