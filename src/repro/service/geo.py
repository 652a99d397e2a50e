"""Geography: coordinates, map rectangles, and where broadcasters live.

Broadcast locations cluster around population centers — that clustering
is what makes the paper's crawling strategy work (half of the map areas
hold at least 80% of the broadcasts, Fig. 1(b)) — and each broadcast's
local time zone drives the diurnal pattern of Fig. 2(b).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import List, Tuple

from repro.util.sampling import WeightedTable


@dataclass(frozen=True)
class GeoPoint:
    """A WGS84-ish coordinate pair in degrees."""

    lat: float
    lon: float

    def __post_init__(self) -> None:
        if not -90.0 <= self.lat <= 90.0:
            raise ValueError(f"latitude {self.lat} out of range")
        if not -180.0 <= self.lon <= 180.0:
            raise ValueError(f"longitude {self.lon} out of range")

    def distance_deg(self, other: "GeoPoint") -> float:
        """Euclidean distance in degree space — a crude but monotone
        proxy adequate for nearest-server selection."""
        dlat = self.lat - other.lat
        dlon = min(abs(self.lon - other.lon), 360.0 - abs(self.lon - other.lon))
        return math.hypot(dlat, dlon)


@dataclass(frozen=True)
class GeoRect:
    """A map rectangle, as sent in /mapGeoBroadcastFeed requests."""

    south: float
    west: float
    north: float
    east: float

    def __post_init__(self) -> None:
        if self.south > self.north:
            raise ValueError("south must not exceed north")
        if self.west > self.east:
            raise ValueError("west must not exceed east")

    @classmethod
    def world(cls) -> "GeoRect":
        return cls(south=-90.0, west=-180.0, north=90.0, east=180.0)

    def contains(self, point: GeoPoint) -> bool:
        return (
            self.south <= point.lat <= self.north
            and self.west <= point.lon <= self.east
        )

    @property
    def area_deg2(self) -> float:
        return (self.north - self.south) * (self.east - self.west)

    def quadrants(self) -> Tuple["GeoRect", "GeoRect", "GeoRect", "GeoRect"]:
        """Split into four equal sub-rectangles (the deep crawl's zoom)."""
        mid_lat = (self.south + self.north) / 2.0
        mid_lon = (self.west + self.east) / 2.0
        return (
            GeoRect(self.south, self.west, mid_lat, mid_lon),
            GeoRect(self.south, mid_lon, mid_lat, self.east),
            GeoRect(mid_lat, self.west, self.north, mid_lon),
            GeoRect(mid_lat, mid_lon, self.north, self.east),
        )

    def key(self) -> Tuple[float, float, float, float]:
        """Hashable identity for bookkeeping crawled areas."""
        return (self.south, self.west, self.north, self.east)


@dataclass(frozen=True)
class PopulationCenter:
    """A city-scale cluster of broadcasters."""

    name: str
    location: GeoPoint
    #: Relative share of the world's broadcasts originating here.
    weight: float
    #: Whole-hour offset from UTC (DST ignored; enough for diurnality).
    utc_offset_hours: int
    #: Degrees of scatter around the center.
    spread_deg: float = 1.2


#: A 36-city sketch of where Periscope broadcasters were: North America,
#: Europe and Turkey heavy (Periscope's biggest 2016 markets), plus Asia,
#: South America, Oceania — and none in Africa, matching the paper's
#: observation that no RTMP ingest server was located there.
POPULATION_CENTERS: List[PopulationCenter] = [
    PopulationCenter("new-york", GeoPoint(40.7, -74.0), 7.0, -5),
    PopulationCenter("los-angeles", GeoPoint(34.1, -118.2), 6.0, -8),
    PopulationCenter("chicago", GeoPoint(41.9, -87.6), 3.0, -6),
    PopulationCenter("houston", GeoPoint(29.8, -95.4), 2.5, -6),
    PopulationCenter("toronto", GeoPoint(43.7, -79.4), 2.0, -5),
    PopulationCenter("mexico-city", GeoPoint(19.4, -99.1), 2.5, -6),
    PopulationCenter("sao-paulo", GeoPoint(-23.6, -46.6), 3.5, -3),
    PopulationCenter("buenos-aires", GeoPoint(-34.6, -58.4), 1.5, -3),
    PopulationCenter("london", GeoPoint(51.5, -0.1), 5.0, 0),
    PopulationCenter("paris", GeoPoint(48.9, 2.3), 3.0, 1),
    PopulationCenter("berlin", GeoPoint(52.5, 13.4), 2.0, 1),
    PopulationCenter("madrid", GeoPoint(40.4, -3.7), 2.0, 1),
    PopulationCenter("rome", GeoPoint(41.9, 12.5), 1.8, 1),
    PopulationCenter("amsterdam", GeoPoint(52.4, 4.9), 1.2, 1),
    PopulationCenter("stockholm", GeoPoint(59.3, 18.1), 1.0, 1),
    PopulationCenter("helsinki", GeoPoint(60.2, 24.9), 0.8, 2),
    PopulationCenter("moscow", GeoPoint(55.8, 37.6), 3.0, 3),
    PopulationCenter("istanbul", GeoPoint(41.0, 28.9), 8.0, 3),
    PopulationCenter("ankara", GeoPoint(39.9, 32.9), 3.0, 3),
    PopulationCenter("izmir", GeoPoint(38.4, 27.1), 2.0, 3),
    PopulationCenter("dubai", GeoPoint(25.2, 55.3), 1.2, 4),
    PopulationCenter("riyadh", GeoPoint(24.7, 46.7), 2.5, 3),
    PopulationCenter("mumbai", GeoPoint(19.1, 72.9), 1.5, 5),
    PopulationCenter("bangkok", GeoPoint(13.8, 100.5), 1.5, 7),
    PopulationCenter("jakarta", GeoPoint(-6.2, 106.8), 1.8, 7),
    PopulationCenter("singapore", GeoPoint(1.3, 103.8), 1.0, 8),
    PopulationCenter("manila", GeoPoint(14.6, 121.0), 1.2, 8),
    PopulationCenter("tokyo", GeoPoint(35.7, 139.7), 4.0, 9),
    PopulationCenter("osaka", GeoPoint(34.7, 135.5), 1.5, 9),
    PopulationCenter("seoul", GeoPoint(37.6, 127.0), 2.0, 9),
    PopulationCenter("sydney", GeoPoint(-33.9, 151.2), 1.5, 10),
    PopulationCenter("melbourne", GeoPoint(-37.8, 145.0), 1.0, 10),
    PopulationCenter("auckland", GeoPoint(-36.8, 174.8), 0.4, 12),
    PopulationCenter("san-francisco", GeoPoint(37.8, -122.4), 3.5, -8),
    PopulationCenter("miami", GeoPoint(25.8, -80.2), 2.0, -5),
    PopulationCenter("vancouver", GeoPoint(49.3, -123.1), 1.0, -8),
]


_CENTERS = WeightedTable(POPULATION_CENTERS,
                         [c.weight for c in POPULATION_CENTERS])


def sample_location(rng: random.Random) -> Tuple[GeoPoint, PopulationCenter]:
    """Draw a broadcaster location: weighted center + gaussian scatter."""
    center = _CENTERS.pick(rng)
    lat = center.location.lat + rng.gauss(0.0, center.spread_deg)
    lon = center.location.lon + rng.gauss(0.0, center.spread_deg)
    lat = min(max(lat, -89.9), 89.9)
    lon = ((lon + 180.0) % 360.0) - 180.0
    return GeoPoint(lat, lon), center


def local_hour(utc_seconds: float, utc_offset_hours: int) -> float:
    """Fractional local hour of day for a UTC timestamp."""
    return ((utc_seconds / 3600.0) + utc_offset_hours) % 24.0
