#include "runner/gen.h"

#include <cmath>
#include <cstdio>
#include <ctime>

namespace perfbench {

namespace {

constexpr double kPi = 3.14159265358979323846;
constexpr const char* kNoa = "http://teleios.di.uoa.gr/ontologies/noaOntology.owl#";

std::string Fmt(const char* format, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), format, v);
  return buf;
}

std::string Coord(double v) { return Fmt("%.5f", v); }

std::string Ring(const std::vector<Pt>& ring) {
  std::string out = "(";
  for (size_t i = 0; i < ring.size(); ++i) {
    if (i > 0) out += ", ";
    out += Coord(ring[i].x) + " " + Coord(ring[i].y);
  }
  return out + ")";
}

/// Per-pixel noise in [-1, 1), a pure function of (seed, pixel).
double PixelNoise(uint64_t seed, size_t pixel) {
  return static_cast<double>(MixSeed(seed, pixel) >> 11) * 0x1.0p-52 - 1.0;
}

std::string ProductIri(const std::string& id) {
  return std::string("<") + kNoa + "product/" + id + ">";
}

std::string HotspotIri(const std::string& product, const std::string& local) {
  return std::string("<") + kNoa + "hotspot/" + product + "/" + local + ">";
}

}  // namespace

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

uint64_t MixSeed(uint64_t a, uint64_t b) {
  Rng rng(a * 0x2545f4914f6cdd1dull ^ (b + 0x632be59bd9b4e019ull));
  return rng.Next();
}

bool World::InLand(double x, double y) const {
  bool inside = false;
  for (size_t i = 0, j = land.size() - 1; i < land.size(); j = i++) {
    const Pt& a = land[i];
    const Pt& b = land[j];
    if ((a.y > y) != (b.y > y) &&
        x < (b.x - a.x) * (y - a.y) / (b.y - a.y) + a.x) {
      inside = !inside;
    }
  }
  return inside;
}

World MakeWorld() {
  Rng rng(0x3041d);
  World w;
  // A Peloponnese-sized footprint.
  w.lon0 = 21.0;
  w.lat0 = 36.2;
  w.lon1 = w.lon0 + 2.5;
  w.lat1 = w.lat0 + 2.3;
  double cx = (w.lon0 + w.lon1) / 2;
  double cy = (w.lat0 + w.lat1) / 2;
  // Star-shaped landmass: smooth random radius, a few harmonics.
  const int kVertices = 64;
  double amp[4], phase[4];
  for (int k = 0; k < 4; ++k) {
    amp[k] = rng.Range(0.03, 0.10);
    phase[k] = rng.Range(0, 2 * kPi);
  }
  for (int i = 0; i < kVertices; ++i) {
    double t = 2 * kPi * i / kVertices;
    double r = 0.62;
    for (int k = 0; k < 4; ++k) r += amp[k] * std::sin((k + 2) * t + phase[k]);
    w.land.push_back({cx + 1.25 * r * std::cos(t), cy + 1.15 * r * std::sin(t)});
  }
  w.land.push_back(w.land.front());
  return w;
}

std::string LandWkt(const World& world) {
  return "POLYGON (" + Ring(world.land) + ")";
}

std::string SeaWkt(const World& world) {
  std::vector<Pt> box = {{world.lon0, world.lat0},
                         {world.lon1, world.lat0},
                         {world.lon1, world.lat1},
                         {world.lon0, world.lat1},
                         {world.lon0, world.lat0}};
  std::vector<Pt> hole(world.land.rbegin(), world.land.rend());
  return "POLYGON (" + Ring(box) + ", " + Ring(hole) + ")";
}

Pt RandomLandPoint(const World& world, Rng* rng) {
  while (true) {
    Pt p{rng->Range(world.lon0, world.lon1), rng->Range(world.lat0, world.lat1)};
    if (world.InLand(p.x, p.y)) return p;
  }
}

LandGrid MakeLandGrid(const World& world, int size) {
  LandGrid g;
  g.size = size;
  g.pixel_w = (world.lon1 - world.lon0) / size;
  g.pixel_h = (world.lat1 - world.lat0) / size;
  g.land.assign(static_cast<size_t>(size) * size, 0);
  for (int r = 0; r < size; ++r) {
    for (int c = 0; c < size; ++c) {
      double x = world.lon0 + (c + 0.5) * g.pixel_w;
      double y = world.lat1 - (r + 0.5) * g.pixel_h;
      g.land[static_cast<size_t>(r) * size + c] = world.InLand(x, y) ? 1 : 0;
    }
  }
  for (int r = 1; r + 1 < size; ++r) {
    for (int c = 1; c + 1 < size; ++c) {
      int i = r * size + c;
      if (!g.land[i]) {
        g.sea.push_back(i);
        continue;
      }
      bool coast = !g.land[i - 1] || !g.land[i + 1] || !g.land[i - size] ||
                   !g.land[i + size];
      (coast ? g.coastal_land : g.inland).push_back(i);
    }
  }
  return g;
}

vault::TerRaster MakeAcquisition(const World& world, const LandGrid& grid,
                                 const std::string& name, int64_t time,
                                 uint64_t seed) {
  const int n = grid.size;
  const size_t pixels = static_cast<size_t>(n) * n;
  Rng rng(seed);
  vault::TerRaster t;
  t.name = name;
  t.satellite = (seed & 1) ? "Meteosat-9" : "Meteosat-8";
  t.sensor = "SEVIRI";
  t.width = n;
  t.height = n;
  t.acquisition_time = time;
  t.transform.origin_x = world.lon0;
  t.transform.origin_y = world.lat1;
  t.transform.pixel_w = grid.pixel_w;
  t.transform.pixel_h = -grid.pixel_h;
  t.band_names = {"VIS006", "NIR016", "IR039", "IR108", "LANDMASK",
                  "CLOUDMASK"};
  t.bands.assign(6, std::vector<double>(pixels, 0.0));
  auto& vis = t.bands[0];
  auto& nir = t.bands[1];
  auto& t39 = t.bands[2];
  auto& t108 = t.bands[3];
  auto& landmask = t.bands[4];
  auto& cloud = t.bands[5];

  // Clouds: a few discs.
  const int clouds = 2;
  for (int k = 0; k < clouds; ++k) {
    double cc = rng.Range(0, n), cr = rng.Range(0, n), rad = rng.Range(3, 10);
    for (int r = std::max(0, static_cast<int>(cr - rad));
         r < std::min(n, static_cast<int>(cr + rad) + 1); ++r) {
      for (int c = std::max(0, static_cast<int>(cc - rad));
           c < std::min(n, static_cast<int>(cc + rad) + 1); ++c) {
        if ((c - cc) * (c - cc) + (r - cr) * (r - cr) <= rad * rad) {
          cloud[static_cast<size_t>(r) * n + c] = 1.0;
        }
      }
    }
  }

  // Background: diurnal land heating, cool sea, cold cloud tops.
  double hour = static_cast<double>(((time % 86400) + 86400) % 86400) / 3600.0;
  double diurnal = 6.0 * std::sin((hour - 8.0) / 24.0 * 2 * kPi);
  uint64_t noise_seed = rng.Next();
  for (size_t i = 0; i < pixels; ++i) {
    bool land = grid.land[i] != 0;
    double e = PixelNoise(noise_seed, i);
    landmask[i] = land ? 1.0 : 0.0;
    if (cloud[i] > 0.5) {
      vis[i] = 0.6 + 0.05 * e;
      nir[i] = 0.5 + 0.05 * e;
      t108[i] = 250.0 + 2.0 * e;
      t39[i] = 255.0 + 2.0 * e;
    } else if (land) {
      vis[i] = 0.12 + 0.03 * e;
      nir[i] = 0.26 + 0.04 * e;
      t108[i] = 300.0 + diurnal + 0.8 * e;
      t39[i] = t108[i] + 2.0 + 0.8 * PixelNoise(noise_seed + 1, i);
    } else {
      vis[i] = 0.04 + 0.01 * e;
      nir[i] = 0.02 + 0.01 * e;
      t108[i] = 292.0 + 0.5 * e;
      t39[i] = t108[i] + 1.5 + 0.5 * PixelNoise(noise_seed + 1, i);
    }
  }

  auto plume = [&](int centre, double sigma, double intensity, double echo) {
    int cr = centre / n, cc = centre % n;
    int reach = static_cast<int>(std::ceil(3 * sigma));
    for (int r = std::max(0, cr - reach); r < std::min(n, cr + reach + 1); ++r) {
      for (int c = std::max(0, cc - reach); c < std::min(n, cc + reach + 1);
           ++c) {
        double d2 = (c - cc) * (c - cc) + (r - cr) * (r - cr);
        double heat = intensity * std::exp(-d2 / (2 * sigma * sigma));
        size_t i = static_cast<size_t>(r) * n + c;
        t39[i] += heat;
        t108[i] += echo * heat;
      }
    }
  };
  // Fires: every other one on the coast (refinement clips them).
  // Every fire is visible (never under a cloud) and of one size, so
  // acquisitions differ in where they burn, not in how much work their
  // hotspots make downstream.
  const int fires = 5;
  for (int k = 0; k < fires; ++k) {
    const std::vector<int>& pool =
        (k % 2 == 0 && !grid.coastal_land.empty()) ? grid.coastal_land
                                                    : grid.inland;
    if (pool.empty()) continue;
    int centre = pool[rng.Int(static_cast<int>(pool.size()))];
    for (int tries = 0; tries < 64 && cloud[centre] > 0.5; ++tries) {
      centre = pool[rng.Int(static_cast<int>(pool.size()))];
    }
    plume(centre, 1.2, 45, 0.2);
  }
  // Sun glint at sea: hot at 3.9um with no 10.8um echo.
  for (int k = 0; k < 2 && !grid.sea.empty(); ++k) {
    plume(grid.sea[rng.Int(static_cast<int>(grid.sea.size()))], 1.2, 25, 0.0);
  }
  return t;
}

vault::TerRaster MakeCatalogueEntry(const std::string& name,
                                    const std::string& satellite,
                                    double lon0, double lat0, double extent,
                                    int64_t time) {
  vault::TerRaster t;
  t.name = name;
  t.satellite = satellite;
  t.sensor = "SEVIRI";
  t.width = 4;
  t.height = 4;
  t.acquisition_time = time;
  t.transform.origin_x = lon0;
  t.transform.origin_y = lat0 + extent;
  t.transform.pixel_w = extent / 4;
  t.transform.pixel_h = -extent / 4;
  t.band_names = {"IR108"};
  t.bands.assign(1, std::vector<double>(16, 290.0));
  return t;
}

std::string TurtlePrologue() {
  return "@prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .\n"
         "@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .\n"
         "@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .\n"
         "@prefix strdf: <http://strdf.di.uoa.gr/ontology#> .\n"
         "@prefix geonames: <http://www.geonames.org/ontology#> .\n"
         "@prefix dbo: <http://dbpedia.org/ontology/> .\n"
         "@prefix noa: <http://teleios.di.uoa.gr/ontologies/noaOntology.owl#> "
         ".\n\n";
}

std::string IsoTime(int64_t seconds) {
  std::time_t t = static_cast<std::time_t>(seconds);
  std::tm tm{};
  gmtime_r(&t, &tm);
  char buf[32];
  std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%S", &tm);
  return buf;
}

std::string WktLiteral(const std::string& wkt) {
  return "\"" + wkt + "\"^^strdf:WKT";
}

std::string BoxWkt(double x0, double y0, double x1, double y1) {
  return "POLYGON ((" + Coord(x0) + " " + Coord(y0) + ", " + Coord(x1) + " " +
         Coord(y0) + ", " + Coord(x1) + " " + Coord(y1) + ", " + Coord(x0) +
         " " + Coord(y1) + ", " + Coord(x0) + " " + Coord(y0) + "))";
}

std::string CoastlineTurtle(const World& world) {
  return TurtlePrologue() +
         "noa:landmass a noa:LandArea ;\n"
         "    rdfs:label \"landmass\" ;\n"
         "    noa:hasGeometry " + WktLiteral(LandWkt(world)) + " .\n"
         "noa:sea a noa:Sea ;\n"
         "    rdfs:label \"sea\" ;\n"
         "    noa:hasGeometry " + WktLiteral(SeaWkt(world)) + " .\n";
}

std::string PlacesTurtle(const World& world, int sites, int towns,
                         uint64_t seed) {
  Rng rng(MixSeed(seed, 0x91ace5));
  std::string out = TurtlePrologue();
  for (int i = 0; i < sites; ++i) {
    Pt p = RandomLandPoint(world, &rng);
    out += "<http://dbpedia.org/resource/Site_" + std::to_string(i) +
           "> a dbo:ArchaeologicalSite ;\n    rdfs:label \"Site " +
           std::to_string(i) + "\" ;\n    strdf:hasGeometry " +
           WktLiteral("POINT (" + Coord(p.x) + " " + Coord(p.y) + ")") + " .\n";
  }
  for (int i = 0; i < towns; ++i) {
    Pt p = RandomLandPoint(world, &rng);
    out += "<http://sws.geonames.org/" + std::to_string(100000 + i) +
           "/> a geonames:Feature ;\n    geonames:name \"Town " +
           std::to_string(i) + "\" ;\n    geonames:population \"" +
           std::to_string(500 + rng.Int(80000)) +
           "\"^^xsd:integer ;\n    strdf:hasGeometry " +
           WktLiteral("POINT (" + Coord(p.x) + " " + Coord(p.y) + ")") + " .\n";
  }
  return out;
}

std::string ProductsTurtle(const std::vector<ProductInfo>& products) {
  std::string out = TurtlePrologue();
  for (const ProductInfo& p : products) {
    out += ProductIri(p.name) + " a noa:Product ;\n    noa:hasProductId \"" +
           p.name + "\" ;\n    noa:producedBySatellite \"" + p.satellite +
           "\" ;\n    noa:producedBySensor \"SEVIRI\" ;\n"
           "    noa:hasProcessingLevel \"L1\" ;\n"
           "    noa:hasAcquisitionTime \"" + IsoTime(p.time) +
           "\"^^xsd:dateTime ;\n    noa:hasGeometry " +
           WktLiteral(p.footprint_wkt) + " .\n";
  }
  return out;
}

namespace {

/// The triples of one hotspot (5) plus an optional annotation.
std::string HotspotTriples(const World& world, const std::string& product,
                           const std::string& local, Rng* rng,
                           int64_t time, bool annotate) {
  Pt p = RandomLandPoint(world, rng);
  double half = rng->Range(0.006, 0.02);
  std::string s = HotspotIri(product, local);
  std::string out =
      s + " a noa:Hotspot .\n" + s + " noa:hasGeometry " +
      WktLiteral(BoxWkt(p.x - half, p.y - half, p.x + half, p.y + half)) +
      " .\n" + s + " noa:hasConfidence \"" + Fmt("%.4f", rng->Range(0.3, 1.0)) +
      "\"^^xsd:double .\n" + s + " noa:detectedAt \"" + IsoTime(time) +
      "\"^^xsd:dateTime .\n" + s + " noa:derivedFromProduct " +
      ProductIri(product) + " .\n";
  if (annotate) {
    static const char* kConcepts[] = {"Forest", "Agricultural", "BareSoil",
                                      "Urban"};
    out += s + " noa:hasAnnotation noa:" + kConcepts[rng->Int(4)] + " .\n";
  }
  return out;
}

}  // namespace

std::string ChurnBaseTurtle(const World& world, int products,
                            int hotspots_per_product, uint64_t seed) {
  Rng rng(MixSeed(seed, 0xba5e));
  std::string out = TurtlePrologue();
  const int64_t t0 = 1188000000;
  for (int k = 0; k < products; ++k) {
    std::string id = "hist_p" + std::to_string(k);
    int64_t t = t0 + 900 * k;
    out += ProductIri(id) + " a noa:Product ;\n    noa:hasProductId \"" + id +
           "\" ;\n    noa:producedBySatellite \"Meteosat-9\" ;\n"
           "    noa:hasAcquisitionTime \"" + IsoTime(t) +
           "\"^^xsd:dateTime ;\n    noa:hasGeometry " +
           WktLiteral(BoxWkt(world.lon0, world.lat0, world.lon1, world.lat1)) +
           " .\n";
    for (int j = 0; j < hotspots_per_product; ++j) {
      out += HotspotTriples(world, id, std::to_string(j), &rng, t, false);
    }
  }
  return out;
}

std::string ChurnBatchTriples(const World& world, int step, int count,
                              int products, uint64_t seed) {
  Rng rng(MixSeed(seed, 0xc4u + static_cast<uint64_t>(step) * 7919));
  std::string product = "hist_p" + std::to_string(step % products);
  std::string out;
  for (int j = 0; j < count; ++j) {
    out += HotspotTriples(world, product,
                          "s" + std::to_string(step) + "_" + std::to_string(j),
                          &rng, 1188000000 + 60 * static_cast<int64_t>(step),
                          true);
  }
  return out;
}

uint64_t Fnv1a(const void* data, size_t n, uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

uint64_t Fnv1a(const std::string& s, uint64_t h) {
  return Fnv1a(s.data(), s.size(), h);
}

}  // namespace perfbench
