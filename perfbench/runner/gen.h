#ifndef PERFBENCH_RUNNER_GEN_H_
#define PERFBENCH_RUNNER_GEN_H_

// Seeded input generators of the observatory benchmark. Everything the
// observatory is fed (acquisitions, linked data, churn batches) is made
// here from the workload seed; the program under test only ever sees the
// generated files and statements.

#include <cstdint>
#include <string>
#include <vector>

#include "vault/formats.h"

namespace perfbench {

namespace vault = ::teleios::vault;

/// splitmix64: small, fast and identical on every platform.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, 1).
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  double Range(double lo, double hi) { return lo + (hi - lo) * Uniform(); }
  /// Uniform in [0, n).
  int Int(int n) { return static_cast<int>(Next() % static_cast<uint64_t>(n)); }

 private:
  uint64_t state_;
};

/// Mixes two values into an independent stream seed.
uint64_t MixSeed(uint64_t a, uint64_t b);

struct Pt {
  double x = 0;
  double y = 0;
};

/// The monitored region: a footprint (lon/lat box) holding one irregular
/// landmass; everything outside the landmass is sea. The region is the
/// same for every seed, as a real one would be; the seed varies what is
/// observed in it.
struct World {
  double lon0 = 0, lon1 = 0, lat0 = 0, lat1 = 0;
  std::vector<Pt> land;  // closed ring, first point repeated last
  bool InLand(double x, double y) const;
};

World MakeWorld();
std::string LandWkt(const World& world);
/// The footprint box with the landmass as its hole.
std::string SeaWkt(const World& world);
/// A random point on land (rejection sampling).
Pt RandomLandPoint(const World& world, Rng* rng);

/// Per-resolution rasterisation of a world, shared by every acquisition
/// of that size.
struct LandGrid {
  int size = 0;
  std::vector<uint8_t> land;       // 1 = pixel centre on land
  std::vector<int> coastal_land;   // land pixels with a sea 4-neighbour
  std::vector<int> inland;         // the other land pixels
  std::vector<int> sea;
  double pixel_w = 0, pixel_h = 0;  // degrees
};

LandGrid MakeLandGrid(const World& world, int size);

/// One MSG/SEVIRI-like acquisition: VIS006, NIR016, IR039, IR108,
/// LANDMASK and CLOUDMASK bands over the world's footprint, with five
/// seeded fires (alternately on the coast, so refinement has work), two
/// sun glints at sea and two cloud blobs.
vault::TerRaster MakeAcquisition(const World& world, const LandGrid& grid,
                                 const std::string& name, int64_t time,
                                 uint64_t seed);

/// A catalogue-only entry: a tiny one-band raster whose header (name,
/// satellite, footprint, time) is what metadata search reads.
vault::TerRaster MakeCatalogueEntry(const std::string& name,
                                    const std::string& satellite,
                                    double lon0, double lat0, double extent,
                                    int64_t time);

/// Turtle prologue with every prefix the generated documents use.
std::string TurtlePrologue();
/// ISO-8601 UTC, second resolution ("2007-08-25T10:00:00").
std::string IsoTime(int64_t seconds);
std::string WktLiteral(const std::string& wkt);
std::string BoxWkt(double x0, double y0, double x1, double y1);

/// noa:landmass (noa:LandArea) and noa:sea (noa:Sea) with geometry.
std::string CoastlineTurtle(const World& world);
/// DBpedia-like archaeological sites and GeoNames-like towns on land.
std::string PlacesTurtle(const World& world, int sites, int towns,
                         uint64_t seed);

/// Level-1 product descriptions, as the archive's metadata harvest would
/// publish them.
struct ProductInfo {
  std::string name;
  std::string satellite;
  int64_t time = 0;
  std::string footprint_wkt;
};
std::string ProductsTurtle(const std::vector<ProductInfo>& products);

/// The publisher store of the churn workload: `products` historical
/// hotspot products of `hotspots_per_product` hotspots each, about 25k
/// triples with the defaults.
std::string ChurnBaseTurtle(const World& world, int products,
                            int hotspots_per_product, uint64_t seed);

/// Triple block (no braces) of one churn batch: `count` hotspots with
/// geometry, confidence, time, provenance and an annotation. Deterministic
/// in (world, step, seed), so DELETE DATA of a superseded batch names
/// exactly the triples its INSERT DATA added.
std::string ChurnBatchTriples(const World& world, int step, int count,
                              int products, uint64_t seed);

/// FNV-1a, for input digests.
uint64_t Fnv1a(const void* data, size_t n, uint64_t h = 1469598103934665603ull);
uint64_t Fnv1a(const std::string& s, uint64_t h = 1469598103934665603ull);

}  // namespace perfbench

#endif  // PERFBENCH_RUNNER_GEN_H_
