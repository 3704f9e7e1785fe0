// noa_stream: the paper's Scenarios 1 and 2 as one night of monitoring.
// One caller thread drives one non-durable observatory through its
// facade: each acquisition is classified by the fire chain, refined
// against the coastline, and every few acquisitions the rapid-mapping
// product is rendered. State accumulates for the whole night, whose
// length (not duration) --seconds sets.

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <memory>
#include <optional>
#include <stdexcept>

#include "core/observatory.h"
#include "geo/clip.h"
#include "geo/predicates.h"
#include "geo/wkt.h"
#include "runner/gen.h"
#include "runner/report.h"
#include "runner/workloads.h"

namespace perfbench {

using namespace ::teleios;

namespace {

constexpr int kSize = 192;          // pixels per side of one acquisition
constexpr int kChunk = 24;          // acquisitions per downlink delivery
constexpr int kMapEvery = 16;       // render the fire map every N
constexpr int kDigestPrefix = 16;   // acquisitions the repeat check covers
constexpr int kSetupRounds = 3;    // set-ups before the night
constexpr int kSetupProbes = 32;   // set-ups spread over an untraced night
constexpr double kAcquisitionsPerSecond = 15;  // night length per --seconds
constexpr int kSites = 1000;         // archaeological sites in the LOD
constexpr int kTowns = 1000;
constexpr int64_t kFirstAcquisition = 1188000000;  // 2007-08-25 00:00 UTC

/// The acquisitions of one run, written to disk chunk by chunk as the
/// stream consumes them (the downlink), so the archive never holds more
/// than the run needs.
class Downlink {
 public:
  explicit Downlink(const Options& options)
      : world_(MakeWorld()),
        grid_(MakeLandGrid(world_, kSize)),
        seed_(options.seed),
        dir_(options.work_dir + "/noa_archive") {}

  const World& world() const { return world_; }

  static std::string Name(int i) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "msg_%05d", i);
    return buf;
  }

  /// Writes acquisitions [first, first + kChunk) into their own
  /// directory and returns it.
  std::string WriteChunk(int first) {
    std::string dir = dir_ + "/chunk_" + std::to_string(first / kChunk);
    std::filesystem::create_directories(dir);
    for (int i = first; i < first + kChunk; ++i) {
      vault::TerRaster raster = MakeAcquisition(
          world_, grid_, Name(i), kFirstAcquisition + 900LL * i,
          MixSeed(seed_, 1000 + i));
      Status st = vault::WriteTer(raster, dir + "/" + Name(i) + ".ter");
      if (!st.ok()) throw std::runtime_error(st.ToString());
    }
    return dir;
  }

 private:
  World world_;
  LandGrid grid_;
  uint64_t seed_;
  std::string dir_;
};

std::string SitesQuery() {
  return "PREFIX dbo: <http://dbpedia.org/ontology/> "
         "SELECT ?g ?l WHERE { ?s a dbo:ArchaeologicalSite ; rdfs:label ?l ; "
         "strdf:hasGeometry ?g }";
}

/// Brings up an observatory with the first chunk attached and the
/// coastline and places loaded.
std::unique_ptr<core::VirtualEarthObservatory> SetUp(
    const std::string& chunk_dir, const std::string& coastline,
    const std::string& places, Report* report) {
  auto veo = std::make_unique<core::VirtualEarthObservatory>();
  auto attached = veo->AttachArchive(chunk_dir);
  if (!attached.ok() || *attached != kChunk) {
    report->Fail("noa_stream: attach of the first chunk failed");
  }
  if (!veo->LoadLinkedData(coastline).ok() ||
      !veo->LoadLinkedData(places).ok()) {
    report->Fail("noa_stream: linked data load failed");
  }
  return veo;
}

struct AcquisitionOutcome {
  bool ok = false;
  size_t hotspots = 0;
  size_t refined = 0;
  size_t removed = 0;
  double refine_ms = 0;
  double map_ms = 0;
  noa::ChainResult chain;
};

/// One acquisition: chain, refinement, and the map when it is due.
AcquisitionOutcome Process(core::VirtualEarthObservatory* veo, int i,
                           Report* report) {
  AcquisitionOutcome out;
  noa::ChainConfig config;
  config.classifier.kind = noa::ClassifierKind::kContextual;
  std::string name = Downlink::Name(i);
  auto chain = veo->RunFireChain(name, config);
  if (!chain.ok() || !chain->failures.empty() || chain->product_id.empty()) {
    report->Fail("noa_stream: chain failed on " + name + ": " +
                 (chain.ok() ? std::string("product failures")
                             : chain.status().ToString()));
    return out;
  }
  Clock::time_point refine_start = Clock::now();
  auto refined = veo->Refine(chain->product_id);
  out.refine_ms = MillisSince(refine_start);
  if (!refined.ok()) {
    report->Fail("noa_stream: refine failed on " + name + ": " +
                 refined.status().ToString());
    return out;
  }
  if (i % kMapEvery == kMapEvery - 1) {
    Clock::time_point map_start = Clock::now();
    noa::RapidMapper mapper = veo->MakeMapper();
    Status st = mapper.AddQueryLayer(
        "land", "#d9c9a3", '.',
        "SELECT ?g WHERE { ?x a noa:LandArea ; noa:hasGeometry ?g }");
    if (st.ok()) {
      st = mapper.AddQueryLayer(
          "hotspots", "#d7301f", '*',
          "SELECT ?g WHERE { ?h a noa:Hotspot ; noa:hasGeometry ?g }");
    }
    if (st.ok()) st = mapper.AddQueryLayer("sites", "#225ea8", 'A', SitesQuery());
    std::string svg = st.ok() ? mapper.RenderSvg() : "";
    out.map_ms = MillisSince(map_start);
    if (!st.ok() || svg.find("<svg") == std::string::npos) {
      report->Fail("noa_stream: fire map failed after " + name);
      return out;
    }
  }
  out.ok = true;
  out.hotspots = chain->hotspots.size();
  out.refined = refined->hotspots_refined;
  out.removed = refined->hotspots_removed;
  out.chain = std::move(*chain);
  return out;
}

uint64_t FoldOutcome(uint64_t digest, const AcquisitionOutcome& o) {
  uint64_t v[3] = {o.hotspots, o.refined, o.removed};
  return Fnv1a(v, sizeof(v), digest);
}

std::string Hex(uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace

void RunNoaStream(const Options& options, Report* report) {
  Downlink downlink(options);
  const std::string coastline = CoastlineTurtle(downlink.world());
  const std::string places = PlacesTurtle(downlink.world(), kSites, kTowns, options.seed);
  std::string first_chunk = downlink.WriteChunk(0);

  // Set-up, several times; the first instance also produces the
  // reference digest the measured stream must repeat. The first delivery
  // stays on disk for the whole night, for the set-up probes below.
  uint64_t reference = 0;
  std::unique_ptr<core::VirtualEarthObservatory> veo;
  for (int round = 0; round < kSetupRounds; ++round) {
    veo.reset();
    Clock::time_point start = Clock::now();
    veo = SetUp(first_chunk, coastline, places, report);
    report->Sample("setup_s", MillisSince(start) / 1000.0);
    if (round == 0) {
      for (int i = 0; i < kDigestPrefix; ++i) {
        reference = FoldOutcome(reference, Process(veo.get(), i, report));
      }
    }
  }
  if (!report->ok()) return;

  geo::Geometry sea;
  if (options.trace) {
    auto parsed = geo::ParseWkt(SeaWkt(downlink.world()));
    if (parsed.ok()) sea = std::move(*parsed);
  }

  // A night of fixed length, scaled by --seconds and paced over them:
  // the state grows with every acquisition, so a time limit would hand a
  // faster program a longer night, a larger store and more memory to
  // carry.
  const int night = std::max(
      kDigestPrefix,
      static_cast<int>(std::lround(kAcquisitionsPerSecond * options.seconds)));
  // Untraced nights also time a fresh set-up at evenly spaced points, so
  // that setup_s samples the machine over the whole run rather than over
  // its first tenth of a second. The probes are not part of the measured
  // night; traced runs skip them (their metric diffs would include them).
  std::vector<int> probe_at;
  if (!options.trace) {
    for (int k = 1; k <= kSetupProbes; ++k) {
      probe_at.push_back(k * night / (kSetupProbes + 1));
    }
  }
  size_t next_probe = 0;
  report->Snapshot("metrics_before", veo->MetricsJson());
  uint64_t digest = 0;
  size_t prefix_clipped = 0;  // refined or removed in the digest's prefix
  double measured_ms = 0;
  int delivered = kChunk;
  std::string processed_dir = first_chunk;
  int i = 0;
  std::vector<double> refine_ms;
  Pacer pacer(options.seconds, night);
  while (i < night) {
    if (i == delivered) {
      // The next downlink delivery: generating it (and dropping the files
      // of the delivery just processed) is the benchmark's work and is
      // not measured; attaching it is the observatory's.
      if (processed_dir != first_chunk) RemoveTree(processed_dir);
      processed_dir = downlink.WriteChunk(delivered);
      Clock::time_point attach_start = Clock::now();
      auto attached = veo->AttachArchive(processed_dir);
      measured_ms += MillisSince(attach_start);
      if (!attached.ok() || *attached != kChunk) {
        report->Fail("noa_stream: attach of " + processed_dir + " failed");
        break;
      }
      delivered += kChunk;
    }
    while (next_probe < probe_at.size() && probe_at[next_probe] == i) {
      Clock::time_point probe_start = Clock::now();
      auto probe = SetUp(first_chunk, coastline, places, report);
      report->Sample("setup_s", MillisSince(probe_start) / 1000.0);
      probe.reset();
      pacer.Shift(MillisSince(probe_start));
      ++next_probe;
    }
    pacer.Wait(i);
    const bool traced = options.trace && (i % 2 == 1);
    std::optional<obs::ScopedTrace> trace;
    Clock::time_point start = Clock::now();
    if (traced) trace.emplace("bench.acquisition");
    AcquisitionOutcome outcome = Process(veo.get(), i, report);
    obs::SpanNode tree;
    if (traced) tree = trace->Finish();
    double op_ms = MillisSince(start);
    measured_ms += op_ms;
    ++report->attempted;
    if (!outcome.ok) {
      ++report->failed;
      break;
    }
    // The generator puts five visible fires on land in every acquisition.
    if (outcome.hotspots == 0) {
      report->Fail("noa_stream: " + Downlink::Name(i) +
                   " yielded no hotspot, although five fires burn in it");
    }
    report->Add("noa.hotspots", static_cast<double>(outcome.hotspots));
    report->Add("noa.refined", static_cast<double>(outcome.refined));
    report->Add("noa.removed", static_cast<double>(outcome.removed));
    if (i < kDigestPrefix) prefix_clipped += outcome.refined + outcome.removed;
    report->Sample(traced ? "op_traced_ms" : "op_ms", op_ms);
    if (outcome.map_ms == 0) {
      // Tracing overhead compares acquisitions without a map render.
      report->Sample(traced ? "plain_op_traced_ms" : "plain_op_ms", op_ms);
    }
    refine_ms.push_back(outcome.refine_ms);
    if (outcome.map_ms > 0) report->Sample("noa.map_ms", outcome.map_ms);
    for (const noa::StepTiming& step : outcome.chain.timings) {
      report->Sample("stage:" + step.step, step.millis);
    }
    report->Sample("vault.ingest_ms",
                   SpanMillis(outcome.chain.trace, "vault.ingest"));
    if (traced) {
      // The SciQL classification statement's execute span, and the
      // refinement's stSPARQL spans, from this acquisition's tree.
      if (const obs::SpanNode* sciql = tree.Find("sciql.statement")) {
        report->Sample("sciql.execute_ms", SpanMillis(*sciql, "execute"));
      }
      // Every parse/execute span outside the SciQL statement belongs to
      // the refinement's and the map's stSPARQL statements.
      const obs::SpanNode* sciql_node = tree.Find("sciql.statement");
      auto outside_sciql = [&](const std::string& span) {
        return SpanMillis(tree, span) -
               (sciql_node ? SpanMillis(*sciql_node, span) : 0.0);
      };
      report->Sample("strabon.parse_ms", outside_sciql("parse"));
      report->Sample("strabon.execute_ms", outside_sciql("execute"));
      report->Sample("strabon.match_ms", SpanMillis(tree, "match"));
      std::vector<double> admit;
      CollectSpans(tree, "governor.admit", &admit);
      for (double v : admit) report->Sample("governor.admit_ms", v);
      // geo: the clip refinement asks of the engine, timed directly.
      auto clip_start = Clock::now();
      for (const noa::Hotspot& h : outcome.chain.hotspots) {
        if (!geo::Intersects(h.geometry, sea)) continue;
        auto clipped = geo::Difference(h.geometry, sea);
        if (!clipped.ok()) {
          report->Fail("noa_stream: geo::Difference failed: " +
                       clipped.status().ToString());
        }
      }
      report->Sample("geo.clip_ms", MillisSince(clip_start));
    }
    if (i < kDigestPrefix) digest = FoldOutcome(digest, outcome);
    ++i;
  }
  report->Snapshot("metrics_after", veo->MetricsJson());
  report->Count("measured_s", measured_ms / 1000.0);
  report->Count("acquisitions", i);

  if (i < kDigestPrefix) {
    report->Fail("noa_stream: fewer acquisitions than the repeat check needs");
  } else if (digest != reference) {
    report->Fail("noa_stream: hotspot/refinement digest " + Hex(digest) +
                 " does not repeat the set-up run's " + Hex(reference));
  } else if (prefix_clipped == 0) {
    // Every other fire is on the coast, so refinement must clip or drop
    // some hotspots of the first acquisitions.
    report->Fail("noa_stream: refinement clipped no hotspot of the first " +
                 std::to_string(kDigestPrefix) + " acquisitions");
  }
  // Refinement growth across the night (first vs last quarter).
  size_t q = refine_ms.size() / 4;
  for (size_t k = 0; k < q; ++k) {
    report->Sample("noa.refine_ms.first_q", refine_ms[k]);
    report->Sample("noa.refine_ms.last_q", refine_ms[refine_ms.size() - 1 - k]);
  }
  report->Count("peak_rss_mb", PeakRssMb());
  veo.reset();
}

uint64_t NoaStreamInputDigest(const Options& options) {
  World world = MakeWorld();
  LandGrid grid = MakeLandGrid(world, kSize);
  uint64_t h = Fnv1a(CoastlineTurtle(world));
  h = Fnv1a(PlacesTurtle(world, kSites, kTowns, options.seed), h);
  for (int i = 0; i < kChunk; ++i) {
    vault::TerRaster raster =
        MakeAcquisition(world, grid, Downlink::Name(i),
                        kFirstAcquisition + 900LL * i, MixSeed(options.seed, 1000 + i));
    for (const std::vector<double>& band : raster.bands) {
      h = Fnv1a(band.data(), band.size() * sizeof(double), h);
    }
  }
  return h;
}

}  // namespace perfbench
