// wire_reads: four server::Client connections run a closed loop of
// read-only statements against an in-process TeleiosServer. The mix is
// EOWEB-style SQL metadata search, SQL outside the vectorized selection
// shapes, SciQL over registered arrays, and stSPARQL (the headline
// spatial join, spatial windows and thematic GROUP BY). Nothing writes,
// so the triple-store rebuild and the WAL stay idle here.

#include <filesystem>
#include <memory>
#include <set>
#include <stdexcept>
#include <thread>

#include "core/observatory.h"
#include "obs/metrics.h"
#include "runner/gen.h"
#include "runner/report.h"
#include "runner/workloads.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"

namespace perfbench {

using namespace ::teleios;

namespace {

constexpr int kArrays = 4;            // registered 256x256 acquisitions
constexpr int kArraySize = 256;
constexpr int kCatalogue = 1600;      // metadata-only archive entries
constexpr int kTilesPerSide = 4;      // catalogue footprints: a 4x4 grid
constexpr int kClients = 4;
constexpr int kSetupRounds = 2;       // set-ups before the timed phase
constexpr int kSetupProbes = 8;       // set-ups spread over an untraced phase
constexpr int kWarmupPasses = 5;      // in-process passes to a stable dictionary
constexpr int64_t kDay0 = 1187913600;  // 2007-08-24 00:00 UTC

struct Statement {
  std::string cls;  // sql_vec, sql_interp, sciql_class, ...
  server::Lang lang;
  std::string text;
  uint64_t expected = 0;  // hash of the in-process answer's encoding
  size_t expected_rows = 0;
};

struct Inputs {
  World world;
  std::string archive_dir;
  std::vector<ProductInfo> products;      // every archive entry
  std::vector<std::string> tiles;         // distinct catalogue footprints
  std::string coastline, places, products_turtle;
  std::vector<Statement> pool;
  uint64_t raster_digest = 0;  // the registered arrays' IR039 bands
};

std::string ArrayName(int k) { return "wr_" + std::to_string(k); }

std::string ProductId(int k) {
  return ArrayName(k) + "-hotspots-contextual";
}

std::string Num(double v, const char* format = "%.3f") {
  char buf[48];
  std::snprintf(buf, sizeof(buf), format, v);
  return buf;
}

/// The seeded statement pool; every statement is read-only and
/// deterministic, so its in-process answer is its expected wire answer.
std::vector<Statement> MakePool(const Inputs& in, uint64_t seed) {
  Rng rng(MixSeed(seed, 0x9001));
  std::vector<Statement> pool;
  const World& w = in.world;
  auto window = [&](int days) {
    int64_t a = kDay0 + rng.Int(30 * 96) * 900LL;
    return std::make_pair(a, a + days * 86400LL);
  };
  // EOWEB metadata search: time window plus footprint, a conjunction of
  // column-vs-constant comparisons and a dictionary string equality.
  for (int i = 0; i < 64; ++i) {
    auto [a, b] = window(1 + rng.Int(6));
    pool.push_back({"sql_vec", server::Lang::kSql,
                    "SELECT name, acq_time FROM vault_rasters WHERE acq_time >= " +
                        std::to_string(a) + " AND acq_time < " +
                        std::to_string(b) + " AND footprint = '" +
                        in.tiles[rng.Int(static_cast<int>(in.tiles.size()))] +
                        "' ORDER BY acq_time, name"});
  }
  for (int i = 0; i < 16; ++i) {
    auto [a, b] = window(3 + rng.Int(10));
    pool.push_back({"sql_vec", server::Lang::kSql,
                    "SELECT id, acq_time, footprint FROM products WHERE "
                    "acq_time >= " + std::to_string(a) + " AND acq_time < " +
                        std::to_string(b) + " AND level = 'L2' ORDER BY id"});
  }
  // Outside the vectorized shapes: arithmetic and OR.
  for (int i = 0; i < 40; ++i) {
    pool.push_back({"sql_interp", server::Lang::kSql,
                    "SELECT name, acq_time FROM vault_rasters WHERE acq_time % "
                    "86400 < " + std::to_string(1800 + rng.Int(6) * 1800) +
                        " OR width * height > 60000 ORDER BY name"});
  }
  for (int i = 0; i < 40; ++i) {
    auto [a, b] = window(1);
    pool.push_back(
        {"sql_interp", server::Lang::kSql,
         "SELECT satellite, count(*) AS n FROM vault_rasters WHERE (acq_time - " +
             std::to_string(a) + ") / 3600 < " + std::to_string(6 + rng.Int(48)) +
             " AND (acq_time - " + std::to_string(b) +
             ") / 3600 > -240 GROUP BY satellite ORDER BY satellite"});
  }
  // SciQL over the registered arrays: classification and aggregates.
  auto slab = [&]() {
    int y0 = rng.Int(kArraySize / 2), x0 = rng.Int(kArraySize / 2);
    int h = 32 + rng.Int(kArraySize / 2 - 32), wdt = 32 + rng.Int(kArraySize / 2 - 32);
    return "[" + std::to_string(y0) + ":" + std::to_string(y0 + h) + ", " +
           std::to_string(x0) + ":" + std::to_string(x0 + wdt) + "]";
  };
  for (int i = 0; i < 48; ++i) {
    pool.push_back({"sciql_class", server::Lang::kSciQl,
                    "SELECT y, x FROM \"" + ArrayName(rng.Int(kArrays)) + "\"" +
                        slab() + " WHERE IR039 - IR108 > " +
                        Num(rng.Range(6, 14)) + " AND IR039 > " +
                        Num(rng.Range(300, 312)) +
                        " AND CLOUDMASK < 0.5 AND LANDMASK > 0.5"});
  }
  for (int i = 0; i < 48; ++i) {
    pool.push_back({"sciql_agg", server::Lang::kSciQl,
                    "SELECT count(*) AS n, avg(IR039) AS t39, max(IR108) AS t108 "
                    "FROM \"" + ArrayName(rng.Int(kArrays)) + "\"" + slab() +
                        " WHERE LANDMASK > " + Num(rng.Range(0.2, 0.8), "%.2f")});
  }
  // stSPARQL: the paper's headline query (products of one day whose
  // footprint covers a point, hotspots derived from them, archaeological
  // sites within a distance).
  for (int i = 0; i < 24; ++i) {
    int k = i % kArrays;
    int64_t day = in.products[k].time / 86400 * 86400;
    Pt p = RandomLandPoint(w, &rng);
    pool.push_back(
        {"sparql_join", server::Lang::kStSparql,
         "PREFIX dbo: <http://dbpedia.org/ontology/>\n"
         "SELECT DISTINCT ?product ?site ?label WHERE {\n"
         "  ?product a noa:Product ; noa:producedBySatellite \"" +
             in.products[k].satellite +
             "\" ; noa:hasAcquisitionTime ?t ; noa:hasGeometry ?pg .\n"
             "  ?hotspot a noa:Hotspot ; noa:derivedFromProduct ?l2 ; "
             "noa:hasGeometry ?hg .\n"
             "  ?l2 noa:wasDerivedFrom ?product .\n"
             "  ?site a dbo:ArchaeologicalSite ; rdfs:label ?label ; "
             "strdf:hasGeometry ?sg .\n"
             "  FILTER(?t >= \"" + IsoTime(day) + "\"^^xsd:dateTime)\n"
             "  FILTER(?t < \"" + IsoTime(day + 86400) + "\"^^xsd:dateTime)\n"
             "  FILTER(strdf:contains(?pg, \"POINT (" + Num(p.x, "%.4f") + " " +
             Num(p.y, "%.4f") + ")\"^^strdf:WKT))\n"
             "  FILTER(strdf:geodesicDistance(?hg, ?sg) < " +
             Num(rng.Range(3000, 15000), "%.1f") + ")\n} ORDER BY ?label ?site"});
  }
  // Variable-constant spatial windows with seeded boxes.
  auto box = [&]() {
    double bw = rng.Range(0.1, 0.6), bh = rng.Range(0.1, 0.6);
    double x0 = rng.Range(w.lon0, w.lon1 - bw), y0 = rng.Range(w.lat0, w.lat1 - bh);
    return WktLiteral(BoxWkt(x0, y0, x0 + bw, y0 + bh));
  };
  for (int i = 0; i < 48; ++i) {
    pool.push_back({"sparql_window", server::Lang::kStSparql,
                    "SELECT ?h ?c WHERE { ?h a noa:Hotspot ; noa:hasGeometry ?g ; "
                    "noa:hasConfidence ?c . FILTER(strdf:intersects(?g, " +
                        box() + ")) } ORDER BY ?h"});
  }
  for (int i = 0; i < 48; ++i) {
    pool.push_back({"sparql_window", server::Lang::kStSparql,
                    "SELECT ?t ?n WHERE { ?t a geonames:Feature ; geonames:name ?n "
                    "; strdf:hasGeometry ?g . FILTER(strdf:intersects(?g, " +
                        box() + ")) } ORDER BY ?n"});
  }
  // Thematic GROUP BY.
  for (int i = 0; i < 16; ++i) {
    pool.push_back({"sparql_group", server::Lang::kStSparql,
                    "SELECT ?p (count(*) AS ?n) (avg(?c) AS ?conf) WHERE { ?h a "
                    "noa:Hotspot ; noa:derivedFromProduct ?p ; noa:hasConfidence "
                    "?c . FILTER(?c > " + Num(rng.Range(0.0, 0.6), "%.2f") +
                        ") } GROUP BY ?p ORDER BY ?p"});
  }
  for (int i = 0; i < 16; ++i) {
    int64_t a = kDay0 + rng.Int(20) * 86400LL;
    pool.push_back({"sparql_group", server::Lang::kStSparql,
                    "SELECT ?s (count(*) AS ?n) WHERE { ?p a noa:Product ; "
                    "noa:producedBySatellite ?s ; noa:hasAcquisitionTime ?t . "
                    "FILTER(?t >= \"" + IsoTime(a) +
                        "\"^^xsd:dateTime) } GROUP BY ?s ORDER BY ?s"});
  }
  return pool;
}

/// Class weights of the traffic mix, in pool order of first appearance.
const std::vector<std::pair<std::string, int>>& Mix() {
  static const std::vector<std::pair<std::string, int>> kMix = {
      {"sql_vec", 25},     {"sql_interp", 15},    {"sciql_class", 10},
      {"sciql_agg", 10},   {"sparql_join", 2},    {"sparql_window", 28},
      {"sparql_group", 10}};
  return kMix;
}

Inputs MakeInputs(const Options& options, bool write_files) {
  Inputs in;
  in.world = MakeWorld();
  in.archive_dir = options.work_dir + "/wr_archive";
  if (write_files) std::filesystem::create_directories(in.archive_dir);
  LandGrid grid = MakeLandGrid(in.world, kArraySize);
  for (int k = 0; k < kArrays; ++k) {
    vault::TerRaster raster =
        MakeAcquisition(in.world, grid, ArrayName(k),
                        kDay0 + 86400LL * (1 + 2 * k) + 36000,
                        MixSeed(options.seed, 500 + k));
    in.products.push_back({raster.name, raster.satellite,
                           raster.acquisition_time, raster.FootprintWkt()});
    in.raster_digest = Fnv1a(raster.bands[2].data(),
                             raster.bands[2].size() * sizeof(double),
                             in.raster_digest);
    if (write_files) {
      Status st = vault::WriteTer(raster,
                                  in.archive_dir + "/" + raster.name + ".ter");
      if (!st.ok()) throw std::runtime_error(st.ToString());
    }
  }
  Rng rng(MixSeed(options.seed, 0xca7));
  const World& w = in.world;
  double ext = (w.lon1 - w.lon0) / kTilesPerSide;
  for (int i = 0; i < kCatalogue; ++i) {
    int tile = rng.Int(kTilesPerSide * kTilesPerSide);
    char name[32];
    std::snprintf(name, sizeof(name), "cat_%05d", i);
    vault::TerRaster entry = MakeCatalogueEntry(
        name, rng.Int(2) ? "Meteosat-9" : "Meteosat-8",
        w.lon0 + ext * (tile % kTilesPerSide),
        w.lat0 + ext * (tile / kTilesPerSide), ext,
        kDay0 + rng.Int(30 * 96) * 900LL);
    in.products.push_back({entry.name, entry.satellite, entry.acquisition_time,
                           entry.FootprintWkt()});
    if (write_files) {
      Status st = vault::WriteTer(entry, in.archive_dir + "/" + name + ".ter");
      if (!st.ok()) throw std::runtime_error(st.ToString());
    }
  }
  std::set<std::string> tiles;
  for (size_t i = kArrays; i < in.products.size(); ++i) {
    tiles.insert(in.products[i].footprint_wkt);
  }
  in.tiles.assign(tiles.begin(), tiles.end());
  in.coastline = CoastlineTurtle(w);
  in.places = PlacesTurtle(w, 300, 200, options.seed);
  in.products_turtle = ProductsTurtle(in.products);
  in.pool = MakePool(in, options.seed);
  return in;
}

/// One served observatory: the facade, its server and the clients.
struct Stack {
  std::unique_ptr<core::VirtualEarthObservatory> veo;
  std::unique_ptr<server::TeleiosServer> server;
  std::vector<server::Client> clients;

  ~Stack() {
    for (server::Client& c : clients) (void)c.Goodbye();
    clients.clear();
    if (server) (void)server->Shutdown();
  }
};

void SetUp(const Inputs& in, Stack* stack, Report* report) {
  stack->veo = std::make_unique<core::VirtualEarthObservatory>();
  core::VirtualEarthObservatory& veo = *stack->veo;
  auto attached = veo.AttachArchive(in.archive_dir);
  if (!attached.ok() || *attached != static_cast<size_t>(kArrays + kCatalogue)) {
    report->Fail("wire_reads: archive attach failed");
    return;
  }
  for (const std::string* doc : {&in.coastline, &in.places, &in.products_turtle}) {
    if (!veo.LoadLinkedData(*doc).ok()) {
      report->Fail("wire_reads: linked data load failed");
      return;
    }
  }
  noa::ChainConfig config;
  config.classifier.kind = noa::ClassifierKind::kContextual;
  for (int k = 0; k < kArrays; ++k) {
    if (!veo.RegisterRaster(ArrayName(k)).ok() ||
        !veo.RunFireChain(ArrayName(k), config).ok() ||
        !veo.Refine(ProductId(k)).ok()) {
      report->Fail("wire_reads: chain set-up failed on " + ArrayName(k));
      return;
    }
  }
  stack->server = std::make_unique<server::TeleiosServer>(stack->veo.get(),
                                                          server::ServerConfig());
  if (!stack->server->Start().ok()) {
    report->Fail("wire_reads: server start failed");
    return;
  }
  for (int c = 0; c < kClients; ++c) {
    auto client = server::Client::Connect("127.0.0.1", stack->server->port());
    if (!client.ok()) {
      report->Fail("wire_reads: connect failed: " + client.status().ToString());
      return;
    }
    stack->clients.push_back(std::move(*client));
  }
}

Result<storage::Table> InProcess(core::VirtualEarthObservatory* veo,
                                 const Statement& s, const std::string& text) {
  switch (s.lang) {
    case server::Lang::kSql: return veo->Sql(text);
    case server::Lang::kSciQl: return veo->SciQl(text);
    case server::Lang::kStSparql: return veo->StSparql(text);
  }
  return Status::Internal("unknown language");
}

uint64_t Encoding(const storage::Table& t) {
  return Fnv1a(server::EncodeTable(t, 1024));
}

/// The process's strabon index-build counter.
double IndexBuilds() {
  return static_cast<double>(obs::MetricsRegistry::Global()
                                 .GetCounter("teleios_strabon_index_builds_total")
                                 ->value());
}

const char* LangKey(server::Lang lang) {
  switch (lang) {
    case server::Lang::kSql: return "sql";
    case server::Lang::kSciQl: return "sciql";
    case server::Lang::kStSparql: return "sparql";
  }
  return "?";
}

/// Per-client state and results of the timed loop, merged after the
/// last slice.
struct ClientLog {
  explicit ClientLog(uint64_t seed) : rng(seed) {}
  Rng rng;
  uint64_t n = 0;  // statements drawn so far
  std::vector<std::pair<std::string, double>> samples;
  uint64_t attempted = 0, failed = 0;
  std::vector<std::string> errors;  // the first few only

  void Error(std::string what) {
    if (errors.size() < 5) errors.push_back(std::move(what));
  }
};

void ClientLoop(server::Client* client, const std::vector<Statement>& pool,
                const std::vector<std::vector<int>>& by_class,
                Clock::time_point deadline, bool trace, ClientLog* log) {
  Rng& rng = log->rng;
  int total_weight = 0;
  for (const auto& [cls, weight] : Mix()) total_weight += weight;
  while (Clock::now() < deadline) {
    int pick = rng.Int(total_weight), cls = 0;
    while (pick >= Mix()[cls].second) pick -= Mix()[cls++].second;
    const std::vector<int>& members = by_class[cls];
    const Statement& s = pool[members[rng.Int(static_cast<int>(members.size()))]];
    const bool traced = trace && (log->n++ % 2 == 1);
    Clock::time_point start = Clock::now();
    auto result = client->Query(s.lang, traced ? "PROFILE " + s.text : s.text);
    double ms = MillisSince(start);
    ++log->attempted;
    if (!result.ok()) {
      ++log->failed;
      log->Error(s.cls + ": " + result.status().ToString());
      continue;
    }
    if (!traced) {
      log->samples.emplace_back(std::string("op_ms"), ms);
      log->samples.emplace_back(std::string(LangKey(s.lang)) + "_ms", ms);
      if (Encoding(*result) != s.expected) {
        log->Error("wire answer differs from in-process answer: " +
                   s.text.substr(0, 120));
      }
      continue;
    }
    log->samples.emplace_back(std::string("op_traced_ms"), ms);
    obs::SpanNode tree = SpanTreeFromProfile(*result);
    if (tree.Attr("rows") != std::to_string(s.expected_rows)) {
      log->Error("PROFILE row count differs: " + s.text.substr(0, 120));
    }
    std::vector<double> admit;
    CollectSpans(tree, "governor.admit", &admit);
    for (double v : admit) log->samples.emplace_back("governor.admit_ms", v);
    auto span = [&](const std::string& name) { return SpanMillis(tree, name); };
    if (s.lang == server::Lang::kSql) {
      log->samples.emplace_back("relational.parse_ms", span("parse"));
      log->samples.emplace_back("relational.plan_ms", span("plan"));
      log->samples.emplace_back("relational.execute_ms", span("execute"));
    } else if (s.lang == server::Lang::kSciQl) {
      log->samples.emplace_back("sciql.execute_ms", span("execute"));
    } else {
      log->samples.emplace_back("strabon.parse_ms", span("parse"));
      log->samples.emplace_back("strabon.match_ms", span("match"));
      log->samples.emplace_back("strabon.execute_ms", span("execute"));
    }
  }
}

}  // namespace

void RunWireReads(const Options& options, Report* report) {
  Inputs in = MakeInputs(options, /*write_files=*/true);
  std::unique_ptr<Stack> stack;
  for (int round = 0; round < kSetupRounds && report->ok(); ++round) {
    stack.reset();
    Clock::time_point start = Clock::now();
    stack = std::make_unique<Stack>();
    SetUp(in, stack.get(), report);
    report->Sample("setup_s", MillisSince(start) / 1000.0);
  }
  if (!report->ok()) return;
  core::VirtualEarthObservatory* veo = stack->veo.get();

  // Warm-up, single threaded: every pool statement once in process (its
  // answer is the expected wire answer) and once over the wire. Besides
  // filling caches, this runs every lazy build the statements trigger
  // (triple indexes, the R-tree, the parsed-WKT cache, interned result
  // terms) before four sessions read concurrently; see NOTES.md on the
  // concurrent-session defect.
  std::vector<std::vector<int>> by_class(Mix().size());
  for (size_t i = 0; i < in.pool.size(); ++i) {
    Statement& s = in.pool[i];
    auto local = InProcess(veo, s, s.text);
    if (!local.ok()) {
      report->Fail("wire_reads: in-process " + s.cls + " failed: " +
                   local.status().ToString() + " in " + s.text.substr(0, 160));
      return;
    }
    s.expected = Encoding(*local);
    s.expected_rows = local->num_rows();
    auto wire = stack->clients[0].Query(s.lang, s.text);
    if (!wire.ok() || Encoding(*wire) != s.expected) {
      report->Fail("wire_reads: warm-up wire answer differs for " +
                   s.text.substr(0, 160));
      return;
    }
    for (size_t c = 0; c < Mix().size(); ++c) {
      if (Mix()[c].first == s.cls) by_class[c].push_back(static_cast<int>(i));
    }
    report->Add("ledger.rows." + s.cls, static_cast<double>(s.expected_rows));
    report->Add("ledger.statements." + s.cls, 1);
  }
  // A pass can leave lazy state stale for the next one: GROUP BY answers
  // intern new terms, and the R-tree is rebuilt on the next spatial query
  // once the dictionary has grown. Repeat in-process passes until one
  // leaves the term dictionary as it found it.
  bool stable = false;
  for (int pass = 0; pass < kWarmupPasses && !stable; ++pass) {
    auto terms = veo->strabon().store().dict().size();
    for (const Statement& s : in.pool) {
      auto again = InProcess(veo, s, s.text);
      if (!again.ok() || Encoding(*again) != s.expected) {
        report->Fail("wire_reads: a repeated statement changed its answer: " +
                     s.text.substr(0, 160));
        return;
      }
    }
    stable = veo->strabon().store().dict().size() == terms;
  }
  if (!stable) {
    report->Fail("wire_reads: the term dictionary still grew after " +
                 std::to_string(kWarmupPasses) +
                 " warm-up passes; the timed phase would rebuild the R-tree "
                 "under concurrent sessions");
    return;
  }

  // The timed phase runs in slices. Between slices of an untraced run the
  // clients pause and a fresh set-up (its own observatory, server and
  // connections) is timed, so that setup_s samples the machine over the
  // whole run. Pauses are not measured time; traced runs run one slice
  // (their metric diffs would include the probes).
  const int slices = options.trace ? 1 : kSetupProbes + 1;
  const double slice_s = options.seconds / slices;
  std::vector<ClientLog> logs;
  for (int c = 0; c < kClients; ++c) logs.emplace_back(MixSeed(options.seed, 77 + c));
  report->Snapshot("metrics_before", veo->MetricsJson());
  double measured_s = 0, builds = 0;
  for (int slice = 0; slice < slices; ++slice) {
    if (slice > 0) {
      Clock::time_point t0 = Clock::now();
      Stack probe;
      SetUp(in, &probe, report);
      report->Sample("setup_s", MillisSince(t0) / 1000.0);
    }
    const double builds_before = IndexBuilds();
    Clock::time_point start = Clock::now();
    Clock::time_point deadline =
        start + std::chrono::microseconds(static_cast<int64_t>(slice_s * 1e6));
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back(ClientLoop, &stack->clients[c], std::cref(in.pool),
                           std::cref(by_class), deadline, options.trace,
                           &logs[c]);
    }
    for (std::thread& t : threads) t.join();
    measured_s += MillisSince(start) / 1000.0;
    builds += IndexBuilds() - builds_before;
  }
  report->Snapshot("metrics_after", veo->MetricsJson());
  report->Count("measured_s", measured_s);
  // A lazy index build with four sessions reading is the race the warm-up
  // exists to avoid; count it in every run so that it shows as itself.
  report->Count("timed_index_builds", builds);
  for (const ClientLog& log : logs) {
    report->attempted += log.attempted;
    report->failed += log.failed;
    for (const auto& [name, v] : log.samples) report->Sample(name, v);
    for (const std::string& e : log.errors) report->Fail("wire_reads: " + e);
  }

  if (options.trace) {
    // The ledger pass, one statement at a time: the in-process time of
    // each pool statement against its wire round trip, the encoding cost
    // of its answer, and per-engine counter ratios.
    std::vector<double> local_ms(in.pool.size());
    for (const auto& [cls, weight] : Mix()) {
      report->Snapshot("ledger_before." + cls, veo->MetricsJson());
      for (size_t i = 0; i < in.pool.size(); ++i) {
        const Statement& s = in.pool[i];
        if (s.cls != cls) continue;
        Clock::time_point t0 = Clock::now();
        auto local = InProcess(veo, s, s.text);
        local_ms[i] = MillisSince(t0);
        if (!local.ok()) {
          report->Fail("wire_reads: ledger pass failed on " + s.text.substr(0, 120));
          return;
        }
        t0 = Clock::now();
        std::string encoded = server::EncodeTable(*local, 1024);
        report->Sample("server.encode_ms", MillisSince(t0));
      }
      report->Snapshot("ledger_after." + cls, veo->MetricsJson());
    }
    report->Snapshot("ledger_before.wire", veo->MetricsJson());
    double frames = 0;
    for (size_t i = 0; i < in.pool.size(); ++i) {
      const Statement& s = in.pool[i];
      Clock::time_point t0 = Clock::now();
      auto wire = stack->clients[0].Query(s.lang, s.text);
      double wire_ms = MillisSince(t0);
      if (!wire.ok()) {
        report->Fail("wire_reads: ledger pass failed on " + s.text.substr(0, 120));
        return;
      }
      // SCHEMA + ROWS* + DONE
      frames += static_cast<double>(stack->clients[0].last_chunks() + 2);
      report->Sample("server.wire_tax_ms", wire_ms - local_ms[i]);
    }
    report->Snapshot("ledger_after.wire", veo->MetricsJson());
    report->Count("ledger.statements", static_cast<double>(in.pool.size()));
    report->Count("ledger.frames", frames);
  }
  report->Count("peak_rss_mb", PeakRssMb());
  stack.reset();
}

uint64_t WireReadsInputDigest(const Options& options) {
  Inputs in = MakeInputs(options, /*write_files=*/false);
  uint64_t h = Fnv1a(in.coastline, in.raster_digest);
  h = Fnv1a(in.places, h);
  h = Fnv1a(in.products_turtle, h);
  for (const Statement& s : in.pool) h = Fnv1a(s.text, h);
  return h;
}

}  // namespace perfbench
