// wire_churn: one publisher session keeps a durable observatory's
// semantic store current. Each step inserts a batch of hotspot and
// annotation triples, deletes a superseded batch, and reads back with
// one thematic and one spatial query. The flush policy is the system's
// only one: every acknowledged mutation is fsynced to the WAL before the
// acknowledgement. After the timed phase the directory is restarted from
// its crash image and checked: every acknowledged insert present, every
// acknowledged delete absent.

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <memory>
#include <optional>

#include "core/observatory.h"
#include "rdf/turtle.h"
#include "runner/gen.h"
#include "runner/report.h"
#include "runner/workloads.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"

namespace perfbench {

using namespace ::teleios;

namespace {

constexpr int kProducts = 100;        // historical products in the store
constexpr int kHotspotsPerProduct = 50;
constexpr int kBatch = 8;             // hotspots per published batch
constexpr int kLag = 16;              // a batch is superseded this many steps later
constexpr double kStepsPerSecond = 25;  // run length per --seconds
constexpr uint64_t kCheckpointSlack = 1 << 20;  // log bytes past the carry-forward
constexpr int kSetupRounds = 2;      // set-ups before the timed phase
constexpr int kSetupProbes = 8;       // set-ups spread over an untraced phase
constexpr int kRestarts = 3;
constexpr size_t kReplayMutations = 96;  // mutations the rdf replay times
constexpr int kLedgerReads = 32;      // reads the wire-tax ledger pairs

const char* kNoa = "http://teleios.di.uoa.gr/ontologies/noaOntology.owl#";

std::string InsertStatement(const World& w, int step, uint64_t seed) {
  return "INSERT DATA { " + ChurnBatchTriples(w, step, kBatch, kProducts, seed) +
         "}";
}

std::string DeleteStatement(const World& w, int step, uint64_t seed) {
  return "DELETE DATA { " + ChurnBatchTriples(w, step, kBatch, kProducts, seed) +
         "}";
}

std::string ThematicRead(int product) {
  return std::string("SELECT ?h ?c WHERE { ?h a noa:Hotspot ; "
                     "noa:derivedFromProduct <") +
         kNoa + "product/hist_p" + std::to_string(product) +
         "> ; noa:hasConfidence ?c } ORDER BY ?h";
}

std::string SpatialRead(const World& w, Rng* rng) {
  double bw = rng->Range(0.05, 0.3), bh = rng->Range(0.05, 0.3);
  double x0 = rng->Range(w.lon0, w.lon1 - bw), y0 = rng->Range(w.lat0, w.lat1 - bh);
  return "SELECT ?h WHERE { ?h a noa:Hotspot ; noa:hasGeometry ?g . "
         "FILTER(strdf:intersects(?g, " +
         WktLiteral(BoxWkt(x0, y0, x0 + bw, y0 + bh)) + ")) } ORDER BY ?h";
}

struct Stack {
  std::unique_ptr<core::VirtualEarthObservatory> veo;
  std::unique_ptr<server::TeleiosServer> server;
  std::optional<server::Client> client;

  ~Stack() { Stop(); }
  void Stop() {
    if (client) (void)client->Goodbye();
    client.reset();
    if (server) (void)server->Shutdown();
    server.reset();
    veo.reset();
  }
};

void SetUp(const std::string& dir, const core::DurabilityOptions& durability,
           const std::string& base, Stack* stack, Report* report) {
  stack->veo = std::make_unique<core::VirtualEarthObservatory>();
  Status opened = stack->veo->Open(dir, durability);
  if (!opened.ok()) {
    report->Fail("wire_churn: Open failed: " + opened.ToString());
    return;
  }
  if (!stack->veo->LoadLinkedData(base).ok()) {
    report->Fail("wire_churn: base store load failed");
    return;
  }
  stack->server = std::make_unique<server::TeleiosServer>(stack->veo.get(),
                                                          server::ServerConfig());
  if (!stack->server->Start().ok()) {
    report->Fail("wire_churn: server start failed");
    return;
  }
  auto client = server::Client::Connect("127.0.0.1", stack->server->port());
  if (!client.ok()) {
    report->Fail("wire_churn: connect failed: " + client.status().ToString());
    return;
  }
  stack->client.emplace(std::move(*client));
}

/// The triples of one batch as terms, parsed with the store's own Turtle
/// reader so they compare exactly with what the update interned.
std::vector<std::array<rdf::Term, 3>> BatchTerms(const World& w, int step,
                                                 uint64_t seed) {
  rdf::TripleStore scratch;
  std::vector<std::array<rdf::Term, 3>> out;
  if (!rdf::ParseTurtle(TurtlePrologue() +
                            ChurnBatchTriples(w, step, kBatch, kProducts, seed),
                        &scratch)
           .ok()) {
    return out;
  }
  for (const rdf::Triple& t : scratch.triples()) {
    out.push_back({scratch.dict().At(t.s), scratch.dict().At(t.p),
                   scratch.dict().At(t.o)});
  }
  return out;
}

std::pair<rdf::Term, rdf::Term> HotspotType() {
  return {rdf::Term::Iri("http://www.w3.org/1999/02/22-rdf-syntax-ns#type"),
          rdf::Term::Iri(std::string(kNoa) + "Hotspot")};
}

bool Present(const rdf::TripleStore& store, const std::array<rdf::Term, 3>& t) {
  return !store.Match(t[0], t[1], t[2]).empty();
}

}  // namespace

void RunWireChurn(const Options& options, Report* report) {
  const World world = MakeWorld();
  const std::string base =
      ChurnBaseTurtle(world, kProducts, kHotspotsPerProduct, options.seed);

  // Size the checkpoint threshold from the store's carry-forward image
  // (a checkpoint re-logs the whole store), so a run spans several
  // checkpoints whatever the seed.
  core::DurabilityOptions durability;
  {
    core::VirtualEarthObservatory sizing;
    if (!sizing.LoadLinkedData(base).ok()) {
      report->Fail("wire_churn: base store does not load");
      return;
    }
    durability.checkpoint_bytes = sizing.strabon().ToTurtle().size() + kCheckpointSlack;
  }

  std::string dir;
  Stack stack;
  for (int round = 0; round < kSetupRounds && report->ok(); ++round) {
    stack.Stop();
    if (!dir.empty()) RemoveTree(dir);
    dir = options.work_dir + "/churn_" + std::to_string(round);
    RemoveTree(dir);
    Clock::time_point start = Clock::now();
    SetUp(dir, durability, base, &stack, report);
    report->Sample("setup_s", MillisSince(start) / 1000.0);
  }
  if (!report->ok()) return;
  server::Client& client = *stack.client;

  // live[k]: churn steps published for product k and not yet superseded.
  std::vector<int> live(kProducts, 0);
  std::vector<int> inserted, deleted;
  std::deque<int> pending;  // acknowledged inserts awaiting supersession
  std::vector<std::string> replay;  // the mutation sequence, for the rdf replay
  Rng rng(MixSeed(options.seed, 0xc0ffee));
  double user_bytes = 0;

  double step_ms = 0;  // the statements of the current step
  auto write = [&](const std::string& statement) {
    Clock::time_point t0 = Clock::now();
    auto result = client.Query(server::Lang::kStSparql, statement);
    double ms = MillisSince(t0);
    step_ms += ms;
    ++report->attempted;
    if (!result.ok()) {
      ++report->failed;
      report->Fail("wire_churn: write failed: " + result.status().ToString());
      return false;
    }
    report->Sample("op_ms", ms);
    report->Sample("write_ms", ms);
    user_bytes += static_cast<double>(statement.size());
    if (replay.size() < kReplayMutations) replay.push_back(statement);
    return true;
  };
  bool traced = false;  // traced runs PROFILE the reads of every other step
  auto read = [&](const std::string& statement, int64_t expected_rows) {
    Clock::time_point t0 = Clock::now();
    auto result = client.Query(server::Lang::kStSparql,
                               traced ? "PROFILE " + statement : statement);
    double ms = MillisSince(t0);
    step_ms += ms;
    ++report->attempted;
    if (!result.ok()) {
      ++report->failed;
      report->Fail("wire_churn: read failed: " + result.status().ToString());
      return;
    }
    int64_t rows = static_cast<int64_t>(result->num_rows());
    if (traced) {
      obs::SpanNode tree = SpanTreeFromProfile(*result);
      rows = std::atoll(tree.Attr("rows").c_str());
      report->Sample("op_traced_ms", ms);
      report->Sample("strabon.parse_ms", SpanMillis(tree, "parse"));
      report->Sample("strabon.match_ms", SpanMillis(tree, "match"));
      report->Sample("strabon.execute_ms", SpanMillis(tree, "execute"));
      std::vector<double> admit;
      CollectSpans(tree, "governor.admit", &admit);
      for (double v : admit) report->Sample("governor.admit_ms", v);
    } else {
      report->Sample("op_ms", ms);
      report->Sample("read_ms", ms);
    }
    if (expected_rows >= 0 && rows != expected_rows) {
      report->Fail("wire_churn: thematic read returned " + std::to_string(rows) +
                   " rows, expected " + std::to_string(expected_rows));
    }
  };

  // A run of fixed length, scaled by --seconds and paced over them (at
  // most kStepsPerSecond steps start in a second). Every step interns new
  // hotspot terms and the term dictionary never shrinks, so reads slow as
  // the run goes on: a time limit would hand a faster program a longer
  // run, a larger dictionary and a slower tail.
  const int steps = std::max(2 * kLag, static_cast<int>(std::lround(
                                           kStepsPerSecond * options.seconds)));
  // Untraced runs also time a fresh set-up (its own directory, server
  // and session) at evenly spaced steps, so that setup_s samples the
  // machine over the whole run. Probe time is not measured time; traced
  // runs skip the probes (their metric diffs would include them).
  std::vector<int> probe_at;
  if (!options.trace) {
    for (int k = 1; k <= kSetupProbes; ++k) {
      probe_at.push_back(k * steps / (kSetupProbes + 1));
    }
  }
  size_t next_probe = 0;
  double measured_ms = 0;  // the steps' own time, without waits and probes

  report->Snapshot("metrics_before", stack.veo->MetricsJson());
  Pacer pacer(options.seconds, steps);
  int step = 0;
  for (; step < steps && report->ok(); ++step) {
    if (next_probe < probe_at.size() && probe_at[next_probe] == step) {
      Clock::time_point probe_start = Clock::now();
      std::string probe_dir = options.work_dir + "/churn_probe";
      RemoveTree(probe_dir);
      {
        Stack probe;
        Clock::time_point t0 = Clock::now();
        SetUp(probe_dir, durability, base, &probe, report);
        report->Sample("setup_s", MillisSince(t0) / 1000.0);
      }
      RemoveTree(probe_dir);
      pacer.Shift(MillisSince(probe_start));
      ++next_probe;
    }
    pacer.Wait(step);
    Clock::time_point step_start = Clock::now();
    step_ms = 0;
    traced = options.trace && step % 2 == 1;
    if (!write(InsertStatement(world, step, options.seed))) break;
    inserted.push_back(step);
    pending.push_back(step);
    ++live[step % kProducts];
    if (static_cast<int>(pending.size()) > kLag) {
      int old = pending.front();
      if (!write(DeleteStatement(world, old, options.seed))) break;
      pending.pop_front();
      deleted.push_back(old);
      --live[old % kProducts];
    }
    int product = rng.Int(kProducts);
    read(ThematicRead(product), kHotspotsPerProduct + kBatch * live[product]);
    read(SpatialRead(world, &rng), -1);
    report->Sample("step_ms", step_ms);
    measured_ms += MillisSince(step_start);
  }
  report->Count("measured_s", measured_ms / 1000.0);
  report->Snapshot("metrics_after", stack.veo->MetricsJson());
  report->Count("user_bytes", user_bytes);
  const size_t live_triples = stack.veo->strabon().size();

  if (options.trace) {
    // Ledger pass: thematic reads in process against the same reads over
    // the wire, and the encoding of their answers.
    report->Snapshot("ledger_before.wire", stack.veo->MetricsJson());
    double rows = 0, frames = 0;
    for (int product = 0; product < kLedgerReads; ++product) {
      std::string statement = ThematicRead(product);
      Clock::time_point t0 = Clock::now();
      auto local = stack.veo->StSparql(statement);
      double local_ms = MillisSince(t0);
      t0 = Clock::now();
      auto wire = client.Query(server::Lang::kStSparql, statement);
      double wire_ms = MillisSince(t0);
      if (!local.ok() || !wire.ok()) {
        report->Fail("wire_churn: ledger read failed");
        return;
      }
      report->Sample("server.wire_tax_ms", wire_ms - local_ms);
      t0 = Clock::now();
      std::string encoded = server::EncodeTable(*local, 1024);
      report->Sample("server.encode_ms", MillisSince(t0));
      rows += static_cast<double>(wire->num_rows());
      frames += static_cast<double>(client.last_chunks() + 2);
    }
    report->Snapshot("ledger_after.wire", stack.veo->MetricsJson());
    report->Count("ledger.statements", kLedgerReads);
    report->Count("ledger.rows", rows);
    report->Count("ledger.frames", frames);
  }

  // Crash image: every acknowledged mutation was fsynced, so the files
  // as they are now are what a crash would leave. Restart copies of it.
  std::vector<std::string> images;
  for (int r = 0; r < kRestarts; ++r) {
    images.push_back(options.work_dir + "/churn_crash_" + std::to_string(r));
    RemoveTree(images.back());
    std::filesystem::copy(dir, images.back(),
                          std::filesystem::copy_options::recursive);
  }
  stack.Stop();
  RemoveTree(dir);

  std::unique_ptr<core::VirtualEarthObservatory> recovered;
  for (const std::string& image : images) {
    recovered.reset();
    Clock::time_point t0 = Clock::now();
    recovered = std::make_unique<core::VirtualEarthObservatory>();
    Status st = recovered->Open(image, durability);
    report->Sample("recovery_s", MillisSince(t0) / 1000.0);
    if (!st.ok()) {
      report->Fail("wire_churn: reopen failed: " + st.ToString());
      return;
    }
  }
  report->Count("core.recovery_records_replayed",
                static_cast<double>(recovered->recovery_report().records_replayed));
  const rdf::TripleStore& store = recovered->strabon().store();
  // The store deduplicates lazily, on its first index build; a Match
  // makes size() the number of distinct triples, as it was before the
  // restart (whose last statement was a read).
  (void)store.Match(std::nullopt, HotspotType().first, HotspotType().second);
  if (store.size() != live_triples) {
    report->Fail("wire_churn: recovered store holds " + std::to_string(store.size()) +
                 " triples, " + std::to_string(live_triples) + " were live");
  }
  std::vector<char> gone(inserted.size() + 1, 0);
  for (int s : deleted) gone[s] = 1;
  for (int s : inserted) {
    for (const auto& t : BatchTerms(world, s, options.seed)) {
      if (Present(store, t) == static_cast<bool>(gone[s])) {
        report->Fail("wire_churn: after restart, batch " + std::to_string(s) +
                     (gone[s] ? " was deleted but is present"
                              : " was inserted but is missing"));
        break;
      }
    }
  }
  recovered.reset();
  for (const std::string& image : images) RemoveTree(image);

  if (options.trace) {
    // rdf: the same mutation sequence against a bare Strabon, timing the
    // first Match after each write against a repeat with no write between.
    strabon::Strabon bare;
    if (!bare.LoadTurtle(base).ok()) {
      report->Fail("wire_churn: replay store does not load");
      return;
    }
    auto [type, hotspot] = HotspotType();
    for (const std::string& statement : replay) {
      if (!bare.Update(statement).ok()) {
        report->Fail("wire_churn: replay update failed");
        return;
      }
      for (const char* name : {"rdf.read_after_write_ms", "rdf.read_steady_ms"}) {
        Clock::time_point t0 = Clock::now();
        size_t n = bare.store().Match(std::nullopt, type, hotspot).size();
        report->Sample(name, MillisSince(t0));
        if (n == 0) report->Fail("wire_churn: replay lost the hotspots");
      }
    }
  }
  report->Count("peak_rss_mb", PeakRssMb());
}

uint64_t WireChurnInputDigest(const Options& options) {
  World world = MakeWorld();
  uint64_t h = Fnv1a(ChurnBaseTurtle(world, kProducts, kHotspotsPerProduct,
                                     options.seed));
  Rng rng(MixSeed(options.seed, 0xc0ffee));
  for (int step = 0; step < 64; ++step) {
    h = Fnv1a(InsertStatement(world, step, options.seed), h);
    h = Fnv1a(ThematicRead(rng.Int(kProducts)), h);
    h = Fnv1a(SpatialRead(world, &rng), h);
  }
  return h;
}

}  // namespace perfbench
