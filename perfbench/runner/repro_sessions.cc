// Repro of the concurrent-session defect the benchmark works around:
// one publisher session writing stSPARQL plus three sessions reading,
// all over the wire against one observatory. Not part of any workload.
//
//   perfbench_repro_sessions [--seconds N] [--readers-only] [--durable DIR]
//
// Prints "survived" and exits 0 when the mix ran for N seconds; on the
// affected code the process aborts first (heap corruption). The readers
// start right after the load, with no warm-up, as in the field.

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "core/observatory.h"
#include "runner/gen.h"
#include "server/client.h"
#include "server/server.h"

using namespace teleios;
using perfbench::Rng;

int main(int argc, char** argv) {
  double seconds = 10;
  bool readers_only = false;
  std::string durable_dir;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--seconds" && i + 1 < argc) {
      seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--readers-only") {
      readers_only = true;
    } else if (arg == "--durable" && i + 1 < argc) {
      durable_dir = argv[++i];
    } else {
      std::fprintf(stderr, "unknown argument %s\n", arg.c_str());
      return 2;
    }
  }
  SetLogLevel(LogLevel::kError);
  const uint64_t seed = 1;
  perfbench::World world = perfbench::MakeWorld();
  core::VirtualEarthObservatory veo;
  if (!durable_dir.empty() && !veo.Open(durable_dir).ok()) return 2;
  if (!veo.LoadLinkedData(perfbench::ChurnBaseTurtle(world, 100, 50, seed)).ok()) {
    return 2;
  }
  server::TeleiosServer server(&veo, server::ServerConfig());
  if (!server.Start().ok()) return 2;

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> statements{0};
  auto session = [&](int id, bool writer) {
    auto client = server::Client::Connect("127.0.0.1", server.port());
    if (!client.ok()) return;
    Rng rng(perfbench::MixSeed(seed, id));
    for (int step = 0; !stop.load(); ++step) {
      std::string statement;
      if (writer) {
        statement = (step % 2 == 0 ? "INSERT DATA { " : "DELETE DATA { ") +
                    perfbench::ChurnBatchTriples(world, step / 2, 8, 100, seed) + "}";
      } else if (step % 2 == 0) {
        statement =
            "SELECT ?h ?c WHERE { ?h a noa:Hotspot ; noa:derivedFromProduct "
            "<http://teleios.di.uoa.gr/ontologies/noaOntology.owl#product/hist_p" +
            std::to_string(rng.Int(100)) + "> ; noa:hasConfidence ?c }";
      } else {
        double x = rng.Range(world.lon0, world.lon1 - 0.3);
        double y = rng.Range(world.lat0, world.lat1 - 0.3);
        statement = "SELECT ?h WHERE { ?h a noa:Hotspot ; noa:hasGeometry ?g . "
                    "FILTER(strdf:intersects(?g, " +
                    perfbench::WktLiteral(perfbench::BoxWkt(x, y, x + 0.3, y + 0.3)) +
                    ")) }";
      }
      (void)client->Query(server::Lang::kStSparql, statement);
      statements.fetch_add(1);
    }
  };
  std::vector<std::thread> threads;
  for (int id = 0; id < 4; ++id) {
    threads.emplace_back(session, id, id == 0 && !readers_only);
  }
  std::this_thread::sleep_for(
      std::chrono::milliseconds(static_cast<int64_t>(seconds * 1000)));
  stop.store(true);
  for (std::thread& t : threads) t.join();
  (void)server.Shutdown();
  std::printf("survived: %llu statements\n",
              static_cast<unsigned long long>(statements.load()));
  return 0;
}
