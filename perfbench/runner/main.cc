// The observatory benchmark's runner. run.py builds it and invokes
//
//   perfbench_runner --workload <name> --seed <n> --seconds <s>
//                    --trace <0|1> --work-dir <dir>
//
// and reads the raw report printed as the last line of stdout.
// `--input-digest` prints a digest of the generated inputs instead.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "common/logging.h"
#include "runner/report.h"
#include "runner/workloads.h"

int main(int argc, char** argv) {
  perfbench::Options options;
  bool input_digest = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--workload") {
      options.workload = value();
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--trace") {
      options.trace = value() == "1";
    } else if (arg == "--work-dir") {
      options.work_dir = value();
    } else if (arg == "--input-digest") {
      input_digest = true;
    } else {
      std::fprintf(stderr, "unknown argument %s\n", arg.c_str());
      return 2;
    }
  }
  if (options.work_dir.empty() || options.seconds <= 0) {
    std::fprintf(stderr, "--work-dir and a positive --seconds are required\n");
    return 2;
  }
  teleios::SetLogLevel(teleios::LogLevel::kError);
  std::filesystem::create_directories(options.work_dir);

  perfbench::Report report;
  try {
    if (input_digest) {
      uint64_t digest = options.workload == "noa_stream"
                            ? perfbench::NoaStreamInputDigest(options)
                        : options.workload == "wire_reads"
                            ? perfbench::WireReadsInputDigest(options)
                            : perfbench::WireChurnInputDigest(options);
      std::printf("%016llx\n", static_cast<unsigned long long>(digest));
      return 0;
    }
    if (options.workload == "noa_stream") {
      perfbench::RunNoaStream(options, &report);
    } else if (options.workload == "wire_reads") {
      perfbench::RunWireReads(options, &report);
    } else if (options.workload == "wire_churn") {
      perfbench::RunWireChurn(options, &report);
    } else {
      std::fprintf(stderr, "unknown workload '%s'\n", options.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    report.Fail(std::string("exception: ") + e.what());
  }
  std::printf("%s\n", report.ToJson(options).c_str());
  return report.ok() ? 0 : 1;
}
