#ifndef PERFBENCH_RUNNER_REPORT_H_
#define PERFBENCH_RUNNER_REPORT_H_

// The raw report a workload hands to run.py: named latency samples,
// named counts, metric snapshots and correctness findings. run.py turns
// it into the benchmark's metrics; nothing here computes a statistic.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "obs/trace.h"
#include "storage/table.h"

namespace perfbench {

namespace obs = ::teleios::obs;
namespace storage = ::teleios::storage;

using Clock = std::chrono::steady_clock;

inline double MillisSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Spreads a run of fixed length over the requested seconds: op k starts
/// no earlier than k * seconds / ops after the start, so that a run
/// samples the machine over its whole length rather than over however
/// long the ops take back to back. An op that overruns its slot lets the
/// next start at once. The wait is not measured time.
class Pacer {
 public:
  Pacer(double seconds, int ops)
      : interval_(std::chrono::duration<double>(seconds / (ops > 0 ? ops : 1))),
        start_(Clock::now()) {}
  /// Waits for op k's slot.
  void Wait(int k) const {
    std::this_thread::sleep_until(
        start_ + std::chrono::duration_cast<Clock::duration>(interval_ * k + shift_));
  }
  /// Moves every later slot back by `ms`, the time of work outside the
  /// run (a set-up probe), so that it does not eat the run's slots.
  void Shift(double ms) { shift_ += std::chrono::duration<double, std::milli>(ms); }

 private:
  std::chrono::duration<double> interval_;
  std::chrono::duration<double> shift_{0};
  Clock::time_point start_;
};

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Scratch directory for generated inputs and durable state.
  std::string work_dir;
};

class Report {
 public:
  void Sample(const std::string& name, double value) {
    samples_[name].push_back(value);
  }
  void Count(const std::string& name, double value) { counts_[name] = value; }
  void Add(const std::string& name, double value) { counts_[name] += value; }
  /// A raw JSON object (the observatory's MetricsJson()).
  void Snapshot(const std::string& name, std::string json) {
    snapshots_[name] = std::move(json);
  }
  /// Records a failed correctness check; the run reports correct=false.
  void Fail(const std::string& what);
  bool ok() const { return errors_.empty(); }

  uint64_t attempted = 0;
  uint64_t failed = 0;

  std::string ToJson(const Options& options) const;

 private:
  std::map<std::string, std::vector<double>> samples_;
  std::map<std::string, double> counts_;
  std::map<std::string, std::string> snapshots_;
  std::vector<std::string> errors_;
};

/// Peak resident set size of this process (VmHWM), in MiB.
double PeakRssMb();

/// Milliseconds of every span named `name` in `root` (depth first).
void CollectSpans(const obs::SpanNode& root, const std::string& name,
                  std::vector<double>* out);
/// Sum of the milliseconds of every span named `name`.
double SpanMillis(const obs::SpanNode& root, const std::string& name);

/// Rebuilds a span tree from a PROFILE result table (span, depth,
/// millis, detail), so wire PROFILE answers read like in-process trees.
/// Detail "k=v" pairs become span attributes.
obs::SpanNode SpanTreeFromProfile(const storage::Table& profile);

/// Removes a directory tree, ignoring errors.
void RemoveTree(const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_RUNNER_REPORT_H_
