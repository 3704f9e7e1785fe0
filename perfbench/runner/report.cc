#include "runner/report.h"

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace perfbench {

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

void Report::Fail(const std::string& what) {
  // Keep the report bounded when one defect fails many checks.
  if (errors_.size() < 20) errors_.push_back(what);
  std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
}

std::string Report::ToJson(const Options& options) const {
  std::ostringstream os;
  os << "{\"workload\": " << JsonString(options.workload)
     << ", \"seed\": " << options.seed
     << ", \"trace\": " << (options.trace ? "true" : "false")
     << ", \"correct\": " << (ok() ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"errors\": [";
  for (size_t i = 0; i < errors_.size(); ++i) {
    os << (i ? ", " : "") << JsonString(errors_[i]);
  }
  os << "], \"samples\": {";
  bool first = true;
  for (const auto& [name, values] : samples_) {
    os << (first ? "" : ", ") << JsonString(name) << ": [";
    for (size_t i = 0; i < values.size(); ++i) {
      os << (i ? "," : "") << JsonNumber(values[i]);
    }
    os << "]";
    first = false;
  }
  os << "}, \"counts\": {";
  first = true;
  for (const auto& [name, value] : counts_) {
    os << (first ? "" : ", ") << JsonString(name) << ": " << JsonNumber(value);
    first = false;
  }
  os << "}, \"snapshots\": {";
  first = true;
  for (const auto& [name, json] : snapshots_) {
    os << (first ? "" : ", ") << JsonString(name) << ": " << json;
    first = false;
  }
  os << "}}";
  return os.str();
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0;
}

void CollectSpans(const obs::SpanNode& root, const std::string& name,
                  std::vector<double>* out) {
  if (root.name == name) out->push_back(root.millis);
  for (const obs::SpanNode& child : root.children) {
    CollectSpans(child, name, out);
  }
}

double SpanMillis(const obs::SpanNode& root, const std::string& name) {
  std::vector<double> all;
  CollectSpans(root, name, &all);
  double sum = 0;
  for (double v : all) sum += v;
  return sum;
}

obs::SpanNode SpanTreeFromProfile(const storage::Table& profile) {
  obs::SpanNode root;
  auto spans = profile.ColumnByName("span");
  auto depths = profile.ColumnByName("depth");
  auto millis = profile.ColumnByName("millis");
  auto details = profile.ColumnByName("detail");
  if (!spans.ok() || !depths.ok() || !millis.ok() || !details.ok()) {
    return root;
  }
  // Pre-order rows: a row of depth d is a child of the latest row of
  // depth d-1.
  std::vector<obs::SpanNode*> stack;
  for (size_t r = 0; r < profile.num_rows(); ++r) {
    obs::SpanNode node;
    node.name = (*spans)->GetString(r);
    node.millis = (*millis)->GetFloat64(r);
    std::istringstream detail((*details)->GetString(r));
    std::string kv;
    while (detail >> kv) {
      size_t eq = kv.find('=');
      if (eq != std::string::npos) {
        node.attrs.emplace_back(kv.substr(0, eq), kv.substr(eq + 1));
      }
    }
    size_t depth = static_cast<size_t>((*depths)->GetInt64(r));
    if (depth == 0 || stack.empty()) {
      root = std::move(node);
      stack.assign(1, &root);
      continue;
    }
    stack.resize(std::min(stack.size(), depth));
    obs::SpanNode* parent = stack.back();
    parent->children.push_back(std::move(node));
    stack.push_back(&parent->children.back());
  }
  return root;
}

void RemoveTree(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

}  // namespace perfbench
