#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <stdexcept>

namespace perfbench {

Args parseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      throw std::invalid_argument("missing value for " + flag);
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        throw std::invalid_argument("--trace takes 0 or 1");
      }
      args.trace = value == "1";
    } else if (flag == "--trace-dir") {
      args.traceDir = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (args.workload.empty()) {
    throw std::invalid_argument("--workload is required");
  }
  if (!(args.seconds > 0.0)) {
    throw std::invalid_argument("--seconds must be positive");
  }
  return args;
}

double median(std::vector<double> sample) {
  if (sample.empty()) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  std::sort(sample.begin(), sample.end());
  const std::size_t mid = sample.size() / 2;
  return sample.size() % 2 == 1 ? sample[mid] : 0.5 * (sample[mid - 1] + sample[mid]);
}

double percentile(std::vector<double> sample, double p) {
  if (sample.empty()) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  std::sort(sample.begin(), sample.end());
  const auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(sample.size())));
  return sample[std::clamp<std::size_t>(rank, 1, sample.size()) - 1];
}

double peakRssMb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0; // Linux reports KiB
}

void Report::metric(const std::string& name, double value, const std::string& unit,
                    std::size_t samples) {
  metrics_.push_back({name, value, unit, samples});
}

void Report::check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    if (failures_.size() < 20) {
      failures_.push_back(what);
    }
  }
}

namespace {

std::string number(double value) {
  if (!std::isfinite(value)) {
    value = std::numeric_limits<double>::max(); // only reachable in a failed run
  }
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

} // namespace

void Report::print(std::ostream& os, const std::string& workload, bool trace) const {
  os << "== perfbench " << workload << (trace ? " (traced)" : "") << " ==\n";
  for (const std::string& line : notes_) {
    os << "   " << line << "\n";
  }
  for (const Metric& m : metrics_) {
    char line[160];
    std::snprintf(line, sizeof line, "%-26s %16.6g %-6s (n=%zu)", m.name.c_str(), m.value,
                  m.unit.c_str(), m.samples);
    os << line << "\n";
  }
  for (const std::string& failure : failures_) {
    os << "FAILED: " << failure << "\n";
  }
  os << "checked operations: " << attempted_ << " attempted, " << failed_ << " failed\n";
  os << "{\"correct\": " << (failed_ == 0 ? "true" : "false") << ", \"attempted\": " << attempted_
     << ", \"failed\": " << failed_ << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    os << (i == 0 ? "" : ", ") << "\"" << metrics_[i].name << "\": {\"value\": "
       << number(metrics_[i].value) << ", \"unit\": \"" << metrics_[i].unit << "\"}";
  }
  os << "}}" << std::endl;
}

SpanLog::SpanLog(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

double SpanLog::micros(Clock::time_point t) const {
  return std::chrono::duration<double, std::micro>(t - origin_).count();
}

int SpanLog::begin(const char* name, const char* layer) {
  if (!enabled_) {
    return -1;
  }
  const double start = micros(Clock::now());
  const std::lock_guard lock(mutex_);
  const int parent = open_.empty() ? -1 : open_.back();
  spans_.push_back({name, layer, start, start, parent, {}});
  open_.push_back(static_cast<int>(spans_.size() - 1));
  return open_.back();
}

void SpanLog::end(int index) {
  if (index < 0) {
    return;
  }
  const double stop = micros(Clock::now());
  const std::lock_guard lock(mutex_);
  spans_[static_cast<std::size_t>(index)].endUs = stop;
  if (!open_.empty() && open_.back() == index) {
    open_.pop_back();
  }
}

void SpanLog::add(const char* name, const char* layer, Clock::time_point start,
                  Clock::time_point end, std::string requestId) {
  if (!enabled_) {
    return;
  }
  const std::lock_guard lock(mutex_);
  const int parent = open_.empty() ? -1 : open_.back();
  spans_.push_back({name, layer, micros(start), micros(end), parent, std::move(requestId)});
}

std::vector<double> SpanLog::durations(const std::string& name) const {
  const std::lock_guard lock(mutex_);
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (name == span.name) {
      out.push_back((span.endUs - span.startUs) * 1e-6);
    }
  }
  return out;
}

void SpanLog::writeChromeTrace(const std::string& path) const {
  const std::lock_guard lock(mutex_);
  std::filesystem::create_directories(std::filesystem::path(path).parent_path());
  std::ofstream os(path);
  os << "{\"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    char times[96];
    std::snprintf(times, sizeof times, "\"ts\": %.3f, \"dur\": %.3f", span.startUs,
                  span.endUs - span.startUs);
    // Serve requests overlap in time, so they go on their own lane (tid 2)
    // with their request id; everything else nests on lane 1.
    const bool request = !span.requestId.empty();
    os << (i == 0 ? "" : ",\n") << "{\"name\": \"" << span.name << "\", \"cat\": \""
       << span.layer << "\", \"ph\": \"X\", " << times << ", \"pid\": 1, \"tid\": "
       << (request ? 2 : 1) << ", \"args\": {\"span\": " << i << ", \"parent\": " << span.parent;
    if (request) {
      os << ", \"request\": \"" << span.requestId << "\"";
    }
    os << "}}";
  }
  os << "\n]}\n";
}

namespace {

double rate(std::uint64_t hits, std::uint64_t total) {
  return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
}

} // namespace

void reportCoreLayer(Report& report, const qadd::obs::PackageStats& stats) {
  report.metric("core.vunique_hit_rate", stats.vUnique.hitRate(), "ratio", 1);
  report.metric("core.vunique_collisions", static_cast<double>(stats.vUnique.collisions.value()),
                "count", 1);
  report.metric("core.munique_hit_rate", stats.mUnique.hitRate(), "ratio", 1);
  report.metric("core.mv_hit_rate", stats.mv.hitRate(), "ratio", 1);
  report.metric("core.mm_hit_rate", stats.mm.hitRate(), "ratio", 1);
  report.metric("core.add_hit_rate",
                rate(stats.vAdd.hits.value() + stats.mAdd.hits.value(),
                     stats.vAdd.lookups() + stats.mAdd.lookups()),
                "ratio", 1);
  std::uint64_t evictions = 0;
  for (const auto& [name, cache] : stats.caches()) {
    evictions += cache->evictions.value();
  }
  report.metric("core.cache_evictions", static_cast<double>(evictions), "count", 1);
  report.metric("core.node_allocs", static_cast<double>(stats.nodeAllocations.value()), "count",
                1);
  report.metric("core.node_reuses", static_cast<double>(stats.nodeReuses.value()), "count", 1);
  report.metric("core.arena_mb", static_cast<double>(stats.arenaBytes) / (1024.0 * 1024.0), "MB",
                1);
  report.metric("core.gc_runs", static_cast<double>(stats.gc.runs.value()), "count", 1);
  report.metric("core.gc_swept", static_cast<double>(stats.gc.nodesSwept.value()), "count", 1);
  report.metric("core.gc_s", stats.gc.seconds, "s", 1);
}

void reportNumericLayer(Report& report, const qadd::obs::PackageStats& stats) {
  report.metric("num.weights", static_cast<double>(stats.weights.entries), "count", 1);
  report.metric("num.near_miss", static_cast<double>(stats.weights.nearMissUnifications), "count",
                1);
  // bucketOccupancy[k] = buckets holding k entries (last bin clamps).
  std::size_t bucketMax = 0;
  for (std::size_t k = 0; k < stats.weights.bucketOccupancy.size(); ++k) {
    if (stats.weights.bucketOccupancy[k] != 0) {
      bucketMax = k;
    }
  }
  report.metric("num.bucket_max", static_cast<double>(bucketMax), "count", 1);
  report.metric("num.op_cache_hit_rate", stats.weights.opCache.hitRate(), "ratio", 1);
}

} // namespace perfbench
