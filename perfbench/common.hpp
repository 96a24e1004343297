/// \file common.hpp
/// Shared plumbing of the paper-workload benchmark: command line, sample
/// statistics, the result report (human table + the one-line JSON result),
/// the in-memory span log behind `--trace 1`, and per-layer readers of the
/// public dd::Package counters.
#pragma once

#include "obs/stats.hpp"

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double secondsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}
[[nodiscard]] inline double secondsSince(Clock::time_point from) {
  return secondsBetween(from, Clock::now());
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  std::string traceDir = ".bench_build/perfbench-traces";
};

/// Parse `--workload W --seed N --seconds S --trace 0|1 [--trace-dir D]`.
/// \throws std::invalid_argument on anything else.
[[nodiscard]] Args parseArgs(int argc, char** argv);

/// Median of a sample (the sample is copied and sorted).
[[nodiscard]] double median(std::vector<double> sample);
/// Nearest-rank percentile, p in (0, 1]; +inf entries sort last.
[[nodiscard]] double percentile(std::vector<double> sample, double p);
/// ru_maxrss of this process in MB.
[[nodiscard]] double peakRssMb();

/// Metrics plus attempted/failed operation counts of one workload run.
/// print() writes one human-readable line per metric (with its sample
/// count) and then the single-line JSON result as the last line of stdout.
class Report {
public:
  void metric(const std::string& name, double value, const std::string& unit,
              std::size_t samples);
  /// Count one checked operation; `ok == false` makes it a failure and
  /// records `what` for the summary.
  void check(bool ok, const std::string& what);
  void note(const std::string& line) { notes_.push_back(line); }

  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  void print(std::ostream& os, const std::string& workload, bool trace) const;

private:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
    std::size_t samples = 0;
  };
  std::vector<Metric> metrics_;
  std::vector<std::string> notes_;
  std::vector<std::string> failures_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Spans recorded in the benchmark's own code around each call into a
/// library layer (name, start, end, parent, request id), kept in memory
/// and written as Chrome-trace JSON when the run ends.  Disabled spans cost
/// one branch.
class SpanLog {
public:
  struct Span {
    const char* name = "";
    const char* layer = "";
    double startUs = 0.0;
    double endUs = 0.0;
    int parent = -1;
    std::string requestId;
  };

  explicit SpanLog(bool enabled);

  [[nodiscard]] bool enabled() const { return enabled_; }
  /// Open a span nested under the innermost open one; returns its index
  /// (-1 when disabled).
  int begin(const char* name, const char* layer);
  void end(int index);
  /// Record an already-finished span (serve requests, which overlap).
  void add(const char* name, const char* layer, Clock::time_point start, Clock::time_point end,
           std::string requestId);

  /// Durations in seconds of every span called `name`.
  [[nodiscard]] std::vector<double> durations(const std::string& name) const;
  void writeChromeTrace(const std::string& path) const;
  [[nodiscard]] std::size_t size() const { return spans_.size(); }

private:
  [[nodiscard]] double micros(Clock::time_point t) const;

  bool enabled_;
  Clock::time_point origin_;
  mutable std::mutex mutex_; ///< guards spans_ and open_
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span: `Scoped s(log, "qc::Simulator::step", "qc");`
class Scoped {
public:
  Scoped(SpanLog& log, const char* name, const char* layer)
      : log_(log), index_(log.begin(name, layer)) {}
  ~Scoped() { log_.end(index_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

private:
  SpanLog& log_;
  int index_;
};

/// The `core.*` per-layer metrics from merged package counters.
void reportCoreLayer(Report& report, const qadd::obs::PackageStats& stats);
/// The `num.*` per-layer metrics from a numeric package's counters.
void reportNumericLayer(Report& report, const qadd::obs::PackageStats& stats);

} // namespace perfbench
