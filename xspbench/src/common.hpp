// Shared plumbing for the xspbench workloads: command-line arguments, the
// result report, clocks (wall, process CPU, thread CPU), peak RSS,
// percentiles, and an order-independent span checksum.
#pragma once

#include <pthread.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "xsp/trace/span.hpp"

namespace xspbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  /// Directory for run artifacts (recorded traced-run spans, scratch files,
  /// the collector's socket). Relative to the working directory.
  std::string out_dir = ".bench_build/out";
  /// Reference digests for zoo_leveled (one line per model x batch).
  std::string reference = "xspbench/reference/zoo_digests.tsv";
  /// Fault injection for the benchmark's own test: "digest" flips one
  /// byte of one reference digest, "withhold" keeps one generated span
  /// from being published while still counting it as handed over.
  std::string inject;
  /// zoo_leveled only: write the reference digests instead of checking.
  bool write_reference = false;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one run reports: the contract's result line plus the checks that
/// failed (named on stderr) and extra human-readable figures.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;  ///< the machine-read metrics of this mode
  std::vector<Metric> notes;    ///< printed for humans only
  std::vector<std::string> failed_checks;

  void check(bool ok, const std::string& name) {
    if (!ok) {
      correct = false;
      failed_checks.push_back(name);
    }
  }
  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void note(std::string name, double value, std::string unit) {
    notes.push_back({std::move(name), value, std::move(unit)});
  }
};

// --- clocks ------------------------------------------------------------------

std::int64_t now_ns();

struct CpuTimes {
  std::int64_t user_ns = 0;
  std::int64_t sys_ns = 0;
  [[nodiscard]] std::int64_t total() const { return user_ns + sys_ns; }
  CpuTimes operator-(const CpuTimes& o) const { return {user_ns - o.user_ns, sys_ns - o.sys_ns}; }
};

/// getrusage(RUSAGE_SELF): user + sys of every thread, live or exited.
CpuTimes process_cpu();
/// CPU time of the calling thread.
std::int64_t thread_cpu_ns();
/// CPU time of another live thread of this process.
std::int64_t thread_cpu_ns(pthread_t thread);
/// Peak resident set of the process so far (ru_maxrss), in MB.
double peak_rss_mb();

void sleep_until_ns(std::int64_t deadline_ns);

// --- statistics --------------------------------------------------------------

/// Nearest-rank percentile (q in [0, 1]) of an unsorted sample: the
/// smallest value with at least q of the sample at or below it.
template <typename T>
double percentile(std::vector<T> values, double q) {
  if (values.empty()) return 0;
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(values.size())));
  rank = std::clamp<std::size_t>(rank, 1, values.size());
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   values.end());
  return static_cast<double>(values[rank - 1]);
}
inline double median(std::vector<double> values) { return percentile(std::move(values), 0.5); }

// --- span content checksum ---------------------------------------------------

std::uint64_t mix64(std::uint64_t x);

/// Content hash of a span's replayed fields — name, tracer, level, kind,
/// tags, metrics, inline tags, begin/end — independent of span, parent and
/// correlation ids (the collector re-maps those). Interned strings hash by
/// their bytes, so the hash survives the collector's re-interning; the
/// per-id string hash is cached. Single-threaded per instance.
class SpanHasher {
 public:
  std::uint64_t operator()(const xsp::trace::Span& span);

 private:
  std::uint64_t str_hash(xsp::common::StrId id);
  std::vector<std::uint64_t> cache_;  ///< indexed by raw StrId; 0 = unset
};

/// FNV-1a over bytes.
std::uint64_t fnv1a(const void* data, std::size_t n, std::uint64_t h = 1469598103934665603ull);

/// Deterministic shuffle (Fisher-Yates over splitmix64), identical on every
/// standard library.
template <typename T>
void seeded_shuffle(std::vector<T>& v, std::uint64_t seed) {
  std::uint64_t state = seed;
  for (std::size_t i = v.size(); i > 1; --i) {
    state += 0x9E3779B97F4A7C15ull;
    const std::size_t j = static_cast<std::size_t>(mix64(state) % i);
    std::swap(v[i - 1], v[j]);
  }
}

/// Seconds each timed pass runs: a traced run measures an untraced and a
/// traced pass, half the run each.
inline int pass_seconds(const Args& args) {
  return args.trace ? std::max(1, args.seconds / 2) : args.seconds;
}

/// Number of set-up repetitions per run; setup_s is their median.
inline constexpr int kSetupReps = 9;

int run_zoo(const Args& args, Report& report);
int run_fleet(const Args& args, Report& report);

}  // namespace xspbench
