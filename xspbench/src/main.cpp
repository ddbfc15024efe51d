// xspbench — the repository benchmark driver.
//
//   xspbench --workload zoo_leveled|fleet_steady|fleet_burst --seed N
//            --seconds S --trace 0|1 [--out-dir DIR] [--reference FILE]
//            [--inject digest|withhold] [--write-reference]
//
// Prints every figure as "name value unit" lines, then, as the last line,
// one JSON object: {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end ones (measured untraced); with
// --trace 1 they are the per-layer ones from a traced pass. Exit status is
// 0 only when every output check passed; failed checks are named on
// stderr. See README.md for the workloads and metrics.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "common.hpp"

namespace {

using xspbench::Metric;

struct Spec {
  const char* name;
  const char* unit;
};

/// Reported by every workload with --trace 0.
const std::vector<Spec> kEndToEnd = {
    {"setup_s", "s"},          {"ops_per_s", "1/s"},       {"latency_ms_p50", "ms"},
    {"latency_ms_tail", "ms"}, {"cpu_ns_per_span", "ns"}, {"peak_rss_mb", "MB"},
};

/// Reported by every workload with --trace 1; a layer a workload does not
/// exercise reads 0.
const std::vector<Spec> kPerLayer = {
    {"models.build_ms", "ms"},
    {"profile.session_m_ms", "ms"},
    {"profile.session_ml_ms", "ms"},
    {"profile.session_mlg_ms", "ms"},
    {"profile.session_mlgm_ms", "ms"},
    {"profile.merge_ms", "ms"},
    {"analysis.analyses_ms", "ms"},
    {"trace.export_ms", "ms"},
    {"trace.export_bytes_per_span", "B"},
    {"trace.spans_per_profile", "count"},
    {"trace.dropped_annotations", "count"},
    {"common.strtab_strings", "count"},
    {"common.strtab_bytes", "B"},
    {"remote_sink.publish_ns", "ns"},
    {"remote_sink.outbox_spans_max", "count"},
    {"remote_sink.sent", "count"},
    {"remote_sink.dropped", "count"},
    {"remote_sink.shed", "count"},
    {"remote_sink.reconnects", "count"},
    {"net.collector.bytes_per_span", "B"},
    {"net.collector.frames_per_kspan", "count"},
    {"net.collector.busy_ratio", "ratio"},
    {"net.collector.ingest_lag_spans", "count"},
    {"trace.server_lag_spans", "count"},
    {"trace.subscriber_us_per_batch", "us"},
    {"trace.drain_batch_spans", "count"},
    {"trace.stranded_spans", "count"},
    {"process.sys_cpu_share", "ratio"},
    {"generator.late_ms_max", "ms"},
    {"stage.L0_ns_per_span", "ns"},
    {"stage.L1_ns_per_span", "ns"},
    {"stage.L2_ns_per_span", "ns"},
    {"stage.L3_ns_per_span", "ns"},
    {"stage.L4_ns_per_span", "ns"},
    {"stage.L1_minus_L0_ns", "ns"},
    {"stage.L2_minus_L1_ns", "ns"},
    {"stage.L3_minus_L2_ns", "ns"},
    {"stage.L4_minus_L3_ns", "ns"},
    {"stage.sum_vs_cpu_ns_per_span", "ratio"},
    {"selftime.bench_share", "ratio"},
    {"selftime.models_share", "ratio"},
    {"selftime.profile_share", "ratio"},
    {"selftime.analysis_share", "ratio"},
    {"selftime.trace_share", "ratio"},
    {"selftime.remote_sink_share", "ratio"},
    {"overhead.ops_per_s", "1/s"},
    {"overhead.latency_ms_p50", "ms"},
    {"overhead.latency_ms_tail", "ms"},
    {"overhead.cpu_ns_per_span", "ns"},
};

int usage() {
  std::fprintf(stderr,
               "usage: xspbench --workload zoo_leveled|fleet_steady|fleet_burst --seed N "
               "--seconds S --trace 0|1\n"
               "                [--out-dir DIR] [--reference FILE] [--inject digest|withhold]\n"
               "                [--write-reference]\n");
  return 2;
}

bool parse_args(int argc, char** argv, xspbench::Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--write-reference") {
      args.write_reference = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    try {
      if (a == "--workload") {
        args.workload = v;
      } else if (a == "--seed") {
        args.seed = std::stoull(v);
      } else if (a == "--seconds") {
        args.seconds = std::stoi(v);
      } else if (a == "--trace") {
        args.trace = std::stoi(v) != 0;
      } else if (a == "--out-dir") {
        args.out_dir = v;
      } else if (a == "--reference") {
        args.reference = v;
      } else if (a == "--inject") {
        args.inject = v;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  const bool known = args.workload == "zoo_leveled" || args.workload == "fleet_steady" ||
                     args.workload == "fleet_burst";
  const bool inject_ok =
      args.inject.empty() || args.inject == "digest" || args.inject == "withhold";
  return known && inject_ok && args.seconds > 0;
}

/// Order the report's metrics by the spec; missing per-layer figures read
/// 0 (layer not exercised), unknown or non-finite ones fail the run.
std::vector<Metric> conform(const std::vector<Spec>& spec, bool zero_fill,
                            xspbench::Report& report) {
  std::vector<Metric> out;
  std::set<std::string> known;
  for (const Spec& s : spec) {
    known.insert(s.name);
    const Metric* m = nullptr;
    for (const Metric& r : report.metrics) {
      if (r.name == s.name) m = &r;
    }
    if (m == nullptr) {
      report.check(zero_fill, std::string("metric_present:") + s.name);
      out.push_back({s.name, 0, s.unit});
      continue;
    }
    report.check(m->unit == s.unit, std::string("metric_unit:") + s.name);
    report.check(std::isfinite(m->value), std::string("metric_finite:") + s.name);
    out.push_back({s.name, std::isfinite(m->value) ? m->value : 0, s.unit});
  }
  for (const Metric& r : report.metrics) {
    report.check(known.count(r.name) != 0, "metric_known:" + r.name);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  xspbench::Args args;
  if (!parse_args(argc, argv, args)) return usage();
  std::filesystem::create_directories(args.out_dir);

  xspbench::Report report;
  try {
    if (args.workload == "zoo_leveled") {
      xspbench::run_zoo(args, report);
    } else {
      xspbench::run_fleet(args, report);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "xspbench: %s failed: %s\n", args.workload.c_str(), e.what());
    return 1;
  }
  if (args.write_reference) {
    std::printf("wrote %s\n", args.reference.c_str());
    return report.correct ? 0 : 1;
  }

  const std::vector<Metric> metrics =
      args.trace ? conform(kPerLayer, true, report) : conform(kEndToEnd, false, report);

  std::printf("workload %s seed %llu seconds %d trace %d\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds, args.trace ? 1 : 0);
  for (const Metric& m : report.notes) {
    std::printf("  %-34s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const Metric& m : metrics) {
    std::printf("  %-34s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const std::string& c : report.failed_checks) {
    std::fprintf(stderr, "xspbench: check failed: %s\n", c.c_str());
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              report.correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return report.correct ? 0 : 1;
}
