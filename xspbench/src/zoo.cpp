// zoo_leveled: the paper's automated leveled analysis over the model zoo,
// driven the way `xsp_cli profile --analyses all --export-chrome` drives it.
//
// Closed loop, one thread. Each operation is one profile of one
// (model, batch) pair on Tesla_V100: ModelInfo::build, LeveledRunner::run
// with GPU metrics (M, M/L, M/L/G and the metrics run, merged), the
// analyses A2-A15, and to_chrome_trace of the richest run (the metrics
// run, the timeline the CLI re-profiles for its export). A pass is the 55
// TensorFlow models x batch {1, 8, 32} in a seeded order; whole passes
// repeat until the run's seconds are used.
//
// Every profile's digest (model latency, layer/kernel counts, A10 rows,
// A15 aggregate) must equal the stored reference: simulated time is
// deterministic, so a changed digest is a changed result.
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "common.hpp"
#include "recorder.hpp"
#include "xsp/analysis/analyses.hpp"
#include "xsp/common/string_table.hpp"
#include "xsp/models/registry.hpp"
#include "xsp/profile/leveled.hpp"
#include "xsp/profile/model_profile.hpp"
#include "xsp/profile/session.hpp"
#include "xsp/sim/gpu_spec.hpp"
#include "xsp/trace/export.hpp"

namespace xspbench {

namespace {

using namespace xsp;

constexpr std::int64_t kBatches[] = {1, 8, 32};
constexpr const char* kSystem = "Tesla_V100";

struct Entry {
  const models::ModelInfo* model = nullptr;
  std::int64_t batch = 1;
  [[nodiscard]] std::string key() const { return model->name + "\t" + std::to_string(batch); }
};

/// What one profile produced, for the checks and the per-layer figures.
struct ProfileOut {
  profile::ModelProfile profile;
  std::vector<analysis::KernelAggRow> a10;
  analysis::ModelAggRow a15;
  std::uint64_t spans = 0;  ///< sum of the four timeline sizes
  std::uint64_t richest_spans = 0;
  std::uint64_t export_bytes = 0;
  std::uint64_t dropped_annotations = 0;
};

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

/// Digest of the analysis-facing results. Floating-point figures enter at
/// 9 significant digits so that a harmless change of summation order does
/// not count as a different result.
std::string digest(const ProfileOut& out) {
  const profile::ModelProfile& p = out.profile;
  const auto& a10 = out.a10;
  const auto& a15 = out.a15;
  std::string text;
  char buf[256];
  std::snprintf(buf, sizeof buf, "lat=%lld pipe=%lld layers=%zu kernels=%zu\n",
                static_cast<long long>(p.model_latency), static_cast<long long>(p.pipeline_latency),
                p.layers.size(), p.kernels.size());
  text += buf;
  for (const auto& r : a10) {
    std::snprintf(buf, sizeof buf, "a10 %s n=%d %.9g %.9g %.9g %.9g %d\n", r.name.c_str(), r.count,
                  r.latency_ms, r.gflops, r.occupancy_pct, r.arithmetic_intensity,
                  r.memory_bound ? 1 : 0);
    text += buf;
  }
  std::snprintf(buf, sizeof buf, "a15 %.9g %.9g %.9g %.9g %.9g %.9g %.9g %d\n",
                a15.model_latency_ms, a15.kernel_latency_ms, a15.gflops, a15.dram_reads_mb,
                a15.dram_writes_mb, a15.occupancy_pct, a15.arithmetic_intensity,
                a15.memory_bound ? 1 : 0);
  text += buf;
  return hex64(fnv1a(text.data(), text.size()));
}

struct Names {
  Recorder::NameId profile, build, session_m, session_ml, session_mlg, session_mlgm, merge,
      analyses, exporter;
  explicit Names(Recorder& r)
      : profile(r.name("bench.profile")),
        build(r.name("models.build")),
        session_m(r.name("profile.session_m")),
        session_ml(r.name("profile.session_ml")),
        session_mlg(r.name("profile.session_mlg")),
        session_mlgm(r.name("profile.session_mlgm")),
        merge(r.name("profile.merge")),
        analyses(r.name("analysis.analyses")),
        exporter(r.name("trace.export")) {}
};

/// One leveled profile. Untraced (rec == nullptr) it calls
/// LeveledRunner::run itself, so changes inside the ladder are measured;
/// traced, it makes the same calls one level at a time so each level's
/// host time is its own span.
ProfileOut profile_once(const Entry& e, const profile::LeveledRunner& runner,
                        const sim::GpuSpec& system, Recorder* rec, const Names* names,
                        std::uint64_t op) {
  using Scope = Recorder::Scope;
  Scope whole(rec, rec ? names->profile : 0, op);
  framework::Graph graph;
  profile::LeveledResult result;
  if (rec == nullptr) {
    graph = e.model->build(e.batch, runner.decompose_batchnorm());
    result = runner.run(graph, /*gpu_metrics=*/true);
  } else {
    {
      Scope s(rec, names->build, op);
      graph = e.model->build(e.batch, runner.decompose_batchnorm());
    }
    const auto level = [&](Recorder::NameId name, const profile::ProfileOptions& opts) {
      Scope s(rec, name, op);
      profile::Session session(runner.system(), runner.framework());
      return session.profile(graph, opts);
    };
    result.m = level(names->session_m, profile::ProfileOptions::model_only());
    result.ml = level(names->session_ml, profile::ProfileOptions::model_layer());
    result.mlg = level(names->session_mlg, profile::ProfileOptions::full(false));
    result.mlgm = level(names->session_mlgm, profile::ProfileOptions::full(true));
    Scope s(rec, names->merge, op);
    result.profile = profile::merge_runs(result.m, result.ml, result.mlgm, graph.model_name,
                                         runner.system().name,
                                         framework::framework_name(runner.framework()),
                                         graph.batch());
    result.profile.gpu_profiling_overhead = result.mlg.model_latency - result.ml.model_latency;
  }

  ProfileOut out;
  const profile::ModelProfile& p = result.profile;
  {
    Scope s(rec, rec ? names->analyses : 0, op);
    const auto a2 = analysis::a2_layer_info(p);
    const auto a3 = analysis::a3_layer_latency_us(p);
    const auto a4 = analysis::a4_layer_alloc_mb(p);
    const auto a5_7 = analysis::layer_type_aggregation(p);
    const auto a8 = analysis::a8_kernel_info(p, system);
    const auto a9 = analysis::a9_kernel_roofline(p, system);
    out.a10 = analysis::a10_kernel_by_name(p, system);
    const auto a11 = analysis::a11_kernel_by_layer(p, system);
    const auto a12 = analysis::a12_layer_gpu_metrics(p);
    const auto a13 = analysis::a13_gpu_vs_nongpu(p);
    const auto a14 = analysis::a14_layer_roofline(p, system);
    out.a15 = analysis::a15_model_aggregate(p, system);
    const double gpu_pct = analysis::gpu_latency_percentage(p);
    const double conv_pct = analysis::conv_latency_percentage(p);
    // Keep the results observable so none of the calls is elided.
    volatile std::size_t sink = a2.size() + a3.size() + a4.size() + a5_7.size() + a8.size() +
                                a9.size() + a11.size() + a12.gflops.size() + a13.size() +
                                a14.size() + static_cast<std::size_t>(gpu_pct + conv_pct);
    (void)sink;
  }
  std::string chrome;
  {
    Scope s(rec, rec ? names->exporter : 0, op);
    chrome = trace::to_chrome_trace(result.mlgm.timeline);
  }

  out.profile = std::move(result.profile);
  out.spans = result.m.timeline.size() + result.ml.timeline.size() + result.mlg.timeline.size() +
              result.mlgm.timeline.size();
  out.richest_spans = result.mlgm.timeline.size();
  out.export_bytes = chrome.size();
  out.dropped_annotations = result.m.dropped_annotations + result.ml.dropped_annotations +
                            result.mlg.dropped_annotations + result.mlgm.dropped_annotations;
  return out;
}

std::map<std::string, std::string> load_reference(const std::string& path) {
  std::map<std::string, std::string> ref;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const auto tab = line.rfind('\t');
    if (tab == std::string::npos) continue;
    ref[line.substr(0, tab)] = line.substr(tab + 1);
  }
  return ref;
}

std::vector<Entry> all_entries() {
  std::vector<Entry> entries;
  for (const auto& m : models::tensorflow_models()) {
    for (const std::int64_t b : kBatches) entries.push_back({&m, b});
  }
  return entries;
}

/// Figures of one timed loop (untraced or traced).
struct LoopStats {
  std::vector<double> profile_ms;
  std::int64_t wall_ns = 0;  ///< sum of per-profile wall times
  std::int64_t cpu_ns = 0;
  std::int64_t sys_ns = 0;
  std::uint64_t spans = 0;
  std::uint64_t richest_spans = 0;
  std::uint64_t export_bytes = 0;
  std::uint64_t dropped_annotations = 0;
  std::uint64_t profiles = 0;
  std::uint64_t failed = 0;
  int passes = 0;
  /// Per-pass figures; the reported ones are their medians, so one pass
  /// disturbed by the machine does not move the result.
  std::vector<double> pass_ops_per_s, pass_p50, pass_p90, pass_cpu_ns_per_span;
};

}  // namespace

int run_zoo(const Args& args, Report& report) {
  const std::int64_t t_start = now_ns();
  const auto& table = common::StringTable::global();
  const std::size_t strtab_strings0 = table.size();
  const std::size_t strtab_bytes0 = table.approx_bytes();
  const sim::GpuSpec& system = sim::system_by_name(kSystem);
  const profile::LeveledRunner runner(system, framework::FrameworkKind::kTFlow);

  if (args.write_reference) {
    std::ofstream out(args.reference, std::ios::trunc);
    out << "# zoo_leveled reference digests: model\tbatch\tdigest (" << kSystem
        << ", TensorFlow lowering)\n";
    for (const Entry& e : all_entries()) {
      out << e.key() << '\t' << digest(profile_once(e, runner, system, nullptr, nullptr, 0))
          << '\n';
    }
    report.check(static_cast<bool>(out), "write_reference");
    report.attempted = 1;
    return 0;
  }

  // Set-up, repeated kSetupReps times (setup_s is the median): load the
  // reference, build the seeded order, and warm up on a fixed profile that
  // does not depend on the seed.
  std::vector<double> setup_s;
  std::map<std::string, std::string> reference;
  std::vector<Entry> order;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const std::int64_t t0 = rep == 0 ? t_start : now_ns();
    reference = load_reference(args.reference);
    order = all_entries();
    seeded_shuffle(order, args.seed);
    const Entry warm{&models::tensorflow_models().front(), 1};
    const ProfileOut w = profile_once(warm, runner, system, nullptr, nullptr, 0);
    report.check(digest(w) == reference[warm.key()], "zoo.warmup_digest");
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  report.check(reference.size() == order.size(), "zoo.reference_complete");
  if (args.inject == "digest" && !order.empty()) {
    // The benchmark's own test: one flipped byte in one reference digest
    // must surface as a failed profile.
    std::string& d = reference[order.front().key()];
    if (!d.empty()) d[0] = d[0] == '0' ? '1' : '0';
  }

  const auto run_loop = [&](Recorder* rec, const Names* names, LoopStats& st) {
    const std::int64_t deadline =
        now_ns() + static_cast<std::int64_t>(pass_seconds(args)) * 1'000'000'000;
    do {
      const std::size_t first = st.profile_ms.size();
      const std::int64_t wall0 = st.wall_ns, cpu0 = st.cpu_ns;
      const std::uint64_t spans0 = st.spans;
      for (const Entry& e : order) {
        const std::int64_t t0 = now_ns();
        const CpuTimes c0 = process_cpu();
        ProfileOut out;
        bool ok = true;
        try {
          out = profile_once(e, runner, system, rec, names, st.profiles);
        } catch (const std::exception& ex) {
          std::fprintf(stderr, "zoo_leveled: %s batch %lld threw: %s\n", e.model->name.c_str(),
                       static_cast<long long>(e.batch), ex.what());
          ok = false;
        }
        const CpuTimes c1 = process_cpu();
        const std::int64_t t1 = now_ns();
        ++st.profiles;
        st.wall_ns += t1 - t0;
        st.cpu_ns += (c1 - c0).total();
        st.sys_ns += (c1 - c0).sys_ns;
        st.profile_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
        st.spans += out.spans;
        st.richest_spans += out.richest_spans;
        st.export_bytes += out.export_bytes;
        st.dropped_annotations += out.dropped_annotations;
        const std::string got = ok ? digest(out) : std::string();
        if (ok && got != reference[e.key()]) {
          if (st.failed == 0) {
            std::fprintf(stderr, "zoo_leveled: digest mismatch for %s batch %lld: %s != %s\n",
                         e.model->name.c_str(), static_cast<long long>(e.batch),
                         got.c_str(), reference[e.key()].c_str());
          }
          ok = false;
        }
        if (!ok) ++st.failed;
      }
      const std::vector<double> pass(st.profile_ms.begin() + static_cast<std::ptrdiff_t>(first),
                                     st.profile_ms.end());
      st.pass_ops_per_s.push_back(static_cast<double>(pass.size()) /
                                  (static_cast<double>(st.wall_ns - wall0) / 1e9));
      st.pass_p50.push_back(percentile(pass, 0.5));
      st.pass_p90.push_back(percentile(pass, 0.9));
      st.pass_cpu_ns_per_span.push_back(static_cast<double>(st.cpu_ns - cpu0) /
                                        static_cast<double>(st.spans - spans0));
      ++st.passes;
    } while (now_ns() < deadline);
  };

  LoopStats plain;
  run_loop(nullptr, nullptr, plain);
  const auto e2e = [](const LoopStats& st) {
    struct {
      double ops_per_s, p50, p90, cpu_ns_per_span;
    } r{};
    r.ops_per_s = median(st.pass_ops_per_s);
    r.p50 = median(st.pass_p50);
    r.p90 = median(st.pass_p90);
    r.cpu_ns_per_span = median(st.pass_cpu_ns_per_span);
    return r;
  };
  const auto u = e2e(plain);

  report.attempted = plain.profiles;
  report.failed = plain.failed;
  report.check(plain.failed == 0, "zoo.profile_digests");
  report.check(plain.dropped_annotations == 0, "zoo.dropped_annotations");

  // Each pass holds 165 profiles, so every per-pass p90 has 16 beyond it.
  const auto n = static_cast<double>(plain.profiles);
  report.note("profiles_per_s", u.ops_per_s, "1/s");
  report.note("profile_ms_p50", u.p50, "ms");
  report.note("profile_ms_p90", u.p90, "ms");
  report.note("profile_samples", n, "count");
  report.note("profile_samples_per_pass", static_cast<double>(order.size()), "count");
  report.note("passes", plain.passes, "count");
  report.note("profile_ms_p90_all_passes", percentile(plain.profile_ms, 0.9), "ms");

  report.note("cpu_ms_per_profile", static_cast<double>(plain.cpu_ns) / 1e6 / n, "ms");
  report.note("span_loss_ratio", static_cast<double>(plain.failed) / n, "ratio");

  if (!args.trace) {
    report.add("setup_s", median(setup_s), "s");
    report.add("ops_per_s", u.ops_per_s, "1/s");
    report.add("latency_ms_p50", u.p50, "ms");
    report.add("latency_ms_tail", u.p90, "ms");
    report.add("cpu_ns_per_span", u.cpu_ns_per_span, "ns");
    report.add("peak_rss_mb", peak_rss_mb(), "MB");
    return 0;
  }

  // Traced pass: the same loop, one span per call into each layer.
  Recorder rec;
  const Names names(rec);
  LoopStats traced;
  const std::int64_t traced_t0 = now_ns();
  run_loop(&rec, &names, traced);
  const auto traced_wall = static_cast<double>(now_ns() - traced_t0);
  report.check(traced.failed == 0, "zoo.traced_profile_digests");
  report.check(traced.dropped_annotations == 0, "zoo.traced_dropped_annotations");
  const auto t = e2e(traced);

  const auto totals = rec.totals();
  const auto per_profile_ms = [&](Recorder::NameId id) {
    const auto& tot = totals[id];
    return tot.count == 0
               ? 0.0
               : static_cast<double>(tot.total_ns) / 1e6 / static_cast<double>(tot.count);
  };
  const auto tn = static_cast<double>(traced.profiles);
  report.add("models.build_ms", per_profile_ms(names.build), "ms");
  report.add("profile.session_m_ms", per_profile_ms(names.session_m), "ms");
  report.add("profile.session_ml_ms", per_profile_ms(names.session_ml), "ms");
  report.add("profile.session_mlg_ms", per_profile_ms(names.session_mlg), "ms");
  report.add("profile.session_mlgm_ms", per_profile_ms(names.session_mlgm), "ms");
  report.add("profile.merge_ms", per_profile_ms(names.merge), "ms");
  report.add("analysis.analyses_ms", per_profile_ms(names.analyses), "ms");
  report.add("trace.export_ms", per_profile_ms(names.exporter), "ms");
  report.add("trace.export_bytes_per_span",
             static_cast<double>(traced.export_bytes) / static_cast<double>(traced.richest_spans),
             "B");
  report.add("trace.spans_per_profile", static_cast<double>(traced.spans) / tn, "count");
  report.add("trace.dropped_annotations", static_cast<double>(traced.dropped_annotations),
             "count");
  report.add("common.strtab_strings", static_cast<double>(table.size() - strtab_strings0),
             "count");
  report.add("common.strtab_bytes", static_cast<double>(table.approx_bytes() - strtab_bytes0),
             "B");
  report.add("process.sys_cpu_share",
             static_cast<double>(traced.sys_ns) / static_cast<double>(traced.cpu_ns), "ratio");
  for (const auto& l : rec.layer_totals()) {
    report.add("selftime." + l.name + "_share", static_cast<double>(l.self_ns) / traced_wall,
               "ratio");
  }
  report.add("overhead.ops_per_s", t.ops_per_s - u.ops_per_s, "1/s");
  report.add("overhead.latency_ms_p50", t.p50 - u.p50, "ms");
  report.add("overhead.latency_ms_tail", t.p90 - u.p90, "ms");
  report.add("overhead.cpu_ns_per_span", t.cpu_ns_per_span - u.cpu_ns_per_span, "ns");
  report.note("recorder_spans_kept", static_cast<double>(rec.records_kept()), "count");
  report.note("recorder_spans_over_cap", static_cast<double>(rec.records_over_cap()), "count");
  const std::string path = args.out_dir + "/trace-zoo_leveled.jsonl";
  report.check(rec.write_jsonl(path), "zoo.write_trace");
  return 0;
}

}  // namespace xspbench
