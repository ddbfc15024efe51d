// fleet_steady and fleet_burst: the span collection path, driven the way
// profiled processes drive it.
//
// Both workloads run one in-process collector built like xsp_collectd's
// defaults — a 1-shard ShardedTraceServer in kAsync mode, a BinaryWriter
// kConsume subscriber writing to a counting null sink, an OnlineAnalyzer
// observer — behind a CollectorService on a Unix socket, fed by 4
// RemoteSink connections. The spans are replayed from a trace recorded at
// set-up by profiling seeded zoo models, so annotation occupancy is real;
// every replayed run gets fresh span and correlation ids, as a new
// profiled run would.
//
//   fleet_steady  open loop at one fixed total rate, spans published one
//                 by one round-robin over the connections; latency-bound.
//   fleet_burst   open loop of periodic bursts, each several recorded runs
//                 handed over at once with RemoteSink::write_batches (how
//                 Session forwards a drain); throughput-bound.
//
// The consuming subscriber is the benchmark's measuring point: it sees
// every span, checksums its content and times its delivery.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "recorder.hpp"
#include "xsp/analysis/online.hpp"
#include "xsp/common/string_table.hpp"
#include "xsp/models/registry.hpp"
#include "xsp/net/collector.hpp"
#include "xsp/net/endpoint.hpp"
#include "xsp/profile/session.hpp"
#include "xsp/sim/gpu_spec.hpp"
#include "xsp/trace/remote_sink.hpp"
#include "xsp/trace/sharded_trace_server.hpp"
#include "xsp/trace/trace_server.hpp"
#include "xsp/trace/wire.hpp"

namespace xspbench {

namespace {

using namespace xsp;
using trace::Span;
using trace::SpanBatch;
using trace::SpanBatches;

constexpr int kConnections = 4;
/// Zoo models profiled at set-up into the replay trace.
constexpr std::size_t kReplayModels = 8;
/// fleet_steady: total offered rate over all connections.
constexpr std::uint64_t kSteadyRate = 100'000;
/// fleet_steady: generator wake-up interval (spans due in between are
/// published together, each stamped with its own due time).
constexpr std::int64_t kTickNs = 200'000;
/// Traced passes sample the pipeline's queues at most this often.
constexpr std::int64_t kSampleNs = 1'000'000;
/// fleet_burst: spans per connection per burst — a quarter of the default
/// 64Ki-span outbox bound, so a burst fits without loss — and the period.
/// A burst is a multiple of the server's 256-span seal (see README.md).
constexpr std::size_t kBurstSpansPerConn = 16'384;
constexpr std::int64_t kBurstPeriodNs = 300'000'000;
/// Warm-up spans per connection, published before timing starts.
constexpr std::size_t kWarmupSpansPerConn = 4096;
/// Stage table: spans per level and repetition, and the chunk size the
/// in-process prefixes are driven in.
constexpr std::size_t kStageSpans = 524'288;
constexpr std::size_t kStageChunk = 16'384;
constexpr int kStageReps = 3;
/// fleet_steady: delivery percentiles are taken per window of this length.
constexpr std::int64_t kWindowNs = 1'000'000'000;
/// Stranded-span probe: a trickle of spans, then this long idle.
constexpr std::size_t kTrickleSpans = 1000;
constexpr std::int64_t kTrickleWaitNs = 200'000'000;
/// Upper bound on waiting for the pipeline to deliver what was handed in.
constexpr std::int64_t kDrainWaitNs = 30'000'000'000;

// --- the replay trace --------------------------------------------------------

/// Publication batches of several profiled runs, as a Session's drain
/// hands them to a RemoteSink.
struct ReplayTrace {
  std::vector<SpanBatches> runs;
  std::uint64_t spans = 0;
  trace::SpanId id_stride = 1;
  std::uint64_t corr_stride = 1;
};

ReplayTrace record_replay(const Args& args, int rep) {
  // One model from each of kReplayModels strata of the zoo ordered by the
  // paper's online latency, the seed choosing within each stratum: the
  // replay's make-up varies with the seed while its size (and the set-up
  // time it costs) stays about the same.
  std::vector<const models::ModelInfo*> pool;
  for (const auto& m : models::tensorflow_models()) pool.push_back(&m);
  std::stable_sort(pool.begin(), pool.end(), [](const auto* a, const auto* b) {
    return a->paper.online_latency_ms < b->paper.online_latency_ms;
  });
  const sim::GpuSpec& system = sim::system_by_name("Tesla_V100");
  const std::string path = args.out_dir + "/replay-" + std::to_string(getpid()) + "-" +
                           std::to_string(rep) + ".xspb";
  ReplayTrace replay;
  for (std::size_t i = 0; i < kReplayModels; ++i) {
    const std::size_t lo = i * pool.size() / kReplayModels;
    const std::size_t hi = (i + 1) * pool.size() / kReplayModels;
    const models::ModelInfo* model =
        pool[lo + static_cast<std::size_t>(mix64(args.seed * kReplayModels + i) % (hi - lo))];
    const std::int64_t batch = i % 2 == 0 ? 1 : 8;
    const framework::Graph graph = model->build(batch, true);
    profile::Session session(system, framework::FrameworkKind::kTFlow);
    auto opts = profile::ProfileOptions::full(true);
    opts.stream_export_path = path;
    opts.stream_export_format = trace::ExportFormat::kBinary;
    (void)session.profile(graph, opts);
    std::ifstream in(path, std::ios::binary);
    trace::BinaryReader reader(in);
    SpanBatches run = reader.read_all();
    for (const SpanBatch& b : run) {
      replay.spans += b.size();
      for (const Span& s : b) {
        replay.id_stride = std::max({replay.id_stride, s.id + 1, s.parent + 1});
        replay.corr_stride = std::max(replay.corr_stride, s.correlation_id + 1);
      }
    }
    replay.runs.push_back(std::move(run));
  }
  std::remove(path.c_str());
  return replay;
}

/// Hands out replayed spans: run after run, cycling, each run copy with
/// fresh ids and its begin/end re-stamped by the caller.
class ReplayCursor {
 public:
  explicit ReplayCursor(const ReplayTrace& replay) : replay_(replay) {}

  /// The next span in replay order, ids made fresh for this run copy;
  /// `end` is the new end time (begin keeps the recorded duration).
  Span next(std::int64_t end) {
    const SpanBatches& run = replay_.runs[run_];
    Span s = run[batch_][span_];
    restamp(s, epoch_, end);
    if (++span_ == run[batch_].size()) {
      span_ = 0;
      if (++batch_ == run.size()) {
        batch_ = 0;
        run_ = (run_ + 1) % replay_.runs.size();
        ++epoch_;
      }
    }
    return s;
  }

  /// Copy of the run at `index` with fresh ids, every span ending at
  /// `end`; appended to `out`, at most `limit` spans. Returns spans added.
  std::size_t copy_run(std::size_t index, std::int64_t end, std::size_t limit, SpanBatches& out) {
    std::size_t added = 0;
    for (const SpanBatch& b : replay_.runs[index]) {
      if (added == limit) break;
      const std::size_t n = std::min(b.size(), limit - added);
      SpanBatch copy(b.begin(), b.begin() + static_cast<std::ptrdiff_t>(n));
      for (Span& s : copy) restamp(s, epoch_, end);
      out.push_back(std::move(copy));
      added += n;
    }
    ++epoch_;
    return added;
  }

 private:
  void restamp(Span& s, std::uint64_t epoch, std::int64_t end) const {
    const auto fresh = [&](std::uint64_t id, std::uint64_t stride) {
      return id == 0 ? 0 : id + epoch * stride;
    };
    s.id = fresh(s.id, replay_.id_stride);
    s.parent = fresh(s.parent, replay_.id_stride);
    s.correlation_id = fresh(s.correlation_id, replay_.corr_stride);
    const std::int64_t dur = s.end - s.begin;
    s.end = end;
    s.begin = end - dur;
  }

  const ReplayTrace& replay_;
  std::size_t run_ = 0, batch_ = 0, span_ = 0;
  std::uint64_t epoch_ = 1;  // epoch 0 would repeat the recorded ids
};

// --- the measuring subscriber ------------------------------------------------

/// Burst bookkeeping for fleet_burst: spans of burst k end at t0 + k*period.
struct BurstTrack {
  std::int64_t t0 = 0;
  std::int64_t period = 1;
  std::vector<std::uint64_t> size;
  std::vector<std::uint64_t> seen;
  std::vector<std::int64_t> done_ns;
};

/// Everything the consuming subscriber measures; guarded by mu.
struct Consumed {
  std::mutex mu;
  SpanHasher hasher;
  std::uint64_t spans = 0;
  std::uint64_t checksum = 0;
  std::int64_t last_ns = 0;
  /// fleet_steady: delivery times in ns (saturating at ~4.3 s), one vector
  /// per window of due time; the reported percentiles are the medians over
  /// windows.
  bool record_delivery = false;
  std::int64_t window_t0 = 0;
  std::vector<std::vector<std::uint32_t>> windows;
  BurstTrack burst;
  std::uint64_t callbacks = 0;
  std::uint64_t callback_spans = 0;
};

// --- the collector fleet -----------------------------------------------------

/// One collector and its producers, torn down in dependency order.
class Fleet {
 public:
  explicit Fleet(const std::string& socket_path)
      : writer_([this](std::string_view bytes) { null_bytes_ += bytes.size(); }) {
    std::remove(socket_path.c_str());
    server_ = std::make_unique<trace::ShardedTraceServer>(1, trace::PublishMode::kAsync);
    subs_.push_back(server_->add_drain_subscriber(analyzer_.shard_subscriber(),
                                                  trace::DrainHandoff::kObserve));
    subs_.push_back(server_->add_drain_subscriber(
        [this](const SpanBatches& batches) { consume(batches); }, trace::DrainHandoff::kConsume));
    service_ = std::make_unique<net::CollectorService>(
        net::Endpoint::parse("unix:" + socket_path), *server_);
    socket_path_ = socket_path;
    // The service listens from construction, so the sinks may connect
    // before run() starts; the thread comes last so a throwing constructor
    // never leaves it unjoined.
    for (int i = 0; i < kConnections; ++i) {
      sinks_.push_back(std::make_unique<trace::RemoteSink>(service_->endpoint()));
    }
    run_thread_ = std::thread([this] { service_->run(); });
  }

  ~Fleet() {
    for (auto& s : sinks_) s->close();
    service_->stop();
    run_thread_.join();
    server_->flush();
    for (const auto id : subs_) server_->remove_drain_subscriber(id);
    service_.reset();
    server_.reset();
    std::remove(socket_path_.c_str());
  }

  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  trace::RemoteSink& sink(std::size_t i) { return *sinks_[i % sinks_.size()]; }
  net::CollectorService& service() { return *service_; }
  trace::ShardedTraceServer& server() { return *server_; }
  Consumed& consumed() { return consumed_; }
  pthread_t run_thread() { return run_thread_.native_handle(); }
  std::uint64_t null_bytes() const { return null_bytes_.load(); }

  /// Trace the consuming subscriber's calls (nullptr stops).
  void set_recorder(Recorder* rec, Recorder::NameId name) {
    subscriber_name_ = name;
    rec_.store(rec);
  }

  struct SinkTotals {
    std::uint64_t published = 0, sent = 0, dropped = 0, shed = 0, sampled_dropped = 0,
                  reconnects = 0;
  };
  SinkTotals sink_totals() const {
    SinkTotals t;
    for (const auto& s : sinks_) {
      t.published += s->spans_published();
      t.sent += s->spans_sent();
      t.dropped += s->spans_dropped();
      t.shed += s->spans_shed();
      t.sampled_dropped += s->spans_sampled_dropped();
      t.reconnects += s->reconnects();
    }
    return t;
  }

  std::uint64_t consumed_spans() {
    std::lock_guard lk(consumed_.mu);
    return consumed_.spans;
  }

  /// Wait until every span the sinks accepted has reached the consuming
  /// subscriber. The server seals a producer batch only at 256 spans and its
  /// collector thread never takes a partial one, so once the collector has
  /// ingested everything the partial batch is pushed through with flush().
  /// Returns false if the bound passes first.
  bool wait_delivered(std::int64_t timeout_ns = kDrainWaitNs) {
    const std::int64_t deadline = now_ns() + timeout_ns;
    if (!wait_ingested(deadline)) return false;
    server_->flush();
    while (consumed_spans() < service_->stats().spans_ingested) {
      if (now_ns() > deadline) return false;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    return true;
  }

  /// Flush the sinks and wait until the collector ingested all they took.
  bool wait_ingested(std::int64_t deadline) {
    for (auto& s : sinks_) s->flush();
    for (;;) {
      const SinkTotals t = sink_totals();
      if (service_->stats().spans_ingested >= t.published - t.dropped - t.sampled_dropped)
        return true;
      if (now_ns() > deadline) return false;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }

 private:
  void consume(const SpanBatches& batches) {
    const std::int64_t now = now_ns();
    Recorder::Scope scope(rec_.load(), subscriber_name_, 0);
    writer_.write_batches(batches);
    std::lock_guard lk(consumed_.mu);
    Consumed& c = consumed_;
    BurstTrack& bt = c.burst;
    ++c.callbacks;
    for (const SpanBatch& b : batches) {
      c.callback_spans += b.size();
      for (const Span& s : b) {
        c.checksum += c.hasher(s);
        if (c.record_delivery) {
          const std::int64_t w = (s.end - c.window_t0) / kWindowNs;
          if (w >= 0 && w < static_cast<std::int64_t>(c.windows.size())) {
            const std::int64_t d = std::clamp<std::int64_t>(now - s.end, 0, UINT32_MAX);
            c.windows[static_cast<std::size_t>(w)].push_back(static_cast<std::uint32_t>(d));
          }
        }
        if (!bt.size.empty() && s.end >= bt.t0 && (s.end - bt.t0) % bt.period == 0) {
          const auto k = static_cast<std::size_t>((s.end - bt.t0) / bt.period);
          if (k < bt.size.size() && ++bt.seen[k] == bt.size[k]) bt.done_ns[k] = now;
        }
      }
      c.spans += b.size();
    }
    c.last_ns = now;
  }

  // Declared before the server: the server's drain thread calls into them
  // until the server is gone.
  std::atomic<std::uint64_t> null_bytes_{0};
  trace::BinaryWriter writer_;
  analysis::OnlineAnalyzer analyzer_;
  Consumed consumed_;
  std::atomic<Recorder*> rec_{nullptr};
  Recorder::NameId subscriber_name_ = 0;

  std::unique_ptr<trace::ShardedTraceServer> server_;
  std::vector<trace::SubscriberId> subs_;
  std::unique_ptr<net::CollectorService> service_;
  std::thread run_thread_;
  std::vector<std::unique_ptr<trace::RemoteSink>> sinks_;
  std::string socket_path_;
};

/// Set-up of one fleet workload: replay trace, collector, connections,
/// warm-up.
struct Rig {
  ReplayTrace replay;
  std::unique_ptr<Fleet> fleet;
  std::unique_ptr<ReplayCursor> cursor;
  /// Generator-side accounting of every span handed to a sink.
  SpanHasher hasher;
  std::uint64_t handed = 0;
  std::uint64_t handed_checksum = 0;
};

std::unique_ptr<Rig> set_up(const Args& args, int rep, Report& report) {
  auto rig = std::make_unique<Rig>();
  rig->replay = record_replay(args, rep);
  rig->cursor = std::make_unique<ReplayCursor>(rig->replay);
  rig->fleet = std::make_unique<Fleet>(args.out_dir + "/xspbench-" + std::to_string(getpid()) +
                                       "-" + std::to_string(rep) + ".sock");
  // Warm-up, both producer shapes, until delivered: the sinks connect on
  // their first send.
  SpanBatches part;
  for (std::size_t i = 0; i < kWarmupSpansPerConn * kConnections; ++i) {
    const Span s = rig->cursor->next(now_ns());
    rig->handed_checksum += rig->hasher(s);
    ++rig->handed;
    rig->fleet->sink(i).publish(s);
  }
  for (int c = 0; c < kConnections; ++c) {
    part.clear();
    const std::size_t run = static_cast<std::size_t>(c) % rig->replay.runs.size();
    const std::size_t n = rig->cursor->copy_run(run, now_ns(), kWarmupSpansPerConn, part);
    for (const auto& b : part)
      for (const auto& s : b) rig->handed_checksum += rig->hasher(s);
    rig->handed += n;
    rig->fleet->sink(static_cast<std::size_t>(c)).write_batches(part);
  }
  report.check(rig->fleet->wait_delivered(), "fleet.warmup_delivered");
  return rig;
}

// --- timed loops -------------------------------------------------------------

/// Samples taken on the generator thread during a traced pass.
struct Samples {
  std::uint64_t n = 0;
  std::uint64_t outbox_max = 0;
  double ingest_lag_sum = 0;
  double server_lag_sum = 0;

  void take(Fleet& fleet) {
    std::uint64_t sent = 0;
    for (int i = 0; i < kConnections; ++i) {
      auto& s = fleet.sink(static_cast<std::size_t>(i));
      outbox_max = std::max(outbox_max, s.outbox_spans());
      sent += s.spans_sent();
    }
    const std::uint64_t ingested = fleet.service().stats().spans_ingested;
    const std::uint64_t consumed = fleet.consumed_spans();
    ingest_lag_sum += static_cast<double>(sent > ingested ? sent - ingested : 0);
    server_lag_sum += static_cast<double>(ingested > consumed ? ingested - consumed : 0);
    ++n;
  }
};

/// The end-to-end figures of one pass, plus what the traced pass adds.
struct Pass {
  double ops_per_s = 0;
  double latency_p50_ms = 0;
  double latency_tail_ms = 0;
  /// Percentiles over the whole pass (fleet_steady reports per-window
  /// medians above).
  double all_p50_ms = 0;
  double all_tail_ms = 0;
  double cpu_ns_per_span = 0;
  double sys_share = 0;
  double late_ms_max = 0;
  double busy_ratio = 0;
  std::uint64_t spans = 0;  ///< delivered in the pass
  std::uint64_t samples = 0;  ///< latency samples behind the percentiles
  bool delivered = true;
  Samples sampled;
  Fleet::SinkTotals sinks_delta;
  net::CollectorStats collector_delta;
};

struct PassClock {
  std::int64_t wall0, gen_cpu0, run_cpu0;
  CpuTimes cpu0;
  explicit PassClock(Fleet& f)
      : wall0(now_ns()), gen_cpu0(thread_cpu_ns()), run_cpu0(thread_cpu_ns(f.run_thread())),
        cpu0(process_cpu()) {}
};

Fleet::SinkTotals operator-(const Fleet::SinkTotals& a, const Fleet::SinkTotals& b) {
  return {a.published - b.published,
          a.sent - b.sent,
          a.dropped - b.dropped,
          a.shed - b.shed,
          a.sampled_dropped - b.sampled_dropped,
          a.reconnects - b.reconnects};
}

net::CollectorStats operator-(const net::CollectorStats& a, const net::CollectorStats& b) {
  net::CollectorStats d;
  d.bytes_received = a.bytes_received - b.bytes_received;
  d.spans_ingested = a.spans_ingested - b.spans_ingested;
  d.frames_parsed = a.frames_parsed - b.frames_parsed;
  return d;
}

/// Close a pass: wait for delivery and take the CPU figures.
void finish_pass(Rig& rig, const PassClock& clk, std::uint64_t consumed0, Pass& p) {
  Fleet& f = *rig.fleet;
  p.delivered = f.wait_delivered();
  const CpuTimes cpu = process_cpu() - clk.cpu0;
  const std::int64_t gen_cpu = thread_cpu_ns() - clk.gen_cpu0;
  const std::int64_t run_cpu = thread_cpu_ns(f.run_thread()) - clk.run_cpu0;
  std::lock_guard lk(f.consumed().mu);
  const Consumed& c = f.consumed();
  p.spans = c.spans - consumed0;
  const auto wall = static_cast<double>(c.last_ns - clk.wall0);
  p.cpu_ns_per_span = static_cast<double>(cpu.total() - gen_cpu) / static_cast<double>(p.spans);
  p.sys_share = static_cast<double>(cpu.sys_ns) / static_cast<double>(cpu.total());
  p.busy_ratio = static_cast<double>(run_cpu) / wall;
  p.ops_per_s = static_cast<double>(p.spans) / (wall / 1e9);
}

Pass steady_pass(const Args& args, Rig& rig, Recorder* rec) {
  Fleet& f = *rig.fleet;
  const Recorder::NameId publish_name = rec ? rec->name("remote_sink.publish") : 0;
  const std::uint64_t total = kSteadyRate * static_cast<std::uint64_t>(pass_seconds(args));
  const std::uint64_t withhold = args.inject == "withhold" ? total / 2 : total;
  Pass p;
  const auto sinks0 = f.sink_totals();
  const auto stats0 = f.service().stats();
  const std::uint64_t consumed0 = f.consumed_spans();
  const PassClock clk(f);
  const std::int64_t t0 = clk.wall0 + 1'000'000;
  {
    std::lock_guard lk(f.consumed().mu);
    Consumed& c = f.consumed();
    c.window_t0 = t0;
    c.windows.assign(static_cast<std::size_t>(pass_seconds(args)), {});
    for (auto& w : c.windows) w.reserve(kSteadyRate * kWindowNs / 1'000'000'000);
    c.record_delivery = true;
  }
  const auto due = [&](std::uint64_t i) {
    return t0 + static_cast<std::int64_t>(i * 1'000'000'000ull / kSteadyRate);
  };
  std::int64_t late_max = 0;
  std::int64_t last_sample = 0;
  std::uint64_t i = 0;
  while (i < total) {
    const std::int64_t now = now_ns();
    std::uint64_t due_n =
        now < t0 ? 0 : static_cast<std::uint64_t>(now - t0) * kSteadyRate / 1'000'000'000ull + 1;
    due_n = std::min(due_n, total);
    if (due_n > i) late_max = std::max(late_max, now - due(i));
    for (; i < due_n; ++i) {
      const Span s = rig.cursor->next(due(i));
      rig.handed_checksum += rig.hasher(s);
      ++rig.handed;
      if (i == withhold) continue;  // the benchmark's own test: a span that never arrives
      Recorder::Scope scope(rec, publish_name, i);
      f.sink(i).publish(s);
    }
    if (rec != nullptr && now - last_sample >= kSampleNs) {
      p.sampled.take(f);
      last_sample = now;
    }
    if (i < total) sleep_until_ns(std::max(due(i), now_ns() + kTickNs));
  }
  finish_pass(rig, clk, consumed0, p);
  p.late_ms_max = static_cast<double>(late_max) / 1e6;
  p.sinks_delta = f.sink_totals() - sinks0;
  p.collector_delta = f.service().stats() - stats0;
  std::lock_guard lk(f.consumed().mu);
  Consumed& c = f.consumed();
  c.record_delivery = false;
  std::vector<double> p50, p99;
  std::vector<std::uint32_t> all;
  for (const auto& w : c.windows) {
    p50.push_back(percentile(w, 0.5) / 1e6);
    p99.push_back(percentile(w, 0.99) / 1e6);
    all.insert(all.end(), w.begin(), w.end());
  }
  c.windows.clear();
  p.samples = all.size();
  p.latency_p50_ms = median(p50);
  p.latency_tail_ms = median(p99);
  p.all_p50_ms = percentile(all, 0.5) / 1e6;
  p.all_tail_ms = percentile(all, 0.99) / 1e6;
  return p;
}

/// One burst: per connection, whole recorded runs (seeded choice) up to
/// kBurstSpansPerConn spans, the last run cut at the bound.
std::vector<SpanBatches> make_burst(Rig& rig, std::uint64_t& rng, std::int64_t end) {
  std::vector<SpanBatches> parts(kConnections);
  for (auto& part : parts) {
    std::size_t n = 0;
    while (n < kBurstSpansPerConn) {
      rng += 0x9E3779B97F4A7C15ull;
      const std::size_t run = mix64(rng) % rig.replay.runs.size();
      n += rig.cursor->copy_run(run, end, kBurstSpansPerConn - n, part);
    }
    for (const auto& b : part)
      for (const auto& s : b) rig.handed_checksum += rig.hasher(s);
    rig.handed += n;
  }
  return parts;
}

Pass burst_pass(const Args& args, Rig& rig, Recorder* rec) {
  Fleet& f = *rig.fleet;
  const Recorder::NameId write_name = rec ? rec->name("remote_sink.write_batches") : 0;
  const auto bursts = static_cast<std::size_t>(static_cast<std::int64_t>(pass_seconds(args)) *
                                               1'000'000'000 / kBurstPeriodNs);
  const std::uint64_t burst_spans = kBurstSpansPerConn * kConnections;
  std::uint64_t rng = args.seed ^ 0xB0B5EEDull;
  Pass p;
  const auto sinks0 = f.sink_totals();
  const auto stats0 = f.service().stats();
  const std::uint64_t consumed0 = f.consumed_spans();
  const PassClock clk(f);
  // Burst k is due at t0 + k * period; its spans all end at that instant,
  // which is how the subscriber tells bursts apart.
  const std::int64_t t0 = clk.wall0 + kBurstPeriodNs / 2;
  {
    std::lock_guard lk(f.consumed().mu);
    BurstTrack& bt = f.consumed().burst;
    bt.t0 = t0;
    bt.period = kBurstPeriodNs;
    bt.size.assign(bursts, burst_spans);
    bt.seen.assign(bursts, 0);
    bt.done_ns.assign(bursts, 0);
  }
  std::int64_t late_max = 0;
  // Traced, the generator samples the pipeline while it waits; untraced, it
  // just sleeps.
  const auto wait_until = [&](std::int64_t deadline) {
    if (rec == nullptr) return sleep_until_ns(deadline);
    while (now_ns() < deadline) {
      p.sampled.take(f);
      sleep_until_ns(std::min(deadline, now_ns() + kSampleNs));
    }
  };
  auto next = make_burst(rig, rng, t0);
  for (std::size_t k = 0; k < bursts; ++k) {
    const std::int64_t due = t0 + static_cast<std::int64_t>(k) * kBurstPeriodNs;
    wait_until(due);
    late_max = std::max(late_max, now_ns() - due);
    if (args.inject == "withhold" && k == bursts / 2) {
      next[0].front().erase(next[0].front().begin());  // a span that never arrives
    }
    for (int c = 0; c < kConnections; ++c) {
      Recorder::Scope scope(rec, write_name, k);
      f.sink(static_cast<std::size_t>(c)).write_batches(next[static_cast<std::size_t>(c)]);
    }
    if (k + 1 < bursts) {
      // Build the next burst late in the period, off the current burst's
      // critical path.
      wait_until(due + kBurstPeriodNs * 3 / 4);
      next = make_burst(rig, rng, due + kBurstPeriodNs);
    }
  }
  if (rec != nullptr) p.sampled.take(f);
  finish_pass(rig, clk, consumed0, p);
  p.late_ms_max = static_cast<double>(late_max) / 1e6;
  p.sinks_delta = f.sink_totals() - sinks0;
  p.collector_delta = f.service().stats() - stats0;
  std::lock_guard lk(f.consumed().mu);
  BurstTrack& bt = f.consumed().burst;
  std::vector<double> burst_ms;
  double total_ns = 0;
  std::uint64_t spans = 0;
  for (std::size_t k = 0; k < bursts; ++k) {
    if (bt.done_ns[k] == 0) continue;  // never completed: counted as lost spans
    const auto d = static_cast<double>(bt.done_ns[k] - (t0 + static_cast<std::int64_t>(k) *
                                                                  kBurstPeriodNs));
    burst_ms.push_back(d / 1e6);
    total_ns += d;
    spans += bt.size[k];
  }
  bt.size.clear();
  p.samples = burst_ms.size();
  p.latency_p50_ms = percentile(burst_ms, 0.5);
  p.latency_tail_ms = percentile(burst_ms, 0.9);
  p.ops_per_s = total_ns > 0 ? static_cast<double>(spans) / (total_ns / 1e9) : 0;
  return p;
}

// --- the leveled stage table -------------------------------------------------

/// Process CPU ns per span of one pipeline prefix, median of kStageReps.
template <typename Fn>
double stage_ns_per_span(Fn&& run_level) {
  std::vector<double> reps;
  for (int r = 0; r < kStageReps; ++r) reps.push_back(run_level());
  return median(reps);
}

/// Drive the in-process prefixes L0..L3 over kStageSpans replayed spans.
double in_process_level(Rig& rig, int level) {
  trace::TraceServer server(trace::PublishMode::kSync);
  std::string wire;  // L3 decodes what the writer produced
  std::uint64_t null_bytes = 0;
  trace::BinaryWriter writer([&](std::string_view bytes) {
    if (level >= 3) {
      wire.append(bytes);
    } else {
      null_bytes += bytes.size();
    }
  });
  trace::WireDecoder decoder;
  bool header_done = false;
  std::size_t wire_pos = 0;
  SpanBatch decoded;
  std::vector<Span> chunk(kStageChunk);
  std::int64_t cpu = 0;
  for (std::size_t done = 0; done < kStageSpans; done += kStageChunk) {
    for (Span& s : chunk) s = rig.cursor->next(now_ns());
    const CpuTimes c0 = process_cpu();
    for (const Span& s : chunk) server.publish(s);
    if (level >= 1) {
      SpanBatches batches = server.take_batches();
      if (level >= 2) writer.write_batches(batches);
      server.recycle(std::move(batches));
    }
    if (level >= 3) {
      writer.flush();
      for (;;) {
        const std::string_view data = std::string_view(wire).substr(wire_pos);
        if (!header_done) {
          if (data.size() < sizeof(trace::wire::Header)) break;
          trace::wire::Header h{};
          std::memcpy(&h, data.data(), sizeof h);
          (void)trace::WireDecoder::validate_header(h);
          decoder.set_span_size(h.span_size);
          wire_pos += sizeof h;
          header_done = true;
          continue;
        }
        if (data.size() < sizeof(trace::wire::FrameHeader)) break;
        trace::wire::FrameHeader fh{};
        std::memcpy(&fh, data.data(), sizeof fh);
        if (data.size() - sizeof fh < fh.payload_size) break;
        const std::string_view payload = data.substr(sizeof fh, fh.payload_size);
        const auto type = static_cast<trace::wire::FrameType>(fh.type);
        if (type == trace::wire::FrameType::kStringDelta) decoder.decode_string_delta(payload);
        if (type == trace::wire::FrameType::kSpanBatch) decoder.decode_span_batch(payload, decoded);
        wire_pos += sizeof fh + fh.payload_size;
      }
      wire.erase(0, wire_pos);
      wire_pos = 0;
    }
    cpu += (process_cpu() - c0).total();
    if (level == 0) server.recycle(server.take_batches());  // untimed: bound memory
  }
  return static_cast<double>(cpu) / static_cast<double>(kStageSpans);
}

/// L4: the same spans through RemoteSink -> UDS -> CollectorService ->
/// server -> subscribers, closed loop with a window below the outbox
/// bound. Process CPU of every thread, publisher included.
double remote_level(Rig& rig) {
  Fleet& f = *rig.fleet;
  const CpuTimes c0 = process_cpu();
  for (std::size_t done = 0; done < kStageSpans; done += kStageChunk) {
    for (std::size_t i = 0; i < kStageChunk; ++i) {
      const Span s = rig.cursor->next(now_ns());
      rig.handed_checksum += rig.hasher(s);
      ++rig.handed;
      f.sink(i).publish(s);
    }
    // Keep at most two chunks in flight.
    const auto t = f.sink_totals();
    while (t.published - f.consumed_spans() > 2 * kStageChunk) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }
  f.wait_delivered();
  return static_cast<double>((process_cpu() - c0).total()) / static_cast<double>(kStageSpans);
}

/// Spans a trickle leaves undelivered: kTrickleSpans through one sink,
/// wait until the collector ingested them, give the server's collector
/// thread kTrickleWaitNs, and count what the subscriber has not seen.
std::uint64_t stranded_after_trickle(Rig& rig) {
  Fleet& f = *rig.fleet;
  for (std::size_t i = 0; i < kTrickleSpans; ++i) {
    const Span s = rig.cursor->next(now_ns());
    rig.handed_checksum += rig.hasher(s);
    ++rig.handed;
    f.sink(0).publish(s);
  }
  f.wait_ingested(now_ns() + kDrainWaitNs);
  sleep_until_ns(now_ns() + kTrickleWaitNs);
  const std::uint64_t ingested = f.service().stats().spans_ingested;
  const std::uint64_t consumed = f.consumed_spans();
  f.wait_delivered();
  return ingested > consumed ? ingested - consumed : 0;
}

}  // namespace

int run_fleet(const Args& args, Report& report) {
  const bool burst = args.workload == "fleet_burst";
  const std::int64_t t_start = now_ns();
  const auto& table = common::StringTable::global();
  const std::size_t strtab_strings0 = table.size();
  const std::size_t strtab_bytes0 = table.approx_bytes();

  // Set-up, repeated kSetupReps times; the last rig is the one measured.
  std::vector<double> setup_s;
  std::unique_ptr<Rig> rig;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    rig.reset();
    const std::int64_t t0 = rep == 0 ? t_start : now_ns();
    rig = set_up(args, rep, report);
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  report.note("replay_spans", static_cast<double>(rig->replay.spans), "count");
  report.note("replay_runs", static_cast<double>(rig->replay.runs.size()), "count");

  const auto pass = [&](Recorder* rec) {
    return burst ? burst_pass(args, *rig, rec) : steady_pass(args, *rig, rec);
  };
  const Pass u = pass(nullptr);
  report.check(u.delivered, "fleet.delivered");

  Recorder rec;
  Pass t;
  double stage[5] = {};
  if (args.trace) {
    rig->fleet->set_recorder(&rec, rec.name("trace.subscriber"));
    const std::int64_t traced_t0 = now_ns();
    t = pass(&rec);
    const auto traced_wall = static_cast<double>(now_ns() - traced_t0);
    rig->fleet->set_recorder(nullptr, 0);
    report.check(t.delivered, "fleet.traced_delivered");
    for (int level = 0; level <= 3; ++level) {
      stage[level] = stage_ns_per_span([&] { return in_process_level(*rig, level); });
    }
    stage[4] = stage_ns_per_span([&] { return remote_level(*rig); });
    const std::uint64_t stranded = stranded_after_trickle(*rig);

    const auto totals = rec.totals();
    const auto find = [&](const char* name) {
      for (const auto& x : totals)
        if (x.name == name) return x;
      return Recorder::Totals{};
    };
    const auto pub = find(burst ? "remote_sink.write_batches" : "remote_sink.publish");
    const auto sub = find("trace.subscriber");
    const auto& sd = t.sinks_delta;
    const auto& cd = t.collector_delta;
    const auto ingested = static_cast<double>(cd.spans_ingested);
    report.add("remote_sink.publish_ns",
               static_cast<double>(pub.total_ns) / static_cast<double>(sd.published), "ns");
    report.add("remote_sink.outbox_spans_max", static_cast<double>(t.sampled.outbox_max), "count");
    report.add("remote_sink.sent", static_cast<double>(sd.sent), "count");
    report.add("remote_sink.dropped", static_cast<double>(sd.dropped), "count");
    report.add("remote_sink.shed", static_cast<double>(sd.shed), "count");
    report.add("remote_sink.reconnects", static_cast<double>(sd.reconnects), "count");
    report.add("net.collector.bytes_per_span", static_cast<double>(cd.bytes_received) / ingested,
               "B");
    report.add("net.collector.frames_per_kspan",
               static_cast<double>(cd.frames_parsed) * 1000.0 / ingested, "count");
    report.add("net.collector.busy_ratio", t.busy_ratio, "ratio");
    const auto n = static_cast<double>(std::max<std::uint64_t>(t.sampled.n, 1));
    report.add("net.collector.ingest_lag_spans", t.sampled.ingest_lag_sum / n, "count");
    report.add("trace.server_lag_spans", t.sampled.server_lag_sum / n, "count");
    report.add("trace.subscriber_us_per_batch",
               static_cast<double>(sub.total_ns) / 1e3 /
                   static_cast<double>(std::max<std::uint64_t>(sub.count, 1)),
               "us");
    {
      std::lock_guard lk(rig->fleet->consumed().mu);
      const Consumed& c = rig->fleet->consumed();
      report.add("trace.drain_batch_spans",
                 static_cast<double>(c.callback_spans) / static_cast<double>(c.callbacks),
                 "count");
    }
    report.add("trace.spans_per_profile",
               static_cast<double>(rig->replay.spans) /
                   static_cast<double>(rig->replay.runs.size()),
               "count");
    report.add("trace.stranded_spans", static_cast<double>(stranded), "count");
    report.add("trace.dropped_annotations",
               static_cast<double>(rig->fleet->server().dropped_annotation_count()), "count");
    report.add("common.strtab_strings", static_cast<double>(table.size() - strtab_strings0),
               "count");
    report.add("common.strtab_bytes", static_cast<double>(table.approx_bytes() - strtab_bytes0),
               "B");
    report.add("process.sys_cpu_share", t.sys_share, "ratio");
    report.add("generator.late_ms_max", t.late_ms_max, "ms");
    for (const auto& l : rec.layer_totals()) {
      report.add("selftime." + l.name + "_share", static_cast<double>(l.self_ns) / traced_wall,
                 "ratio");
    }
    for (int level = 0; level <= 4; ++level) {
      report.add("stage.L" + std::to_string(level) + "_ns_per_span", stage[level], "ns");
      if (level > 0) {
        report.add("stage.L" + std::to_string(level) + "_minus_L" + std::to_string(level - 1) +
                       "_ns",
                   stage[level] - stage[level - 1], "ns");
      }
    }
    report.add("stage.sum_vs_cpu_ns_per_span", stage[4] / u.cpu_ns_per_span, "ratio");
    report.add("overhead.ops_per_s", t.ops_per_s - u.ops_per_s, "1/s");
    report.add("overhead.latency_ms_p50", t.latency_p50_ms - u.latency_p50_ms, "ms");
    report.add("overhead.latency_ms_tail", t.latency_tail_ms - u.latency_tail_ms, "ms");
    report.add("overhead.cpu_ns_per_span", t.cpu_ns_per_span - u.cpu_ns_per_span, "ns");
    report.note("recorder_spans_kept", static_cast<double>(rec.records_kept()), "count");
    report.note("recorder_spans_over_cap", static_cast<double>(rec.records_over_cap()), "count");
    report.check(rec.write_jsonl(args.out_dir + "/trace-" + args.workload + ".jsonl"),
                 "fleet.write_trace");
  }

  // Output checks, over everything handed to the sinks in this run.
  Fleet& f = *rig->fleet;
  report.check(f.wait_delivered(), "fleet.final_delivered");
  f.server().flush();
  // sent is counted once the socket took the bytes; give the sender threads
  // a moment to account what the collector has already ingested.
  Fleet::SinkTotals s = f.sink_totals();
  for (std::int64_t deadline = now_ns() + 2'000'000'000;
       s.published != s.sent + s.dropped + s.sampled_dropped && now_ns() < deadline;
       s = f.sink_totals()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const net::CollectorStats cs = f.service().stats();
  std::uint64_t consumed = 0, consumed_checksum = 0;
  {
    std::lock_guard lk(f.consumed().mu);
    consumed = f.consumed().spans;
    consumed_checksum = f.consumed().checksum;
  }
  report.check(s.published == s.sent + s.dropped + s.sampled_dropped,
               "fleet.sink_published_eq_sent_dropped_sampled");
  report.check(cs.spans_ingested == s.published - s.dropped,
               "fleet.collector_ingested_eq_published_minus_dropped");
  report.check(consumed == cs.spans_ingested, "fleet.consumed_eq_ingested");
  report.check(rig->handed == s.published, "fleet.handed_eq_published");
  if (s.dropped == 0) {
    report.check(consumed_checksum == rig->handed_checksum, "fleet.content_checksum");
  }
  report.attempted = rig->handed;
  report.failed = rig->handed > consumed ? rig->handed - consumed : 0;

  const double loss = static_cast<double>(report.failed) / static_cast<double>(report.attempted);
  if (burst) {
    report.note("burst_spans_per_s", u.ops_per_s, "spans/s");
    report.note("burst_ms_p50", u.latency_p50_ms, "ms");
    report.note("burst_ms_p90", u.latency_tail_ms, "ms");
    report.note("bursts", static_cast<double>(u.samples), "count");
  } else {
    report.note("delivered_spans_per_s", u.ops_per_s, "spans/s");
    report.note("delivery_ms_p50", u.latency_p50_ms, "ms");
    report.note("delivery_ms_p99", u.latency_tail_ms, "ms");
    report.note("delivery_samples", static_cast<double>(u.samples), "count");
    report.note("delivery_windows", pass_seconds(args), "count");
    report.note("delivery_ms_p50_whole_pass", u.all_p50_ms, "ms");
    report.note("delivery_ms_p99_whole_pass", u.all_tail_ms, "ms");
  }
  report.note("cpu_ns_per_span", u.cpu_ns_per_span, "ns");
  report.note("span_loss_ratio", loss, "ratio");
  report.note("generator_late_ms_max", u.late_ms_max, "ms");
  report.note("sys_cpu_share", u.sys_share, "ratio");
  report.note("writer_bytes_per_span",
              static_cast<double>(rig->fleet->null_bytes()) / static_cast<double>(consumed), "B");

  if (!args.trace) {
    report.add("setup_s", median(setup_s), "s");
    report.add("ops_per_s", u.ops_per_s, "1/s");
    report.add("latency_ms_p50", u.latency_p50_ms, "ms");
    report.add("latency_ms_tail", u.latency_tail_ms, "ms");
    report.add("cpu_ns_per_span", u.cpu_ns_per_span, "ns");
    report.add("peak_rss_mb", peak_rss_mb(), "MB");
  }
  rig.reset();
  return 0;
}

}  // namespace xspbench
