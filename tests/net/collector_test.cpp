// CollectorService + RemoteSink end to end: the cross-process ingestion
// path exercised in-process over real sockets. Covers the acceptance
// criteria of the collector tentpole — a 4-producer fleet assembling the
// same per-producer timelines remote as in-process, colliding fabricated
// StrIds never cross-contaminating after remap — plus the connection
// lifecycle: truncated frames, hostile bytes, reconnect with a fresh
// StringDelta epoch, and a daemon killed mid-stream leaving producers
// alive with every loss accounted.
#include "xsp/net/collector.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "net_test_util.hpp"
#include "xsp/net/endpoint.hpp"
#include "xsp/net/socket.hpp"
#include "xsp/trace/remote_sink.hpp"
#include "xsp/trace/sampler.hpp"
#include "xsp/trace/sharded_trace_server.hpp"
#include "xsp/trace/span_sink.hpp"
#include "xsp/trace/tracer.hpp"
#include "xsp/trace/wire.hpp"

namespace xsp::net {
namespace {

using testutil::accept_within;
using testutil::read_to_eof;
using testutil::read_until_contains;
using testutil::send_all;
using testutil::uds_endpoint;
using trace::kNoSpan;
using trace::Span;
using trace::SpanId;
using trace::StrId;
using xsp::TimePoint;

template <typename Pred>
bool wait_until(Pred pred, int timeout_ms = 5000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (!pred()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return true;
}

/// A collector daemon in miniature: sharded server sink + service running
/// on its own thread, stopped and joined on destruction.
struct RunningCollector {
  trace::ShardedTraceServer server;
  CollectorService service;
  std::thread thread;

  explicit RunningCollector(const Endpoint& ep, CollectorOptions copts = {})
      : server(2, trace::PublishMode::kSync),
        service(ep, server, copts),
        thread([this] { service.run(); }) {}
  ~RunningCollector() { stop(); }

  void stop() {
    service.stop();
    if (thread.joinable()) thread.join();
  }
};

// --- raw wire builders (crafted producer streams) ---------------------------

template <typename T>
void put_pod(std::string& out, const T& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  out.append(reinterpret_cast<const char*>(&v), sizeof v);
}

std::string header_bytes() {
  trace::wire::Header h{};
  std::memcpy(h.magic, trace::wire::kMagic, sizeof h.magic);
  h.version = trace::wire::kVersion;
  h.endianness = trace::wire::kEndianMark;
  h.span_size = static_cast<std::uint32_t>(sizeof(Span));
  h.header_size = static_cast<std::uint32_t>(sizeof(trace::wire::Header));
  std::string out;
  put_pod(out, h);
  return out;
}

std::string frame(trace::wire::FrameType type, std::string_view payload,
                  std::int64_t lie_about_size = -1) {
  trace::wire::FrameHeader fh{};
  fh.type = static_cast<std::uint8_t>(type);
  fh.payload_size = lie_about_size >= 0 ? static_cast<std::uint32_t>(lie_about_size)
                                        : static_cast<std::uint32_t>(payload.size());
  std::string out;
  put_pod(out, fh);
  out.append(payload);
  return out;
}

std::string delta_entry(std::uint32_t id, std::string_view s) {
  std::string out;
  put_pod(out, id);
  put_pod(out, static_cast<std::uint32_t>(s.size()));
  out.append(s);
  return out;
}

std::string span_batch_payload(const std::vector<Span>& spans) {
  std::string out;
  put_pod(out, static_cast<std::uint32_t>(spans.size()));
  out.append(reinterpret_cast<const char*>(spans.data()), spans.size() * sizeof(Span));
  return out;
}

std::string footer_frame(const trace::wire::Footer& f) {
  std::string payload;
  put_pod(payload, f);
  return frame(trace::wire::FrameType::kFooter, payload);
}

// --- fleet-member publication (identical remote and in-process) -------------

/// Publish one producer's spans into any SpanSink: a parent chain with
/// producer-specific names, levels, and correlation ids — the shape whose
/// per-producer timeline must survive collection unchanged.
void publish_fleet_member(trace::SpanSink& sink, int producer, std::size_t count) {
  const StrId tracer("producer_" + std::to_string(producer));
  SpanId prev = kNoSpan;
  for (std::size_t i = 0; i < count; ++i) {
    Span s;
    s.id = sink.next_span_id();
    s.parent = prev;
    s.level = trace::kKernelLevel;
    s.name = StrId("fleet_op_" + std::to_string(producer) + "_" +
                   std::to_string(i % 5));
    s.tracer = tracer;
    s.begin = static_cast<TimePoint>(i * 10);
    s.end = s.begin + 7;
    if (i % 3 == 0) s.correlation_id = sink.next_correlation_id();
    sink.publish(s);
    prev = s.id;
  }
}

/// Per-producer digest: span count plus the sorted (name, begin, end)
/// multiset — id-free, so it compares across remapped id spaces.
using TimelineDigest = std::vector<std::tuple<std::uint32_t, std::int64_t, std::int64_t>>;

std::map<std::uint32_t, TimelineDigest> digest_by_tracer(const std::vector<Span>& spans) {
  std::map<std::uint32_t, TimelineDigest> out;
  for (const Span& s : spans) {
    out[s.tracer.raw()].emplace_back(s.name.raw(), s.begin, s.end);
  }
  for (auto& [tracer, digest] : out) std::sort(digest.begin(), digest.end());
  return out;
}

// --- end-to-end round trips -------------------------------------------------

TEST(CollectorE2E, UdsRoundTripDeliversEverySpanExactlyOnce) {
  const Endpoint ep = uds_endpoint("col_rt");
  RunningCollector collector(ep);

  trace::RemoteSinkOptions opts;
  opts.batch_spans = 64;
  {
    trace::RemoteSink sink(ep, opts);
    publish_fleet_member(sink, 0, 1000);
    sink.close();  // footer + half-close + wait for the daemon's ack
    EXPECT_EQ(sink.spans_published(), 1000u);
    EXPECT_EQ(sink.spans_sent(), 1000u);
    EXPECT_EQ(sink.spans_dropped(), 0u);
    EXPECT_EQ(sink.reconnects(), 0u);
  }
  collector.stop();

  collector.server.flush();
  EXPECT_EQ(collector.server.span_count(), 1000u);
  const CollectorStats stats = collector.service.stats();
  EXPECT_EQ(stats.connections_accepted, 1u);
  EXPECT_EQ(stats.connections_closed, 1u);
  EXPECT_EQ(stats.connections_errored, 0u);
  EXPECT_EQ(stats.spans_ingested, 1000u);
  EXPECT_EQ(stats.footers_seen, 1u);
  EXPECT_GT(stats.bytes_received, 1000u * sizeof(Span));

  // Names arrived through the re-intern remap, not raw id reuse.
  const std::vector<Span> spans = collector.server.take_trace();
  ASSERT_EQ(spans.size(), 1000u);
  for (const Span& s : spans) EXPECT_EQ(s.tracer, "producer_0");
}

TEST(CollectorE2E, TcpEphemeralPortRoundTrips) {
  RunningCollector collector(Endpoint::parse("tcp://127.0.0.1:0"));
  const Endpoint bound = collector.service.endpoint();
  ASSERT_NE(bound.port, 0);

  trace::RemoteSink sink(bound);
  publish_fleet_member(sink, 0, 100);
  sink.close();
  collector.stop();
  collector.server.flush();
  EXPECT_EQ(collector.server.span_count(), 100u);
}

TEST(CollectorE2E, FourProducerFleetMatchesInProcessPublication) {
  // The acceptance criterion: N>=4 external producers through the
  // collector assemble into the same per-producer timelines as publishing
  // into a sharded server in-process — exact span counts, names equal.
  constexpr int kProducers = 4;
  constexpr std::size_t kSpansEach = 400;

  trace::ShardedTraceServer reference(2, trace::PublishMode::kSync);
  for (int p = 0; p < kProducers; ++p) publish_fleet_member(reference, p, kSpansEach);
  reference.flush();

  const Endpoint ep = uds_endpoint("col_fleet");
  RunningCollector collector(ep);
  {
    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p) {
      producers.emplace_back([&ep, p, kSpansEach] {
        trace::RemoteSinkOptions opts;
        opts.batch_spans = 32;
        trace::RemoteSink sink(ep, opts);
        publish_fleet_member(sink, p, kSpansEach);
        sink.close();
        EXPECT_EQ(sink.spans_sent(), kSpansEach);
        EXPECT_EQ(sink.spans_dropped(), 0u);
      });
    }
    for (std::thread& t : producers) t.join();
  }
  collector.stop();
  collector.server.flush();

  const CollectorStats stats = collector.service.stats();
  EXPECT_EQ(stats.connections_accepted, static_cast<std::uint64_t>(kProducers));
  EXPECT_EQ(stats.footers_seen, static_cast<std::uint64_t>(kProducers));
  EXPECT_EQ(stats.spans_ingested, kProducers * kSpansEach);

  const std::vector<Span> collected = collector.server.take_trace();
  const std::vector<Span> expected = reference.take_trace();
  ASSERT_EQ(collected.size(), expected.size());
  EXPECT_EQ(digest_by_tracer(collected), digest_by_tracer(expected));

  // Remapped ids stay producer-coherent: every parent reference resolves
  // within its own producer's id set — never into another producer's.
  std::map<std::uint32_t, std::vector<const Span*>> groups;
  for (const Span& s : collected) groups[s.tracer.raw()].push_back(&s);
  ASSERT_EQ(groups.size(), static_cast<std::size_t>(kProducers));
  for (const auto& [tracer, spans] : groups) {
    std::vector<SpanId> ids;
    for (const Span* s : spans) ids.push_back(s->id);
    std::sort(ids.begin(), ids.end());
    EXPECT_TRUE(std::adjacent_find(ids.begin(), ids.end()) == ids.end())
        << "duplicate remapped span id within a producer";
    for (const Span* s : spans) {
      if (s->parent == kNoSpan) continue;
      EXPECT_TRUE(std::binary_search(ids.begin(), ids.end(), s->parent))
          << "parent remapped outside its producer's id set";
    }
  }
}

// --- crafted-stream isolation and hostility ---------------------------------

TEST(CollectorE2E, CollidingFabricatedStrIdsNeverCrossContaminate) {
  // Two producers whose streams fabricate the *same* string id with
  // different contents, interleaved on the wire. Per-connection remap
  // must keep them apart; shared-table reuse would swap names.
  constexpr std::uint32_t kNameId = 0x00CC0001;
  constexpr std::uint32_t kTracerId = 0x00CC0002;
  const auto stream_parts = [&](std::string_view name, std::string_view tracer,
                                std::uint64_t footer_drops, std::uint64_t footer_reconnects) {
    std::string delta = delta_entry(kNameId, name);
    delta += delta_entry(kTracerId, tracer);
    Span s;
    s.id = 77;  // identical producer-local span id on both streams
    s.name = StrId::from_raw(kNameId);
    s.tracer = StrId::from_raw(kTracerId);
    s.begin = 5;
    s.end = 9;
    trace::wire::Footer f{};
    f.span_count = 1;
    f.remote_dropped_spans = footer_drops;
    f.remote_reconnects = footer_reconnects;
    return std::make_pair(
        header_bytes() + frame(trace::wire::FrameType::kStringDelta, delta),
        frame(trace::wire::FrameType::kSpanBatch, span_batch_payload({s})) +
            footer_frame(f));
  };
  const auto [a_head, a_tail] = stream_parts("collide_alpha", "collider_tracer_a", 3, 1);
  const auto [b_head, b_tail] = stream_parts("collide_beta", "collider_tracer_b", 4, 2);

  const Endpoint ep = uds_endpoint("col_collide");
  RunningCollector collector(ep);
  Socket a = try_connect(ep, 1000);
  Socket b = try_connect(ep, 1000);
  ASSERT_TRUE(a.valid());
  ASSERT_TRUE(b.valid());
  // Interleave the two streams so both remaps are live simultaneously.
  ASSERT_TRUE(send_all(a, a_head));
  ASSERT_TRUE(send_all(b, b_head));
  ASSERT_TRUE(send_all(a, a_tail));
  ASSERT_TRUE(send_all(b, b_tail));
  a.shutdown_write();
  b.shutdown_write();
  (void)read_to_eof(a);  // daemon ack
  (void)read_to_eof(b);
  collector.stop();

  collector.server.flush();
  const std::vector<Span> spans = collector.server.take_trace();
  ASSERT_EQ(spans.size(), 2u);
  const Span* alpha = nullptr;
  const Span* beta = nullptr;
  for (const Span& s : spans) {
    if (s.name == "collide_alpha") alpha = &s;
    if (s.name == "collide_beta") beta = &s;
  }
  ASSERT_NE(alpha, nullptr);
  ASSERT_NE(beta, nullptr);
  EXPECT_EQ(alpha->tracer, "collider_tracer_a");
  EXPECT_EQ(beta->tracer, "collider_tracer_b");
  EXPECT_NE(alpha->id, beta->id) << "colliding producer span ids must remap apart";

  const CollectorStats stats = collector.service.stats();
  EXPECT_EQ(stats.footers_seen, 2u);
  EXPECT_EQ(stats.producer_dropped_spans, 7u);  // 3 + 4, summed from footers
  EXPECT_EQ(stats.producer_reconnects, 3u);     // 1 + 2
  EXPECT_EQ(stats.connections_closed, 2u);
  EXPECT_EQ(stats.connections_errored, 0u);
}

TEST(CollectorE2E, TruncatedFrameErrorsConnectionAndDaemonServesOn) {
  const Endpoint ep = uds_endpoint("col_trunc");
  RunningCollector collector(ep);
  {
    Socket cut = try_connect(ep, 1000);
    ASSERT_TRUE(cut.valid());
    // Frame header promises 100 payload bytes; deliver 10 and vanish.
    std::string bytes = header_bytes();
    bytes += frame(trace::wire::FrameType::kSpanBatch, std::string(10, '\x01'),
                   /*lie_about_size=*/100);
    ASSERT_TRUE(send_all(cut, bytes));
  }
  ASSERT_TRUE(wait_until(
      [&] { return collector.service.stats().connections_errored == 1; }))
      << "mid-frame disconnect must count as errored";

  // The daemon took the hit on that connection only; a well-behaved
  // producer connecting next streams normally.
  trace::RemoteSink sink(ep);
  publish_fleet_member(sink, 1, 10);
  sink.close();
  collector.stop();
  collector.server.flush();
  EXPECT_EQ(collector.server.span_count(), 10u);
  const CollectorStats stats = collector.service.stats();
  EXPECT_EQ(stats.connections_accepted, 2u);
  EXPECT_EQ(stats.connections_closed, 1u);
  EXPECT_EQ(stats.spans_ingested, 10u);
}

TEST(CollectorE2E, HostileBytesAreContainedPerConnection) {
  const Endpoint ep = uds_endpoint("col_hostile");
  RunningCollector collector(ep);
  {
    Socket junk = try_connect(ep, 1000);
    ASSERT_TRUE(junk.valid());
    ASSERT_TRUE(send_all(junk, "JUNKJUNKJUNKJUNK"));  // 16 bytes of non-header
    junk.shutdown_write();
    (void)read_to_eof(junk);  // daemon closes on the WireError
  }
  {
    Socket oversized = try_connect(ep, 1000);
    ASSERT_TRUE(oversized.valid());
    std::string bytes = header_bytes();
    bytes += frame(trace::wire::FrameType::kSpanBatch, "",
                   static_cast<std::int64_t>(trace::wire::kMaxFramePayload) + 1);
    ASSERT_TRUE(send_all(oversized, bytes));
    oversized.shutdown_write();
    (void)read_to_eof(oversized);
  }
  ASSERT_TRUE(wait_until(
      [&] { return collector.service.stats().connections_errored == 2; }));

  trace::RemoteSink sink(ep);
  publish_fleet_member(sink, 2, 5);
  sink.close();
  collector.stop();
  collector.server.flush();
  EXPECT_EQ(collector.server.span_count(), 5u);
  EXPECT_EQ(collector.service.stats().spans_ingested, 5u);
}

TEST(CollectorE2E, ConfiguredFrameBoundIsEnforced) {
  const Endpoint ep = uds_endpoint("col_bound");
  CollectorOptions copts;
  copts.max_frame_payload = 1024;  // tighter than the format's 64 MiB cap
  RunningCollector collector(ep, copts);
  Socket s = try_connect(ep, 1000);
  ASSERT_TRUE(s.valid());
  std::string bytes = header_bytes();
  bytes += frame(trace::wire::FrameType::kStringDelta, "", /*lie_about_size=*/4096);
  ASSERT_TRUE(send_all(s, bytes));
  EXPECT_TRUE(wait_until(
      [&] { return collector.service.stats().connections_errored == 1; }));
  collector.stop();
  EXPECT_EQ(collector.service.stats().spans_ingested, 0u);
}

// --- connection lifecycle ---------------------------------------------------

TEST(CollectorE2E, GracefulDrainConsumesStreamInFlightAtStop) {
  const Endpoint ep = uds_endpoint("col_drain");
  CollectorOptions copts;
  copts.drain_timeout_ms = 3000;
  RunningCollector collector(ep, copts);

  Socket producer = try_connect(ep, 1000);
  ASSERT_TRUE(producer.valid());
  Span s;
  s.id = 1;
  s.name = StrId("drain_op");
  s.tracer = StrId("drain_tracer");
  s.begin = 0;
  s.end = 1;
  std::string bytes = header_bytes();
  bytes += frame(trace::wire::FrameType::kStringDelta,
                 delta_entry(s.name.raw(), "drain_op") +
                     delta_entry(s.tracer.raw(), "drain_tracer"));
  bytes += frame(trace::wire::FrameType::kSpanBatch, span_batch_payload({s}));
  ASSERT_TRUE(send_all(producer, bytes));
  ASSERT_TRUE(wait_until(
      [&] { return collector.service.stats().spans_ingested == 1; }));

  // Stop with the connection still open: the drain phase must keep
  // consuming it until our half-close, then ack — not cut it off.
  collector.service.stop();
  trace::wire::Footer f{};
  f.span_count = 1;
  ASSERT_TRUE(send_all(producer, footer_frame(f)));
  producer.shutdown_write();
  (void)read_to_eof(producer);
  collector.stop();

  const CollectorStats stats = collector.service.stats();
  EXPECT_EQ(stats.footers_seen, 1u);
  EXPECT_EQ(stats.connections_closed, 1u);
  EXPECT_EQ(stats.connections_errored, 0u);
}

TEST(RemoteSinkLifecycle, ReconnectOpensFreshStreamAndStringDeltaEpoch) {
  const Endpoint ep = uds_endpoint("col_epoch");
  Listener listener(ep);  // this test plays the daemon, byte-level

  trace::RemoteSinkOptions opts;
  opts.batch_spans = 1;  // every publish seals and sends promptly
  opts.backoff_initial_ms = 10;
  opts.backoff_max_ms = 100;
  opts.drain_timeout_ms = 300;
  trace::RemoteSink sink(ep, opts);

  Span first;
  first.id = sink.next_span_id();
  first.name = StrId("epoch_marker_string");
  first.tracer = StrId("epoch_tracer");
  first.begin = 0;
  first.end = 1;
  sink.publish(first);

  Socket conn_a = accept_within(listener);
  ASSERT_TRUE(conn_a.valid());
  std::string a_bytes;
  ASSERT_TRUE(read_until_contains(conn_a, a_bytes, "epoch_marker_string"));
  ASSERT_GE(a_bytes.size(), sizeof(trace::wire::Header));
  EXPECT_EQ(a_bytes.compare(0, 4, "XSPB"), 0);
  conn_a.close();  // daemon dies mid-stream

  // Keep publishing until the sink notices and re-establishes.
  std::thread prodder([&] {
    while (sink.reconnects() == 0) {
      Span filler;
      filler.id = sink.next_span_id();
      filler.name = StrId("epoch_filler");
      filler.tracer = StrId("epoch_tracer");
      filler.begin = 2;
      filler.end = 3;
      sink.publish(filler);
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });
  Socket conn_b = accept_within(listener, 10000);
  prodder.join();
  ASSERT_TRUE(conn_b.valid());
  EXPECT_EQ(sink.reconnects(), 1u);

  // The new connection is a complete stream on its own: fresh header,
  // and the delta epoch restarts from cursor zero — a string already
  // shipped on connection A ships again.
  std::string b_bytes;
  ASSERT_TRUE(read_until_contains(conn_b, b_bytes, "epoch_marker_string"))
      << "reconnect must replay the string table from scratch";
  ASSERT_GE(b_bytes.size(), sizeof(trace::wire::Header));
  EXPECT_EQ(b_bytes.compare(0, 4, "XSPB"), 0);

  // Ack the close handshake so close() returns via the protocol, not the
  // timeout: consume to EOF (the footer) then close our end.
  std::thread acker([&] {
    (void)read_to_eof(conn_b);
    conn_b.close();
  });
  sink.close();
  acker.join();
}

TEST(RemoteSinkLifecycle, DaemonDeathLeavesProducerAliveWithAccountedDrops) {
  const Endpoint ep = uds_endpoint("col_death");
  CollectorOptions copts;
  copts.drain_timeout_ms = 100;
  auto collector = std::make_unique<RunningCollector>(ep, copts);

  trace::RemoteSinkOptions opts;
  opts.batch_spans = 16;
  opts.max_outbox_spans = 128;  // small: drops surface quickly once dead
  opts.connect_timeout_ms = 100;
  opts.backoff_initial_ms = 10;
  opts.backoff_max_ms = 50;
  opts.drain_timeout_ms = 200;
  trace::RemoteSink sink(ep, opts);

  publish_fleet_member(sink, 0, 100);
  sink.flush();
  ASSERT_TRUE(wait_until(
      [&] { return collector->service.stats().spans_ingested > 0; }))
      << "producer must be mid-stream before the daemon dies";

  collector.reset();  // daemon killed: connection cut, endpoint gone

  // The producer thread keeps publishing; the sink must absorb the death
  // without blocking or throwing, and account every span it sheds.
  std::size_t extra = 0;
  while (sink.spans_dropped() == 0 && extra < 100000) {
    Span s;
    s.id = sink.next_span_id();
    s.name = StrId("death_op");
    s.tracer = StrId("death_tracer");
    s.begin = 0;
    s.end = 1;
    sink.publish(s);
    ++extra;
  }
  EXPECT_GT(sink.spans_dropped(), 0u)
      << "a dead daemon must surface as accounted drops, not silence";

  sink.close();  // must not wedge against the unreachable endpoint
  EXPECT_EQ(sink.spans_published(), 100u + extra);
  EXPECT_EQ(sink.spans_sent() + sink.spans_dropped(), sink.spans_published())
      << "every span ends up either sent or accounted dropped";
}

// --- wire v3 heartbeats: producer health at the daemon ----------------------

std::string heartbeat_frame(const trace::wire::Heartbeat& hb) {
  std::string payload;
  put_pod(payload, hb);
  return frame(trace::wire::FrameType::kHeartbeat, payload);
}

std::string v1_header_bytes() {
  std::string out = header_bytes();
  const auto version = std::uint16_t{1};
  std::memcpy(out.data() + 4, &version, sizeof version);  // Header::version
  return out;
}

/// One full scrape against the daemon's metrics endpoint: raw HTTP/1.0
/// exchange, returns the response body (empty on any failure).
std::string scrape_metrics(const Endpoint& ep) {
  Socket s = try_connect(ep, 1000);
  if (!s.valid()) return {};
  if (!send_all(s, "GET /metrics HTTP/1.0\r\n\r\n")) return {};
  const std::string resp = read_to_eof(s);
  const std::size_t split = resp.find("\r\n\r\n");
  if (split == std::string::npos) return {};
  if (resp.compare(0, 15, "HTTP/1.0 200 OK") != 0) return {};
  return resp.substr(split + 4);
}

TEST(CollectorHeartbeat, HeartbeatIngestExposesPerProducerSeriesAndStaleness) {
  const Endpoint ep = uds_endpoint("col_hb");
  CollectorOptions copts;
  copts.metrics_endpoint = "tcp://127.0.0.1:0";
  copts.heartbeat_stale_ms = 150;
  RunningCollector collector(ep, copts);
  ASSERT_NE(collector.service.metrics_endpoint(), nullptr);
  const Endpoint scrape_ep = *collector.service.metrics_endpoint();

  // A v3 producer announces itself with a heartbeat carrying its counters.
  Socket producer = try_connect(ep, 1000);
  ASSERT_TRUE(producer.valid());
  trace::wire::Heartbeat hb{};
  hb.sequence = 1;
  hb.spans_published = 500;
  hb.spans_sent = 450;
  hb.spans_dropped = 40;
  hb.spans_shed = 10;
  hb.sampled_kept = 400;
  hb.sampled_dropped = 100;
  hb.reconnects = 2;
  hb.outbox_spans = 17;
  ASSERT_TRUE(send_all(producer, header_bytes() + heartbeat_frame(hb)));
  ASSERT_TRUE(wait_until(
      [&] { return collector.service.stats().heartbeats_seen == 1; }));

  // Fresh heartbeat: the producer's own counters are on /metrics, labeled
  // by its connection, and it is not stale.
  std::string body = scrape_metrics(scrape_ep);
  ASSERT_FALSE(body.empty());
  EXPECT_NE(body.find("xsp_producer_published_spans_total{conn=\"1\"} 500"),
            std::string::npos)
      << body;
  EXPECT_NE(body.find("xsp_producer_sent_spans_total{conn=\"1\"} 450"), std::string::npos);
  EXPECT_NE(body.find("xsp_producer_dropped_spans_total{conn=\"1\"} 40"), std::string::npos);
  EXPECT_NE(body.find("xsp_producer_shed_spans_total{conn=\"1\"} 10"), std::string::npos);
  EXPECT_NE(body.find("xsp_producer_reconnects_total{conn=\"1\"} 2"), std::string::npos);
  EXPECT_NE(body.find("xsp_producer_outbox_spans{conn=\"1\"} 17"), std::string::npos);
  EXPECT_NE(body.find("xsp_producer_heartbeat_sequence{conn=\"1\"} 1"), std::string::npos);
  EXPECT_NE(body.find("xsp_producer_stale{conn=\"1\"} 0"), std::string::npos);

  // Heartbeats stop but the connection stays open: staleness flips.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  body = scrape_metrics(scrape_ep);
  EXPECT_NE(body.find("xsp_producer_stale{conn=\"1\"} 1"), std::string::npos)
      << "a silent producer must be flagged stale\n" << body;

  // A later heartbeat revives it — latest wins, staleness clears.
  hb.sequence = 2;
  hb.spans_published = 600;
  ASSERT_TRUE(send_all(producer, heartbeat_frame(hb)));
  ASSERT_TRUE(wait_until(
      [&] { return collector.service.stats().heartbeats_seen == 2; }));
  body = scrape_metrics(scrape_ep);
  EXPECT_NE(body.find("xsp_producer_published_spans_total{conn=\"1\"} 600"),
            std::string::npos);
  EXPECT_NE(body.find("xsp_producer_stale{conn=\"1\"} 0"), std::string::npos);

  producer.shutdown_write();
  (void)read_to_eof(producer);
  collector.stop();
  EXPECT_EQ(collector.service.stats().connections_errored, 0u);
}

TEST(CollectorHeartbeat, PreV3ProducersGetConnectionSeriesButNoHealthSeries) {
  const Endpoint ep = uds_endpoint("col_hb_v1");
  CollectorOptions copts;
  copts.metrics_endpoint = "tcp://127.0.0.1:0";
  RunningCollector collector(ep, copts);
  const Endpoint scrape_ep = *collector.service.metrics_endpoint();

  // A v1 producer streams a span; it can never send heartbeats, so it
  // must get per-connection transport series but no xsp_producer_* ones —
  // absence, not fabricated zeros (silence is not health data).
  Socket producer = try_connect(ep, 1000);
  ASSERT_TRUE(producer.valid());
  Span s;
  s.id = 1;
  s.name = StrId("v1_op");
  s.tracer = StrId("v1_tracer");
  s.begin = 0;
  s.end = 1;
  std::string bytes = v1_header_bytes();
  bytes += frame(trace::wire::FrameType::kStringDelta,
                 delta_entry(s.name.raw(), "v1_op") +
                     delta_entry(s.tracer.raw(), "v1_tracer"));
  bytes += frame(trace::wire::FrameType::kSpanBatch, span_batch_payload({s}));
  ASSERT_TRUE(send_all(producer, bytes));
  ASSERT_TRUE(wait_until(
      [&] { return collector.service.stats().spans_ingested == 1; }));

  const std::string body = scrape_metrics(scrape_ep);
  ASSERT_FALSE(body.empty());
  EXPECT_NE(body.find("xsp_connection_spans_total{conn=\"1\"} 1"), std::string::npos);
  EXPECT_EQ(body.find("xsp_producer_"), std::string::npos)
      << "v1/v2 connections must not fabricate producer-health series\n" << body;
  EXPECT_NE(body.find("xsp_ingested_spans_total 1"), std::string::npos);

  producer.shutdown_write();
  (void)read_to_eof(producer);
  collector.stop();
}

TEST(CollectorHeartbeat, RemoteSinkHeartbeatsFlowEndToEnd) {
  const Endpoint ep = uds_endpoint("col_hb_e2e");
  CollectorOptions copts;
  copts.metrics_endpoint = "tcp://127.0.0.1:0";
  RunningCollector collector(ep, copts);
  const Endpoint scrape_ep = *collector.service.metrics_endpoint();

  trace::RemoteSinkOptions opts;
  opts.heartbeat_interval_ms = 30;
  trace::RemoteSink sink(ep, opts);
  publish_fleet_member(sink, 0, 50);
  sink.flush();
  ASSERT_TRUE(wait_until(
      [&] { return collector.service.stats().heartbeats_seen >= 2; }))
      << "a live RemoteSink must beacon on its configured cadence";

  const std::string body = scrape_metrics(scrape_ep);
  EXPECT_NE(body.find("xsp_producer_published_spans_total{conn=\"1\"} 50"),
            std::string::npos)
      << body;
  EXPECT_NE(body.find("xsp_producer_stale{conn=\"1\"} 0"), std::string::npos);

  sink.close();
  collector.stop();
  EXPECT_GE(sink.heartbeats_sent(), 2u);
  EXPECT_EQ(collector.service.stats().connections_errored, 0u);
  // After the connection closes its per-producer series are gone from the
  // scrape state; the aggregate heartbeat counter is what persists.
  EXPECT_GE(collector.service.stats().heartbeats_seen, 2u);
}

// --- sampling admission & selective shedding ------------------------------

TEST(RemoteSinkSampling, PublishAdmissionHoldsTheInvariant) {
  const Endpoint ep = uds_endpoint("col_sample");
  RunningCollector collector(ep);

  trace::RemoteSinkOptions opts;
  opts.batch_spans = 32;
  trace::RemoteSink sink(ep, opts);
  trace::SamplerOptions sopts;
  sopts.rate = 0.25;
  sink.set_sampler(std::make_shared<const trace::Sampler>(sopts));

  constexpr std::size_t kSpans = 4000;
  for (std::size_t i = 0; i < kSpans; ++i) {
    Span s;
    s.id = sink.next_span_id();
    s.name = StrId("sampled_op");
    s.tracer = StrId("sampled_tracer");
    s.begin = static_cast<TimePoint>(i * 10);
    s.end = s.begin + 7;
    s.correlation_id = sink.next_correlation_id();
    sink.publish(s);
  }
  sink.close();

  EXPECT_EQ(sink.spans_published(), kSpans);
  EXPECT_GT(sink.spans_sampled_dropped(), 0u);
  EXPECT_GT(sink.spans_sampled_kept(), 0u);
  EXPECT_EQ(sink.spans_sampled_kept() + sink.spans_sampled_dropped(), kSpans)
      << "every publish lands in exactly one admission bucket";
  // The close() invariant with sampling: sampled-out spans are their own
  // bucket, disjoint from congestion/disconnect drops.
  EXPECT_EQ(sink.spans_sent() + sink.spans_dropped() + sink.spans_sampled_dropped(),
            sink.spans_published());
  // Only admitted spans reached the daemon.
  EXPECT_EQ(collector.service.stats().spans_ingested, sink.spans_sent());
}

TEST(RemoteSinkSampling, BackpressureShedsSelectivelyBeforeBlindDrops) {
  // No daemon at the endpoint: the outbox fills, and with a sampler
  // attached the sink must shed low-value spans selectively (counted in
  // spans_shed) rather than only dropping whole batches blind.
  const Endpoint ep = uds_endpoint("col_shed_none");
  trace::RemoteSinkOptions opts;
  opts.batch_spans = 16;
  opts.max_outbox_spans = 64;
  opts.connect_timeout_ms = 50;
  opts.backoff_initial_ms = 10;
  opts.backoff_max_ms = 50;
  opts.drain_timeout_ms = 100;
  trace::RemoteSink sink(ep, opts);
  trace::SamplerOptions sopts;
  sopts.rate = 1.0;  // admit everything; shedding is the pressure path
  sopts.tail_keep_ns = 1000;
  sink.set_sampler(std::make_shared<const trace::Sampler>(sopts));

  constexpr std::size_t kSpans = 20000;
  for (std::size_t i = 0; i < kSpans; ++i) {
    Span s;
    s.id = sink.next_span_id();
    s.name = StrId("shed_op");
    s.tracer = StrId("shed_tracer");
    s.begin = 0;
    s.end = i % 100 == 0 ? 2000 : 10;  // a 1% tail the shed must keep
    s.correlation_id = sink.next_correlation_id();
    sink.publish(s);
  }
  sink.close();

  EXPECT_EQ(sink.spans_published(), kSpans);
  EXPECT_GT(sink.spans_shed(), 0u) << "pressure must shed selectively with a sampler";
  EXPECT_LE(sink.spans_shed(), sink.spans_dropped())
      << "sheds are an of-which breakdown of total drops";
  EXPECT_EQ(sink.spans_sampled_dropped(), 0u) << "rate 1.0 rejects nothing at admission";
  EXPECT_EQ(sink.spans_sent() + sink.spans_dropped(), sink.spans_published());
}

// --- block-granular id remap -----------------------------------------------

/// Fabricated string ids every crafted remap stream reuses; each
/// connection's decoder re-interns them into its own names.
constexpr std::uint32_t kRemapNameId = 0x00DD0001;
constexpr std::uint32_t kRemapTracerId = 0x00DD0002;

/// Stream header plus the StringDelta naming this connection's tracer.
std::string remap_stream_head(std::string_view tracer) {
  return header_bytes() +
         frame(trace::wire::FrameType::kStringDelta,
               delta_entry(kRemapNameId, "remap_op") + delta_entry(kRemapTracerId, tracer));
}

/// A crafted span; `begin` records the producer id so a test can find a
/// span again after its ids were remapped.
Span remap_span(SpanId id, SpanId parent, std::uint64_t corr = 0) {
  Span s;
  s.id = id;
  s.parent = parent;
  s.correlation_id = corr;
  s.name = StrId::from_raw(kRemapNameId);
  s.tracer = StrId::from_raw(kRemapTracerId);
  s.begin = static_cast<TimePoint>(id & 0x3FFFFFFFFFFFFFFF);
  s.end = s.begin + 1;
  return s;
}

std::string batch_frame(const std::vector<Span>& spans) {
  return frame(trace::wire::FrameType::kSpanBatch, span_batch_payload(spans));
}

/// Send whole streams over fresh connections, half-close, wait for the
/// daemon's ack, and return the collected trace grouped by tracer name.
std::map<std::string, std::vector<Span>> collect_streams(
    const Endpoint& ep, const std::vector<std::pair<std::string, std::string>>& streams) {
  RunningCollector collector(ep);
  std::vector<Socket> socks;
  for (const auto& [tracer, bytes] : streams) {
    socks.push_back(try_connect(ep, 1000));
    EXPECT_TRUE(socks.back().valid());
    EXPECT_TRUE(send_all(socks.back(), remap_stream_head(tracer) + bytes));
  }
  for (Socket& sock : socks) {
    sock.shutdown_write();
    (void)read_to_eof(sock);
  }
  collector.stop();
  collector.server.flush();
  std::map<std::string, std::vector<Span>> by_tracer;
  for (const Span& sp : collector.server.take_trace()) by_tracer[sp.tracer.str()].push_back(sp);
  return by_tracer;
}

/// Server id of the span whose producer id was `producer_id`.
SpanId server_id_of(const std::vector<Span>& spans, SpanId producer_id) {
  for (const Span& sp : spans)
    if (sp.begin == remap_span(producer_id, kNoSpan).begin) return sp.id;
  return kNoSpan;
}

TEST(CollectorRemap, IdenticalProducerIdsOnTwoConnectionsGetDisjointServerIds) {
  // Both producers count 1..3000 (three id blocks), each span the child
  // of the one before.
  constexpr SpanId kSpans = 3000;
  std::vector<Span> spans;
  for (SpanId id = 1; id <= kSpans; ++id) spans.push_back(remap_span(id, id - 1));
  const auto by_tracer = collect_streams(
      uds_endpoint("remap_twin"), {{"twin_a", batch_frame(spans)}, {"twin_b", batch_frame(spans)}});
  ASSERT_EQ(by_tracer.size(), 2u);

  std::vector<SpanId> all_ids;
  for (const auto& [tracer, got] : by_tracer) {
    ASSERT_EQ(got.size(), kSpans) << tracer;
    for (const Span& sp : got) all_ids.push_back(sp.id);
    // Equal producer ids stay equal: each parent is its predecessor's id.
    std::map<TimePoint, const Span*> by_begin;
    for (const Span& sp : got) by_begin[sp.begin] = &sp;
    for (SpanId id = 2; id <= kSpans; ++id) {
      const Span* child = by_begin.at(remap_span(id, kNoSpan).begin);
      const Span* parent = by_begin.at(remap_span(id - 1, kNoSpan).begin);
      ASSERT_EQ(child->parent, parent->id) << tracer << " producer id " << id;
    }
    EXPECT_EQ(by_begin.at(remap_span(1, kNoSpan).begin)->parent, kNoSpan);
  }
  std::sort(all_ids.begin(), all_ids.end());
  EXPECT_NE(all_ids.front(), kNoSpan);
  EXPECT_TRUE(std::adjacent_find(all_ids.begin(), all_ids.end()) == all_ids.end())
      << "two connections' remapped ids collided";
}

TEST(CollectorRemap, ChildSentBeforeItsParentResolvesToTheParentsLaterId) {
  // Children publish before parents: the child's forward reference lands
  // in a block the parent's own frame arrives for only later.
  const std::string bytes = batch_frame({remap_span(2, 5000), remap_span(3, 2)}) +
                            batch_frame({remap_span(5000, 9000)}) +
                            batch_frame({remap_span(9000, kNoSpan)});
  const auto by_tracer = collect_streams(uds_endpoint("remap_fwd"), {{"forward", bytes}});
  const std::vector<Span>& got = by_tracer.at("forward");
  ASSERT_EQ(got.size(), 4u);
  const SpanId parent = server_id_of(got, 5000);
  const SpanId grandparent = server_id_of(got, 9000);
  ASSERT_NE(parent, kNoSpan);
  ASSERT_NE(grandparent, kNoSpan);
  EXPECT_NE(parent, grandparent);
  const auto parent_of = [&got](SpanId producer_id) {
    for (const Span& sp : got)
      if (sp.begin == remap_span(producer_id, kNoSpan).begin) return sp.parent;
    return kNoSpan;
  };
  EXPECT_EQ(parent_of(2), parent);
  EXPECT_EQ(parent_of(3), server_id_of(got, 2));
  EXPECT_EQ(parent_of(5000), grandparent);
}

TEST(CollectorRemap, LaunchExecPairsShareACorrelationIdOnlyWithinAConnection) {
  // Each producer sends two launch/exec pairs under correlation ids 9 and
  // 2000 (two correlation blocks).
  const std::string bytes =
      batch_frame({remap_span(1, kNoSpan, 9), remap_span(2, kNoSpan, 2000)}) +
      batch_frame({remap_span(3, kNoSpan, 9), remap_span(4, kNoSpan, 2000)});
  const auto by_tracer = collect_streams(uds_endpoint("remap_corr"),
                                         {{"corr_a", bytes}, {"corr_b", bytes}});
  std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> pairs;
  for (const auto& [tracer, got] : by_tracer) {
    ASSERT_EQ(got.size(), 4u) << tracer;
    std::map<TimePoint, std::uint64_t> corr;
    for (const Span& sp : got) corr[sp.begin] = sp.correlation_id;
    const std::uint64_t launch9 = corr.at(remap_span(1, kNoSpan).begin);
    const std::uint64_t launch2000 = corr.at(remap_span(2, kNoSpan).begin);
    EXPECT_NE(launch9, 0u);
    EXPECT_EQ(corr.at(remap_span(3, kNoSpan).begin), launch9);
    EXPECT_EQ(corr.at(remap_span(4, kNoSpan).begin), launch2000);
    EXPECT_NE(launch9, launch2000);
    pairs[tracer] = {launch9, launch2000};
  }
  ASSERT_EQ(pairs.size(), 2u);
  const auto& [a9, a2000] = pairs.at("corr_a");
  const auto& [b9, b2000] = pairs.at("corr_b");
  EXPECT_NE(a9, b9);
  EXPECT_NE(a9, b2000);
  EXPECT_NE(a2000, b9);
  EXPECT_NE(a2000, b2000);
}

TEST(CollectorRemap, SparseIdsStayUniqueIsolatedAndCostOneEntryEach) {
  const SpanId kSparse[] = {1, SpanId{1} << 40, (SpanId{1} << 63) - 1};
  const std::vector<Span> spans = {remap_span(kSparse[0], kSparse[2]),
                                   remap_span(kSparse[1], kSparse[0]),
                                   remap_span(kSparse[2], kNoSpan)};
  const Endpoint ep = uds_endpoint("remap_sparse");
  RunningCollector collector(ep);
  Socket a = try_connect(ep, 1000);
  Socket b = try_connect(ep, 1000);
  ASSERT_TRUE(a.valid());
  ASSERT_TRUE(b.valid());
  ASSERT_TRUE(send_all(a, remap_stream_head("sparse_a") + batch_frame(spans)));
  ASSERT_TRUE(send_all(b, remap_stream_head("sparse_b") + batch_frame(spans)));
  ASSERT_TRUE(wait_until([&] { return collector.service.stats().spans_ingested == 6; }));
  // Three distinct producer blocks per connection, one entry each.
  EXPECT_EQ(collector.service.stats().remap_blocks, 6u);
  a.shutdown_write();
  b.shutdown_write();
  (void)read_to_eof(a);
  (void)read_to_eof(b);
  collector.stop();
  EXPECT_EQ(collector.service.stats().remap_blocks, 0u) << "closed connections hold no remap";

  collector.server.flush();
  std::map<std::string, std::vector<Span>> by_tracer;
  std::vector<SpanId> all_ids;
  for (const Span& sp : collector.server.take_trace()) {
    by_tracer[sp.tracer.str()].push_back(sp);
    all_ids.push_back(sp.id);
  }
  ASSERT_EQ(all_ids.size(), 6u);
  std::sort(all_ids.begin(), all_ids.end());
  EXPECT_TRUE(std::adjacent_find(all_ids.begin(), all_ids.end()) == all_ids.end());
  for (const auto& [tracer, got] : by_tracer) {
    ASSERT_EQ(got.size(), 3u) << tracer;
    // Parents resolve inside the connection's own three ids.
    for (const SpanId producer_id : {kSparse[0], kSparse[1]}) {
      const SpanId parent_producer = producer_id == kSparse[0] ? kSparse[2] : kSparse[0];
      for (const Span& sp : got) {
        if (sp.begin != remap_span(producer_id, kNoSpan).begin) continue;
        EXPECT_EQ(sp.parent, server_id_of(got, parent_producer)) << tracer;
      }
    }
  }
}

/// Counts and discards spans, handing out ids from plain counters: a sink
/// for the million-span remap bound that holds no spans.
class CountingSink final : public trace::SpanSink {
 public:
  SpanId next_span_id() noexcept override { return next_span_.fetch_add(1); }
  std::uint64_t next_correlation_id() noexcept override { return next_corr_.fetch_add(1); }
  SpanId reserve_span_block() noexcept override {
    return next_span_.fetch_add(trace::kIdBlock);
  }
  std::uint64_t reserve_correlation_block() noexcept override {
    return next_corr_.fetch_add(trace::kIdBlock);
  }
  void publish(Span) override { published.fetch_add(1); }

  std::atomic<std::uint64_t> published{0};

 private:
  std::atomic<SpanId> next_span_{1};
  std::atomic<std::uint64_t> next_corr_{1};
};

TEST(CollectorRemap, MillionDenseSpansHoldOneRemapEntryPerIdBlock) {
  constexpr SpanId kSpans = 1'000'000;
  constexpr SpanId kPerFrame = 4096;
  constexpr std::uint64_t kBound = (kSpans + trace::kIdBlock - 1) / trace::kIdBlock + 2;

  CountingSink sink;
  const Endpoint ep = uds_endpoint("remap_dense");
  CollectorService service(ep, sink);
  std::thread run([&service] { service.run(); });

  Socket producer = try_connect(ep, 1000);
  ASSERT_TRUE(producer.valid());
  ASSERT_TRUE(send_all(producer, remap_stream_head("dense")));
  std::vector<Span> spans;
  for (SpanId first = 1; first <= kSpans; first += kPerFrame) {
    spans.clear();
    for (SpanId id = first; id < first + kPerFrame && id <= kSpans; ++id)
      spans.push_back(remap_span(id, id - 1));
    ASSERT_TRUE(send_all(producer, batch_frame(spans)));
  }
  // Still connected: the remap is live and must be one entry per block.
  ASSERT_TRUE(wait_until([&] { return service.stats().spans_ingested == kSpans; }, 30000));
  const std::uint64_t blocks = service.stats().remap_blocks;
  EXPECT_LE(blocks, kBound);
  EXPECT_GE(blocks, kSpans / trace::kIdBlock);
  EXPECT_EQ(sink.published.load(), kSpans);

  producer.shutdown_write();
  (void)read_to_eof(producer);
  service.stop();
  run.join();
  EXPECT_EQ(service.stats().remap_blocks, 0u);
}

TEST(CollectorRemap, InProcessTracerNeverCollidesWithRemappedIds) {
  // A local Tracer and a remote producer publish into one sharded server
  // at the same time; every span id and every correlation id in the
  // merged trace must be unique.
  constexpr std::size_t kSpansEach = 3000;
  const Endpoint ep = uds_endpoint("remap_local");
  RunningCollector collector(ep);
  std::thread local([&collector] {
    trace::Tracer tracer(collector.server, StrId("local_tracer"), trace::kKernelLevel);
    for (std::size_t i = 0; i < kSpansEach; ++i) {
      const SpanId id = tracer.start_span(StrId("local_op"), static_cast<TimePoint>(i));
      if (i % 3 == 0) tracer.set_correlation(id, collector.server.next_correlation_id());
      tracer.finish_span(id, static_cast<TimePoint>(i + 1));
    }
  });
  {
    trace::RemoteSinkOptions opts;
    opts.batch_spans = 128;
    trace::RemoteSink sink(ep, opts);
    publish_fleet_member(sink, 0, kSpansEach);
    sink.close();
    EXPECT_EQ(sink.spans_sent(), kSpansEach);
  }
  local.join();
  collector.stop();
  collector.server.flush();

  const std::vector<Span> spans = collector.server.take_trace();
  ASSERT_EQ(spans.size(), 2 * kSpansEach);
  std::vector<SpanId> ids;
  std::vector<std::uint64_t> corrs;
  for (const Span& sp : spans) {
    ids.push_back(sp.id);
    if (sp.correlation_id != 0) corrs.push_back(sp.correlation_id);
  }
  std::sort(ids.begin(), ids.end());
  std::sort(corrs.begin(), corrs.end());
  EXPECT_NE(ids.front(), kNoSpan);
  EXPECT_TRUE(std::adjacent_find(ids.begin(), ids.end()) == ids.end())
      << "a remapped id collided with a local tracer's id";
  EXPECT_EQ(corrs.size(), 2 * ((kSpansEach + 2) / 3));
  EXPECT_TRUE(std::adjacent_find(corrs.begin(), corrs.end()) == corrs.end())
      << "a remapped correlation id collided with a local one";
}

// --- prompt stop and idle-sink accounting -----------------------------------

TEST(CollectorLifecycle, StopWakesAnIdleLoopPromptly) {
  CollectorOptions copts;
  copts.poll_timeout_ms = 10000;
  trace::ShardedTraceServer server(1, trace::PublishMode::kSync);
  CollectorService service(uds_endpoint("col_stop"), server, copts);
  std::thread run([&service] { service.run(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));  // parked in poll
  const auto t0 = std::chrono::steady_clock::now();
  service.stop();
  run.join();
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::milliseconds(500));
}

TEST(RemoteSinkAccounting, IdleSinkCreditsSentAfterTheSocketDrains) {
  // A peer that stops reading saturates the socket, so the last batch
  // write of the busy period leaves bytes pending in the FrameSink. Once
  // the peer drains, the idle sink must push and credit them on its own:
  // the accounting identity holds with no close().
  const Endpoint ep = uds_endpoint("rs_credit");
  Listener listener(ep);
  trace::RemoteSinkOptions opts;
  opts.heartbeat_interval_ms = 0;  // nothing else would flush
  trace::RemoteSink sink(ep, opts);
  publish_fleet_member(sink, 0, 20000);
  sink.flush();
  Socket peer = accept_within(listener);  // the sink connects on first data
  ASSERT_TRUE(peer.valid());
  ASSERT_TRUE(wait_until([&] { return sink.outbox_spans() == 0; }));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));  // sender goes idle

  std::atomic<bool> reading{true};
  std::thread drain([&] {
    char buf[64 * 1024];
    while (reading.load()) {
      std::size_t n = 0;
      if (peer.read_some(buf, sizeof buf, n) == IoResult::kWouldBlock) peer.wait_readable(10);
    }
  });
  const auto balanced = [&] {
    return sink.spans_published() ==
           sink.spans_sent() + sink.spans_dropped() + sink.spans_sampled_dropped();
  };
  EXPECT_TRUE(wait_until(balanced, 2000))
      << "published " << sink.spans_published() << " sent " << sink.spans_sent()
      << " dropped " << sink.spans_dropped();
  EXPECT_GT(sink.spans_sent(), 0u);
  reading.store(false);
  drain.join();
  peer.close();
  sink.close();
  EXPECT_TRUE(balanced());
}

}  // namespace
}  // namespace xsp::net
