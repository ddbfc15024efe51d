#include "xsp/trace/trace_server.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

namespace xsp::trace {
namespace {

Span make_span(SpanId id, TimePoint begin, TimePoint end) {
  Span s;
  s.id = id;
  s.begin = begin;
  s.end = end;
  return s;
}

TEST(TraceServer, SyncPublishAggregates) {
  TraceServer server(PublishMode::kSync);
  server.publish(make_span(server.next_span_id(), 0, 10));
  server.publish(make_span(server.next_span_id(), 10, 20));
  EXPECT_EQ(server.span_count(), 2u);
}

TEST(TraceServer, AsyncPublishAggregatesAfterFlush) {
  TraceServer server(PublishMode::kAsync);
  for (int i = 0; i < 100; ++i) {
    server.publish(make_span(server.next_span_id(), i, i + 1));
  }
  server.flush();
  EXPECT_EQ(server.span_count(), 100u);
}

TEST(TraceServer, IdsAreUniqueAndNonZero) {
  TraceServer server(PublishMode::kSync);
  std::vector<SpanId> ids;
  for (int i = 0; i < 1000; ++i) ids.push_back(server.next_span_id());
  std::sort(ids.begin(), ids.end());
  EXPECT_NE(ids.front(), kNoSpan);
  EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end());
}

TEST(TraceServer, CorrelationIdsAreUnique) {
  TraceServer server(PublishMode::kSync);
  const auto a = server.next_correlation_id();
  const auto b = server.next_correlation_id();
  EXPECT_NE(a, b);
}

TEST(TraceServer, TakeTraceDrainsAndResets) {
  TraceServer server(PublishMode::kSync);
  server.publish(make_span(server.next_span_id(), 0, 5));
  auto trace = server.take_trace();
  EXPECT_EQ(trace.size(), 1u);
  EXPECT_EQ(server.span_count(), 0u);
}

TEST(TraceServer, ConcurrentPublishersLoseNothing) {
  // Multiple tracers publish concurrently (CPU + GPU tracers coexist);
  // the server must aggregate every span exactly once.
  TraceServer server(PublishMode::kAsync);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 500;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&server] {
      for (int i = 0; i < kPerThread; ++i) {
        Span s;
        s.id = server.next_span_id();
        server.publish(std::move(s));
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(server.span_count(), static_cast<std::size_t>(kThreads * kPerThread));
}

TEST(TraceServer, DroppedAnnotationsAggregateAtAggregationTime) {
  TraceServer server(PublishMode::kSync);
  EXPECT_EQ(server.dropped_annotation_count(), 0u);
  Span a = make_span(server.next_span_id(), 0, 10);
  a.dropped_annotations = 2;
  Span b = make_span(server.next_span_id(), 10, 20);
  b.dropped_annotations = 5;
  server.publish(std::move(a));
  server.publish(std::move(b));
  server.publish(make_span(server.next_span_id(), 20, 30));  // lossless span
  EXPECT_EQ(server.dropped_annotation_count(), 7u);
  // Taking the trace starts the next run's count from zero.
  (void)server.take_batches();
  EXPECT_EQ(server.dropped_annotation_count(), 0u);
}

TEST(TraceServer, IdStripesProduceDisjointIds) {
  // Two striped servers (shard 0 and 1 of 2) must never hand out the same
  // id, even across many blocks.
  TraceServer even(PublishMode::kSync, IdStripe{0, 2});
  TraceServer odd(PublishMode::kSync, IdStripe{1, 2});
  std::vector<SpanId> ids;
  for (int i = 0; i < 5000; ++i) {
    ids.push_back(even.next_span_id());
    ids.push_back(odd.next_span_id());
  }
  std::sort(ids.begin(), ids.end());
  EXPECT_NE(ids.front(), kNoSpan);
  EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end());
}

TEST(TraceServer, ReservedBlocksNeverOverlapThreadIds) {
  // reserve_span_block() and next_span_id()'s thread-local refill draw
  // from one block sequence: a whole reserved block shares no id with
  // ids handed out one at a time, on either stripe of a pair.
  TraceServer even(PublishMode::kSync, IdStripe{0, 2});
  TraceServer odd(PublishMode::kSync, IdStripe{1, 2});
  std::vector<SpanId> ids;
  for (int round = 0; round < 4; ++round) {
    for (TraceServer* server : {&even, &odd}) {
      for (int i = 0; i < 1500; ++i) ids.push_back(server->next_span_id());
      const SpanId first = server->reserve_span_block();
      for (SpanId id = first; id < first + kIdBlock; ++id) ids.push_back(id);
    }
  }
  std::sort(ids.begin(), ids.end());
  EXPECT_NE(ids.front(), kNoSpan);
  EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end());

  TraceServer server(PublishMode::kSync);
  const std::uint64_t single = server.next_correlation_id();
  const std::uint64_t block = server.reserve_correlation_block();
  EXPECT_GT(block, single);
  EXPECT_EQ(server.next_correlation_id(), block + kIdBlock);
}

TEST(TraceServer, AsyncCollectorDeliversATrickleWithoutFlush) {
  // Ten spans never fill a batch; the collector thread must still take
  // the partial batch once a wait passes with nothing sealed.
  TraceServer server(PublishMode::kAsync);
  std::atomic<std::size_t> seen{0};
  server.add_drain_subscriber([&seen](const SpanBatches& batches) {
    for (const auto& batch : batches) seen.fetch_add(batch.size());
  });
  for (int i = 0; i < 10; ++i) server.publish(make_span(server.next_span_id(), i, i + 1));
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::milliseconds(200);
  while (seen.load() < 10 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(seen.load(), 10u);
}

TEST(TraceServer, DestructionWithQueuedSpansIsClean) {
  // No hang or crash when a server with pending async work is destroyed.
  auto server = std::make_unique<TraceServer>(PublishMode::kAsync);
  for (int i = 0; i < 10; ++i) {
    Span s;
    s.id = server->next_span_id();
    server->publish(std::move(s));
  }
  server.reset();
  SUCCEED();
}

}  // namespace
}  // namespace xsp::trace
