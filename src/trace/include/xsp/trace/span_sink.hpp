// SpanSink: the minimal interface a tracer needs from a span collector.
//
// The paper's tracers only ever do three things against the tracing server
// (Section III-A): obtain ids and publish completed spans. Everything else
// — aggregation, flushing, trace hand-off — is a consumer-side concern.
// Splitting that producer surface out lets Tracer/ScopedSpan publish
// through either a single TraceServer or a ShardedTraceServer (N servers
// behind one selector) without caring which, and keeps the hot publish
// call as one virtual dispatch into a `final` implementation the compiler
// can devirtualize at concrete call sites.
//
// A sink also hands out whole blocks of kIdBlock consecutive ids: the
// collector maps each remote producer's id blocks onto reserved ones, one
// reservation per 1024 ids instead of one hash insert per id.
//
// Deliberately NOT part of this surface: producer-slot lifecycle. A
// publishing thread needs no attach/detach hook — sink implementations
// key per-thread state on process-unique thread and server uids, register
// it lazily on first publish, and reclaim it through a TLS exit hook that
// is weak against the sink dying first (see TraceServer "Producer-slot
// lifecycle"). Producers stay fire-and-forget.
#pragma once

#include <cstdint>

#include "xsp/trace/span.hpp"

namespace xsp::trace {

/// Ids per reserved block (reserve_span_block / reserve_correlation_block).
inline constexpr std::uint64_t kIdBlock = 1024;

/// Producer-facing surface of a span collector.
class SpanSink {
 public:
  virtual ~SpanSink() = default;

  /// Allocate a fresh sink-unique span id (never kNoSpan).
  virtual SpanId next_span_id() noexcept = 0;

  /// Allocate a fresh correlation id for an async launch/execution pair.
  virtual std::uint64_t next_correlation_id() noexcept = 0;

  /// Reserve kIdBlock consecutive fresh span ids and return the first:
  /// [first, first + kIdBlock) never overlaps any other id this sink hands
  /// out, and never contains kNoSpan.
  virtual SpanId reserve_span_block() noexcept = 0;

  /// Reserve kIdBlock consecutive fresh correlation ids (never 0) and
  /// return the first.
  virtual std::uint64_t reserve_correlation_block() noexcept = 0;

  /// Publish one completed span. Thread-safe.
  virtual void publish(Span span) = 0;
};

}  // namespace xsp::trace
