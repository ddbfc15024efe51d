// The traced run's span recorder. It lives in the benchmark, not in xsp:
// xsp's own Tracer/TraceServer are under test and must not measure
// themselves.
//
// A Scope wrapped around a call into one layer records name, start, end,
// the enclosing scope on the same thread (parent) and the id of the
// benchmark operation it serves (a profile, a span, a burst). Per-name
// totals and self time (duration minus the time child scopes cover) are
// kept exactly for every scope; the span records themselves are kept in
// memory up to a per-thread cap and written out once, at the end.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace xspbench {

class Recorder {
 public:
  using NameId = std::uint32_t;

  /// Stored span records per thread; scopes past the cap still count in
  /// the totals.
  static constexpr std::size_t kMaxRecordsPerThread = 100'000;

  struct Totals {
    std::string name;
    std::uint64_t count = 0;
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
  };

  Recorder();
  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;
  ~Recorder();

  /// Register a scope name ("layer.call"); do it before timing starts.
  NameId name(std::string_view name);

  class Scope {
   public:
    /// A null recorder makes the scope a no-op (the untraced pass).
    Scope(Recorder* recorder, NameId name, std::uint64_t op);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Recorder* recorder_;
  };

  /// Per-name totals over every thread. Call once recording threads are
  /// idle.
  [[nodiscard]] std::vector<Totals> totals() const;

  /// Self time summed per layer (the name part before the first '.').
  [[nodiscard]] std::vector<Totals> layer_totals() const;

  [[nodiscard]] std::uint64_t records_kept() const;
  [[nodiscard]] std::uint64_t records_over_cap() const;

  /// Write every kept record as one JSON object per line.
  bool write_jsonl(const std::string& path) const;

 private:
  struct ThreadState;
  ThreadState& local();

  const std::uint64_t uid_;  ///< process-unique; keys the thread-local cache
  mutable std::mutex mu_;
  std::vector<std::string> names_;
  std::vector<std::unique_ptr<ThreadState>> threads_;
};

}  // namespace xspbench
