#include "common.hpp"

#include <sys/resource.h>
#include <time.h>

#include <chrono>
#include <cstring>
#include <thread>

namespace xspbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

CpuTimes process_cpu() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto ns = [](const timeval& tv) {
    return static_cast<std::int64_t>(tv.tv_sec) * 1'000'000'000 +
           static_cast<std::int64_t>(tv.tv_usec) * 1000;
  };
  return {ns(ru.ru_utime), ns(ru.ru_stime)};
}

namespace {
std::int64_t clock_ns(clockid_t id) {
  timespec ts{};
  if (clock_gettime(id, &ts) != 0) return 0;
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}
}  // namespace

std::int64_t thread_cpu_ns() { return clock_ns(CLOCK_THREAD_CPUTIME_ID); }

std::int64_t thread_cpu_ns(pthread_t thread) {
  clockid_t id{};
  if (pthread_getcpuclockid(thread, &id) != 0) return 0;
  return clock_ns(id);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

void sleep_until_ns(std::int64_t deadline_ns) {
  const std::int64_t now = now_ns();
  if (deadline_ns > now) std::this_thread::sleep_for(std::chrono::nanoseconds(deadline_ns - now));
}

std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ull;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBull;
  x ^= x >> 31;
  return x;
}

std::uint64_t fnv1a(const void* data, std::size_t n, std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

std::uint64_t SpanHasher::str_hash(xsp::common::StrId id) {
  const std::uint32_t raw = id.raw();
  if (raw >= cache_.size()) cache_.resize(static_cast<std::size_t>(raw) + 1024, 0);
  std::uint64_t& h = cache_[raw];
  if (h == 0) {
    const std::string_view s = id.view();
    h = fnv1a(s.data(), s.size()) | 1;  // never 0, so 0 can mean "unset"
  }
  return h;
}

std::uint64_t SpanHasher::operator()(const xsp::trace::Span& span) {
  std::uint64_t h = mix64(str_hash(span.name));
  const auto fold = [&h](std::uint64_t v) { h = mix64(h ^ v) + 0x9E3779B97F4A7C15ull; };
  fold(str_hash(span.tracer));
  fold(static_cast<std::uint64_t>(span.level) << 8 | static_cast<std::uint64_t>(span.kind));
  fold(static_cast<std::uint64_t>(span.begin));
  fold(static_cast<std::uint64_t>(span.end));
  for (const auto& e : span.tags) fold(str_hash(e.key) * 31 + str_hash(e.value));
  for (const auto& e : span.metrics) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &e.value, sizeof bits);
    fold(str_hash(e.key) ^ bits);
  }
  for (const auto& e : span.inline_tags) {
    const std::string_view v = e.value();
    fold(str_hash(e.key) ^ fnv1a(v.data(), v.size()));
  }
  return h;
}

}  // namespace xspbench
