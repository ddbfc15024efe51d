#include "recorder.hpp"

#include <atomic>
#include <cstdio>
#include <map>

#include "common.hpp"

namespace xspbench {

namespace {
std::atomic<std::uint64_t> g_next_recorder_uid{1};
}

struct Recorder::ThreadState {
  struct Frame {
    NameId name;
    std::uint64_t id;
    std::uint64_t parent;
    std::uint64_t op;
    std::int64_t start;
    std::int64_t child_ns;
  };
  struct Record {
    std::uint64_t id;
    std::uint64_t parent;
    std::uint64_t op;
    std::int64_t start;
    std::int64_t end;
    NameId name;
  };
  struct Agg {
    std::uint64_t count = 0;
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
  };

  std::uint64_t index = 0;
  std::uint64_t next_seq = 1;
  std::vector<Frame> stack;
  std::vector<Record> records;
  std::vector<Agg> aggs;
  std::uint64_t over_cap = 0;
};

namespace {
// Per-thread cache of the state owned by the recorder with this uid.
thread_local std::uint64_t tls_uid = 0;
thread_local void* tls_state = nullptr;
}  // namespace

Recorder::Recorder() : uid_(g_next_recorder_uid.fetch_add(1)) {}

Recorder::~Recorder() = default;

Recorder::NameId Recorder::name(std::string_view name) {
  std::lock_guard lk(mu_);
  for (NameId i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return i;
  }
  names_.emplace_back(name);
  return static_cast<NameId>(names_.size() - 1);
}

Recorder::ThreadState& Recorder::local() {
  // Keyed by uid, not address: a later recorder at a reused address never
  // inherits a dead recorder's thread state.
  if (tls_uid == uid_) return *static_cast<ThreadState*>(tls_state);
  auto state = std::make_unique<ThreadState>();
  ThreadState* raw = state.get();
  {
    std::lock_guard lk(mu_);
    raw->index = threads_.size();
    threads_.push_back(std::move(state));
  }
  tls_uid = uid_;
  tls_state = raw;
  return *raw;
}

Recorder::Scope::Scope(Recorder* recorder, NameId name, std::uint64_t op) : recorder_(recorder) {
  if (recorder_ == nullptr) return;
  ThreadState& t = recorder_->local();
  const std::uint64_t id = (t.index << 40) | t.next_seq++;
  const std::uint64_t parent = t.stack.empty() ? 0 : t.stack.back().id;
  t.stack.push_back({name, id, parent, op, now_ns(), 0});
}

Recorder::Scope::~Scope() {
  if (recorder_ == nullptr) return;
  const std::int64_t end = now_ns();
  ThreadState& t = recorder_->local();
  const ThreadState::Frame f = t.stack.back();
  t.stack.pop_back();
  const std::int64_t dur = end - f.start;
  if (!t.stack.empty()) t.stack.back().child_ns += dur;
  if (t.aggs.size() <= f.name) t.aggs.resize(f.name + 1);
  auto& agg = t.aggs[f.name];
  ++agg.count;
  agg.total_ns += dur;
  agg.self_ns += dur - f.child_ns;
  if (t.records.size() < kMaxRecordsPerThread) {
    t.records.push_back({f.id, f.parent, f.op, f.start, end, f.name});
  } else {
    ++t.over_cap;
  }
}

std::vector<Recorder::Totals> Recorder::totals() const {
  std::lock_guard lk(mu_);
  std::vector<Totals> out(names_.size());
  for (NameId i = 0; i < names_.size(); ++i) out[i].name = names_[i];
  for (const auto& t : threads_) {
    for (std::size_t i = 0; i < t->aggs.size(); ++i) {
      out[i].count += t->aggs[i].count;
      out[i].total_ns += t->aggs[i].total_ns;
      out[i].self_ns += t->aggs[i].self_ns;
    }
  }
  return out;
}

std::vector<Recorder::Totals> Recorder::layer_totals() const {
  std::map<std::string, Totals> by_layer;
  for (const Totals& t : totals()) {
    const std::string layer = t.name.substr(0, t.name.find('.'));
    Totals& l = by_layer[layer];
    l.name = layer;
    l.count += t.count;
    l.total_ns += t.total_ns;
    l.self_ns += t.self_ns;
  }
  std::vector<Totals> out;
  for (auto& [_, t] : by_layer) out.push_back(t);
  return out;
}

std::uint64_t Recorder::records_kept() const {
  std::lock_guard lk(mu_);
  std::uint64_t n = 0;
  for (const auto& t : threads_) n += t->records.size();
  return n;
}

std::uint64_t Recorder::records_over_cap() const {
  std::lock_guard lk(mu_);
  std::uint64_t n = 0;
  for (const auto& t : threads_) n += t->over_cap;
  return n;
}

bool Recorder::write_jsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard lk(mu_);
  for (const auto& t : threads_) {
    for (const auto& r : t->records) {
      std::fprintf(f,
                   "{\"name\":\"%s\",\"id\":%llu,\"parent\":%llu,\"op\":%llu,"
                   "\"thread\":%llu,\"start_ns\":%lld,\"end_ns\":%lld}\n",
                   names_[r.name].c_str(), static_cast<unsigned long long>(r.id),
                   static_cast<unsigned long long>(r.parent),
                   static_cast<unsigned long long>(r.op),
                   static_cast<unsigned long long>(t->index), static_cast<long long>(r.start),
                   static_cast<long long>(r.end));
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace xspbench
