#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

#include "bench.hpp"

namespace xfcbench {

namespace {

thread_local std::uint64_t t_parent = 0;

std::uint32_t thread_index() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t index = next.fetch_add(1);
  return index;
}

using Interval = std::pair<std::int64_t, std::int64_t>;

/// Total length of the union of `iv` (sorted in place).
std::int64_t union_length(std::vector<Interval>& iv) {
  std::sort(iv.begin(), iv.end());
  std::int64_t total = 0, cur_lo = 0, cur_hi = 0;
  bool open = false;
  for (const auto& [lo, hi] : iv) {
    if (!open || lo > cur_hi) {
      if (open) total += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    } else {
      cur_hi = std::max(cur_hi, hi);
    }
  }
  if (open) total += cur_hi - cur_lo;
  return total;
}

}  // namespace

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

void Tracer::record(const Span& s) {
  const std::lock_guard<std::mutex> lock(mutex_);
  ++recorded_;
  if (spans_.size() < kMaxSpans) spans_.push_back(s);
}

std::vector<Span> Tracer::snapshot() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::uint64_t Tracer::recorded() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return recorded_;
}

void Tracer::clear() {
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.clear();
  recorded_ = 0;
}

bool Tracer::write_jsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const Span& s : spans_)
    std::fprintf(f,
                 "{\"name\":\"%s\",\"id\":%llu,\"parent\":%llu,"
                 "\"start_ns\":%lld,\"end_ns\":%lld,\"thread\":%u}\n",
                 s.name, static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.thread);
  return std::fclose(f) == 0;
}

std::uint64_t Tracer::current_parent() {
  if (t_parent != 0) return t_parent;
  return instance().main_scope_.load(std::memory_order_relaxed);
}

Scope::Scope(const char* name, bool main_thread)
    : Scope(name, Tracer::current_parent()) {
  if (active_ && main_thread) {
    main_thread_ = true;
    saved_main_ = Tracer::instance().main_scope_.exchange(span_.id);
  }
}

Scope::Scope(const char* name, std::uint64_t parent) {
  Tracer& tracer = Tracer::instance();
  if (!tracer.on()) return;
  active_ = true;
  span_.name = name;
  span_.id = tracer.next_id();
  span_.parent = parent;
  span_.thread = thread_index();
  saved_thread_parent_ = t_parent;
  t_parent = span_.id;
  span_.start_ns = now_ns();
}

Scope::~Scope() {
  if (!active_) return;
  span_.end_ns = now_ns();
  t_parent = saved_thread_parent_;
  if (main_thread_) Tracer::instance().main_scope_.store(saved_main_);
  Tracer::instance().record(span_);
}

std::map<std::string, double> ledger_self_seconds(
    const std::vector<Span>& spans, const std::string& root_layer) {
  std::unordered_map<std::uint64_t, std::size_t> by_id;
  for (std::size_t i = 0; i < spans.size(); ++i) by_id[spans[i].id] = i;
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> children;
  std::vector<std::size_t> roots;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent != 0 && by_id.count(spans[i].parent) != 0)
      children[spans[i].parent].push_back(i);
    else
      roots.push_back(i);
  }

  std::map<std::string, std::int64_t> ns;
  // Iterative walk: (span index, layer name its self time is booked to).
  std::vector<std::pair<std::size_t, std::string>> stack;
  for (std::size_t r : roots) stack.emplace_back(r, root_layer);
  while (!stack.empty()) {
    const auto [idx, layer] = stack.back();
    stack.pop_back();
    const Span& s = spans[idx];
    const auto kit = children.find(s.id);
    if (kit == children.end()) {
      ns[layer] += s.end_ns - s.start_ns;
      continue;
    }
    std::map<std::string, std::vector<std::size_t>> groups;
    std::vector<Interval> all;
    for (std::size_t k : kit->second) {
      const Span& c = spans[k];
      const std::int64_t lo = std::max(c.start_ns, s.start_ns);
      const std::int64_t hi = std::min(c.end_ns, s.end_ns);
      if (hi <= lo) continue;
      all.emplace_back(lo, hi);
      groups[c.name].push_back(k);
    }
    ns[layer] += (s.end_ns - s.start_ns) - union_length(all);
    for (const auto& [name, members] : groups) {
      std::vector<Interval> iv;
      std::int64_t sum = 0;
      for (std::size_t k : members) {
        const std::int64_t lo = std::max(spans[k].start_ns, s.start_ns);
        const std::int64_t hi = std::min(spans[k].end_ns, s.end_ns);
        iv.emplace_back(lo, hi);
        sum += hi - lo;
      }
      const std::int64_t covered = union_length(iv);
      if (sum <= covered) {
        for (std::size_t k : members) stack.emplace_back(k, name);
      } else {
        ns[name] += covered;  // concurrent spans of one layer: count the wall
      }
    }
  }
  std::map<std::string, double> out;
  for (const auto& [name, v] : ns) out[name] = ns_to_s(v);
  return out;
}

double ledger_root_seconds(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, bool> ids;
  for (const Span& s : spans) ids[s.id] = true;
  std::int64_t total = 0;
  for (const Span& s : spans)
    if (s.parent == 0 || ids.count(s.parent) == 0)
      total += s.end_ns - s.start_ns;
  return ns_to_s(total);
}

void TracedSink::append(std::span<const std::uint8_t> data) {
  const Scope scope("io.write");
  inner_.append(data);
  bytes_ += data.size();
}

void TracedSink::sync() {
  const Scope scope("io.sync");
  inner_.sync();
}

void TracedSink::commit() {
  const Scope scope("io.sync");
  inner_.commit();
}

void TracedSource::read_at(std::size_t offset,
                           std::span<std::uint8_t> out) const {
  const Scope scope("io.read");
  inner_->read_at(offset, out);
  bytes_->fetch_add(out.size(), std::memory_order_relaxed);
}

}  // namespace xfcbench
