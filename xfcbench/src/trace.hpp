#ifndef XFCBENCH_TRACE_HPP
#define XFCBENCH_TRACE_HPP

/// Spans recorded by the benchmark around its calls into libxfc, and the
/// per-layer ledger computed from them.
///
/// A span is (name, id, parent, start, end, thread). Spans are kept in
/// memory (capped; the overflow is counted) and written as JSON lines when
/// the run ends. Nothing here reaches into the library: every span wraps a
/// public call made by the benchmark, or a ByteSink/ByteSource the
/// benchmark hands to the archive code.
///
/// Parenting: a Scope opened on a thread becomes the parent of the spans
/// that thread opens next. Spans opened on a thread with no open Scope (a
/// pool worker running a tile-parallel decode on the benchmark's behalf)
/// attach to the innermost Scope the benchmark's main thread has open.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "io/stream.hpp"

namespace xfcbench {

struct Span {
  const char* name = "";  // string literal
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t thread = 0;
};

class Tracer {
 public:
  static Tracer& instance();

  bool on() const { return on_.load(std::memory_order_relaxed); }
  void set_on(bool on) { on_.store(on, std::memory_order_relaxed); }

  std::uint64_t next_id() { return next_id_.fetch_add(1) + 1; }
  void record(const Span& s);

  /// Spans recorded since the last clear(), in record order.
  std::vector<Span> snapshot() const;
  std::uint64_t recorded() const;  // including spans past the cap
  void clear();

  /// Writes every kept span as one JSON object per line; false on I/O
  /// failure.
  bool write_jsonl(const std::string& path) const;

 private:
  friend class Scope;
  /// Parent for a new span opened on the calling thread.
  static std::uint64_t current_parent();

  static constexpr std::size_t kMaxSpans = 400'000;

  std::atomic<bool> on_{false};
  std::atomic<std::uint64_t> next_id_{0};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::uint64_t recorded_ = 0;
  std::atomic<std::uint64_t> main_scope_{0};  // innermost main-thread Scope
};

/// RAII span. Inactive (records nothing) while the tracer is off.
/// `main_thread` marks scopes opened by the benchmark's own thread, which
/// orphan spans on pool workers attach to.
class Scope {
 public:
  explicit Scope(const char* name, bool main_thread = false);
  Scope(const char* name, std::uint64_t parent);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  std::uint64_t id() const { return span_.id; }

 private:
  Span span_;
  bool active_ = false;
  bool main_thread_ = false;
  std::uint64_t saved_thread_parent_ = 0;
  std::uint64_t saved_main_ = 0;
};

/// Per-layer self time, in seconds, from a span forest. A span's self time
/// is its duration minus the wall its children cover. Children of one name
/// that overlap in time (the same layer running on several threads) count
/// once, as the wall they cover together. The self time of root spans is
/// returned under `root_layer` — the end-to-end time no layer claims.
std::map<std::string, double> ledger_self_seconds(
    const std::vector<Span>& spans, const std::string& root_layer);

/// Sum of root-span durations in seconds (the end-to-end time a ledger
/// splits).
double ledger_root_seconds(const std::vector<Span>& spans);

// -- storage wrappers --------------------------------------------------------

/// ByteSink forwarding to another sink, counting bytes and recording
/// io.write (append) and io.sync (sync/commit) spans.
class TracedSink final : public xfc::ByteSink {
 public:
  explicit TracedSink(xfc::ByteSink& inner) : inner_(inner) {}
  void append(std::span<const std::uint8_t> data) override;
  std::size_t size() const override { return inner_.size(); }
  void flush() override { inner_.flush(); }
  void sync() override;
  void commit() override;

  std::uint64_t bytes() const { return bytes_; }

 private:
  xfc::ByteSink& inner_;
  std::uint64_t bytes_ = 0;
};

/// ByteSource forwarding to another source, counting bytes and recording
/// io.read spans. Thread-safe like the source it wraps.
class TracedSource final : public xfc::ByteSource {
 public:
  TracedSource(std::unique_ptr<xfc::ByteSource> inner,
               std::shared_ptr<std::atomic<std::uint64_t>> bytes)
      : inner_(std::move(inner)), bytes_(std::move(bytes)) {}
  std::size_t size() const override { return inner_->size(); }
  void read_at(std::size_t offset, std::span<std::uint8_t> out) const override;

 private:
  std::unique_ptr<xfc::ByteSource> inner_;
  std::shared_ptr<std::atomic<std::uint64_t>> bytes_;
};

}  // namespace xfcbench

#endif  // XFCBENCH_TRACE_HPP
