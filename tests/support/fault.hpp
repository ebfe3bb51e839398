#ifndef XFC_TESTS_SUPPORT_FAULT_HPP
#define XFC_TESTS_SUPPORT_FAULT_HPP

/// \file fault.hpp
/// Deterministic, seeded I/O fault injection for the chaos suite (a
/// test-only library; libxfc does not contain it). The wrappers decorate
/// the existing ByteSource/ByteSink interfaces (RandomAccessFile is covered
/// by wrapping FileSource, its ByteSource adapter), so an ArchiveReader or
/// ArchiveWriter runs against a faulty device without any format-code
/// changes.
///
/// Determinism contract: every fault decision is a pure function of
/// (seed, call index) or (seed, byte offset), never of wall-clock time or a
/// global RNG. Per-offset corruption is order-independent — the same byte
/// is flipped the same way no matter which thread reads it first — so a
/// multi-threaded sweep over one seed injects exactly the same damage every
/// run. Per-call faults (errors, short ops, delays) fire on the same call
/// *indices* every run; under concurrency the thread that draws a given
/// index may vary, which is precisely the scheduling nondeterminism a chaos
/// sweep wants to exercise while the fault budget stays fixed.

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "io/stream.hpp"

namespace xfc {

/// What to inject, and how often. Rates are probabilities in [0, 1]
/// evaluated per call from a hash of (seed, call index); they are checked
/// in the order error, short, flip, delay against one uniform draw, so the
/// sum is effectively capped at 1.
struct FaultPlan {
  std::uint64_t seed = 0;
  double error_rate = 0.0;  // throw IoError before touching the device
  double short_rate = 0.0;  // reads: fail mid-transfer; writes: torn write
  double flip_rate = 0.0;   // flip one bit of the transferred bytes
  double delay_rate = 0.0;  // sleep delay_us before the operation
  std::uint32_t delay_us = 0;

  /// Absolute byte offsets whose content is always corrupted in transit
  /// (reads: the returned byte; writes: the stored byte). The flipped bit
  /// pattern is a nonzero function of (seed, offset), so corruption is
  /// reproducible and order-independent.
  std::vector<std::uint64_t> corrupt_offsets;

  /// 0-based call indices that always throw IoError (exact-call triggers
  /// for regression tests; applied before the probabilistic draw).
  std::vector<std::uint64_t> fail_calls;

  /// Writes only: every append once the inner sink holds at least this many
  /// bytes is a torn write (a prefix lands, then IoError). 0 disables.
  /// Models running out of disk at a known point.
  std::uint64_t fail_after_bytes = 0;
};

/// Snapshot of what a FaultInjector actually did.
struct FaultCounters {
  std::uint64_t calls = 0;
  std::uint64_t injected_errors = 0;  // error_rate + fail_calls hits
  std::uint64_t short_ops = 0;        // short reads / torn writes
  std::uint64_t bit_flips = 0;        // per-call flips (not corrupt_offsets)
  std::uint64_t delays = 0;
};

/// Shared fault engine; one injector may sit behind several wrappers (e.g.
/// a source and a sink of the same rehearsal) and is thread-safe: the call
/// counter is atomic and decisions are pure functions of it.
class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan);

  const FaultPlan& plan() const { return plan_; }
  FaultCounters counters() const;

  /// Claims the next call index. Exposed for the wrappers.
  std::uint64_t next_call() { return calls_.fetch_add(1); }

  /// Per-call fault decision for the given claimed index. kNone means the
  /// operation proceeds untouched.
  enum class Action : std::uint8_t { kNone, kError, kShort, kFlip, kDelay };
  Action decide(std::uint64_t call);

  /// Applies per-offset corruption to bytes occupying [offset, offset+n).
  /// Returns how many bytes were damaged.
  std::size_t corrupt_in_range(std::uint64_t offset,
                               std::span<std::uint8_t> bytes) const;

  /// Deterministic helpers the wrappers share. The count_* trio also
  /// mirrors into the global metric registry (xfc_faults_injected_total),
  /// so chaos-test fault volume shows up on /metrics.
  std::uint64_t mix(std::uint64_t a, std::uint64_t b) const;
  void sleep_for_delay();
  void count_short();
  void count_error();
  void count_flip();

 private:
  FaultPlan plan_;
  std::atomic<std::uint64_t> calls_{0};
  std::atomic<std::uint64_t> injected_errors_{0};
  std::atomic<std::uint64_t> short_ops_{0};
  std::atomic<std::uint64_t> bit_flips_{0};
  std::atomic<std::uint64_t> delays_{0};
};

/// ByteSource decorator: reads pass through the inner source, then faults
/// are applied. Wrap a FileSource to inject against RandomAccessFile-backed
/// archives, or a MemorySource for fast in-process sweeps.
class FaultyByteSource final : public ByteSource {
 public:
  FaultyByteSource(std::unique_ptr<ByteSource> inner,
                   std::shared_ptr<FaultInjector> injector);

  std::size_t size() const override { return inner_->size(); }
  void read_at(std::size_t offset, std::span<std::uint8_t> out) const override;

 private:
  std::unique_ptr<ByteSource> inner_;
  std::shared_ptr<FaultInjector> injector_;
};

/// ByteSink decorator: torn writes append a prefix before throwing, bit
/// flips corrupt the stored bytes silently (the archive's CRCs are what
/// must catch them later). sync() and commit() claim a call index too, so
/// a crash-point sweep over call indices kills the durability barriers of
/// the epoch-commit protocol as well as the data writes: an injected sync
/// failure throws IoError *before* reaching the inner sink — the bytes are
/// written but their durability is unproven, exactly a power cut between
/// write-back and fsync completion.
class FaultyByteSink final : public ByteSink {
 public:
  FaultyByteSink(ByteSink& inner, std::shared_ptr<FaultInjector> injector);

  void append(std::span<const std::uint8_t> data) override;
  std::size_t size() const override { return inner_.size(); }
  void flush() override { inner_.flush(); }
  void sync() override;
  void commit() override;

 private:
  void maybe_fail_barrier(const char* what);

  ByteSink& inner_;
  std::shared_ptr<FaultInjector> injector_;
};

}  // namespace xfc

#endif  // XFC_TESTS_SUPPORT_FAULT_HPP
