#include "support/fault.hpp"

#include <algorithm>
#include <chrono>
#include <string>
#include <thread>

#include "core/error.hpp"
#include "obs/metrics.hpp"

namespace xfc {
namespace {

/// SplitMix64 finalizer — the decision hash. Chosen over Rng because fault
/// decisions must be addressable by (seed, index) without materializing a
/// sequence: any call index hashes in O(1), concurrently.
std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

double to_unit(std::uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

}  // namespace

FaultInjector::FaultInjector(FaultPlan plan) : plan_(std::move(plan)) {
  std::sort(plan_.corrupt_offsets.begin(), plan_.corrupt_offsets.end());
  std::sort(plan_.fail_calls.begin(), plan_.fail_calls.end());
}

FaultCounters FaultInjector::counters() const {
  FaultCounters c;
  c.calls = calls_.load(std::memory_order_relaxed);
  c.injected_errors = injected_errors_.load(std::memory_order_relaxed);
  c.short_ops = short_ops_.load(std::memory_order_relaxed);
  c.bit_flips = bit_flips_.load(std::memory_order_relaxed);
  c.delays = delays_.load(std::memory_order_relaxed);
  return c;
}

std::uint64_t FaultInjector::mix(std::uint64_t a, std::uint64_t b) const {
  return splitmix(splitmix(plan_.seed ^ a) ^ b);
}

void FaultInjector::count_short() {
  short_ops_.fetch_add(1);
  obs::faults_injected_total().add();
}

void FaultInjector::count_error() {
  injected_errors_.fetch_add(1);
  obs::faults_injected_total().add();
}

void FaultInjector::count_flip() {
  bit_flips_.fetch_add(1);
  obs::faults_injected_total().add();
}

FaultInjector::Action FaultInjector::decide(std::uint64_t call) {
  if (std::binary_search(plan_.fail_calls.begin(), plan_.fail_calls.end(),
                         call))
    return Action::kError;
  const double u = to_unit(mix(0x11CA11u, call));
  double acc = plan_.error_rate;
  if (u < acc) return Action::kError;
  acc += plan_.short_rate;
  if (u < acc) return Action::kShort;
  acc += plan_.flip_rate;
  if (u < acc) return Action::kFlip;
  acc += plan_.delay_rate;
  if (u < acc) return Action::kDelay;
  return Action::kNone;
}

std::size_t FaultInjector::corrupt_in_range(
    std::uint64_t offset, std::span<std::uint8_t> bytes) const {
  if (plan_.corrupt_offsets.empty() || bytes.empty()) return 0;
  const auto begin = std::lower_bound(plan_.corrupt_offsets.begin(),
                                      plan_.corrupt_offsets.end(), offset);
  std::size_t damaged = 0;
  for (auto it = begin;
       it != plan_.corrupt_offsets.end() && *it < offset + bytes.size();
       ++it) {
    // Nonzero XOR mask: always changes the byte, same way every run.
    std::uint8_t mask = static_cast<std::uint8_t>(mix(0x0FF5E7u, *it));
    if (mask == 0) mask = 0xA5;
    bytes[*it - offset] ^= mask;
    ++damaged;
  }
  return damaged;
}

void FaultInjector::sleep_for_delay() {
  delays_.fetch_add(1);
  if (plan_.delay_us > 0)
    std::this_thread::sleep_for(std::chrono::microseconds(plan_.delay_us));
}

FaultyByteSource::FaultyByteSource(std::unique_ptr<ByteSource> inner,
                                   std::shared_ptr<FaultInjector> injector)
    : inner_(std::move(inner)), injector_(std::move(injector)) {
  expects(inner_ != nullptr && injector_ != nullptr,
          "FaultyByteSource: null inner source or injector");
}

void FaultyByteSource::read_at(std::size_t offset,
                               std::span<std::uint8_t> out) const {
  const std::uint64_t call = injector_->next_call();
  switch (injector_->decide(call)) {
    case FaultInjector::Action::kError:
      injector_->count_error();
      throw IoError("fault: injected read error (call " +
                    std::to_string(call) + ")");
    case FaultInjector::Action::kShort: {
      // A short read delivers a prefix, then fails — the caller must never
      // see the partial buffer as success.
      injector_->count_short();
      if (!out.empty())
        inner_->read_at(offset, out.subspan(0, out.size() / 2));
      throw IoError("fault: injected short read (call " +
                    std::to_string(call) + ")");
    }
    case FaultInjector::Action::kDelay:
      injector_->sleep_for_delay();
      break;
    case FaultInjector::Action::kFlip:
    case FaultInjector::Action::kNone:
      break;
  }
  inner_->read_at(offset, out);
  if (injector_->decide(call) == FaultInjector::Action::kFlip && !out.empty()) {
    injector_->count_flip();
    const std::uint64_t h = injector_->mix(0xF11Bu, call);
    out[h % out.size()] ^= static_cast<std::uint8_t>(1u << (h >> 40 & 7));
  }
  injector_->corrupt_in_range(offset, out);
}

FaultyByteSink::FaultyByteSink(ByteSink& inner,
                               std::shared_ptr<FaultInjector> injector)
    : inner_(inner), injector_(std::move(injector)) {
  expects(injector_ != nullptr, "FaultyByteSink: null injector");
}

void FaultyByteSink::maybe_fail_barrier(const char* what) {
  const std::uint64_t call = injector_->next_call();
  switch (injector_->decide(call)) {
    case FaultInjector::Action::kError:
    case FaultInjector::Action::kShort:
      // Both map to a failed barrier: there is no meaningful "short fsync".
      injector_->count_error();
      throw IoError("fault: injected " + std::string(what) + " failure (call " +
                    std::to_string(call) + ")");
    case FaultInjector::Action::kDelay:
      injector_->sleep_for_delay();
      break;
    case FaultInjector::Action::kFlip:
    case FaultInjector::Action::kNone:
      break;
  }
}

void FaultyByteSink::sync() {
  maybe_fail_barrier("sync");
  inner_.sync();
}

void FaultyByteSink::commit() {
  maybe_fail_barrier("commit");
  inner_.commit();
}

void FaultyByteSink::append(std::span<const std::uint8_t> data) {
  const std::uint64_t call = injector_->next_call();
  const FaultPlan& plan = injector_->plan();
  FaultInjector::Action action = injector_->decide(call);
  if (plan.fail_after_bytes != 0 && inner_.size() >= plan.fail_after_bytes)
    action = FaultInjector::Action::kShort;
  switch (action) {
    case FaultInjector::Action::kError:
      injector_->count_error();
      throw IoError("fault: injected write error (call " +
                    std::to_string(call) + ")");
    case FaultInjector::Action::kShort: {
      // Torn write: a prefix reaches the device, then the operation fails.
      injector_->count_short();
      if (!data.empty()) inner_.append(data.subspan(0, data.size() / 2));
      throw IoError("fault: injected torn write (call " +
                    std::to_string(call) + ")");
    }
    case FaultInjector::Action::kDelay:
      injector_->sleep_for_delay();
      break;
    case FaultInjector::Action::kFlip:
    case FaultInjector::Action::kNone:
      break;
  }
  const std::uint64_t base = inner_.size();
  const bool flip = action == FaultInjector::Action::kFlip && !data.empty();
  const bool targeted =
      !plan.corrupt_offsets.empty() &&
      std::lower_bound(plan.corrupt_offsets.begin(),
                       plan.corrupt_offsets.end(),
                       base) != plan.corrupt_offsets.end() &&
      *std::lower_bound(plan.corrupt_offsets.begin(),
                        plan.corrupt_offsets.end(), base) <
          base + data.size();
  if (!flip && !targeted) {
    inner_.append(data);
    return;
  }
  std::vector<std::uint8_t> copy(data.begin(), data.end());
  if (flip) {
    injector_->count_flip();
    const std::uint64_t h = injector_->mix(0xF11Bu, call);
    copy[h % copy.size()] ^= static_cast<std::uint8_t>(1u << (h >> 40 & 7));
  }
  injector_->corrupt_in_range(base, copy);
  inner_.append(copy);
}

}  // namespace xfc
