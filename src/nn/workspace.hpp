#ifndef XFC_NN_WORKSPACE_HPP
#define XFC_NN_WORKSPACE_HPP

/// \file workspace.hpp
/// Per-thread scratch-buffer arena for the NN and codec hot paths.
///
/// Conv halo bands, channels-last gradient copies, layer activations
/// and per-tile decode payloads are needed for microseconds at a time but
/// allocated on every call; that malloc+zero traffic dominated small-batch
/// NN profiles and the archive's per-tile decode setup. The arena hands out slab
/// positions by acquire order: after a rewind, the i-th acquire returns
/// the same (grown-to-fit) slab as last time, so steady-state training
/// loops and tile-decode loops perform zero heap allocations.
///
/// Access pattern (stack discipline, enforced by ScratchScope):
///   Workspace& ws = tls_workspace();
///   ScratchScope scope(ws);          // rewinds on scope exit
///   float* buf = ws.acquire(n);      // valid until scope exit
///
/// Each thread owns its arena (tls_workspace), so pool workers never
/// contend; nested scopes (GraphExec -> conv backward -> conv2d_direct) stack
/// cleanly.

#include <cstddef>
#include <cstdint>
#include <vector>

namespace xfc::nn {

class Workspace {
 public:
  /// Scratch buffer of >= n bytes (aligned for any scalar type: every
  /// acquire starts at a fresh slab's allocation). Contents are undefined.
  /// Valid until the enclosing ScratchScope exits.
  std::uint8_t* acquire_bytes(std::size_t n) {
    if (cursor_ == slabs_.size()) slabs_.emplace_back();
    std::vector<std::uint8_t>& slab = slabs_[cursor_++];
    if (slab.size() < n) slab.resize(n);
    return slab.data();
  }

  /// Typed scratch of >= n elements of trivially-destructible T.
  template <class T>
  T* acquire_as(std::size_t n) {
    return reinterpret_cast<T*>(acquire_bytes(n * sizeof(T)));
  }

  /// Scratch buffer of >= n floats (the original NN-path interface).
  float* acquire(std::size_t n) { return acquire_as<float>(n); }

  std::size_t mark() const { return cursor_; }
  void rewind(std::size_t m) { cursor_ = m; }

  /// Total floats currently reserved across all slabs (diagnostics).
  std::size_t floats_reserved() const {
    return bytes_reserved() / sizeof(float);
  }

  /// Total bytes currently reserved across all slabs (diagnostics).
  std::size_t bytes_reserved() const {
    std::size_t total = 0;
    for (const auto& s : slabs_) total += s.size();
    return total;
  }

  /// Frees every slab (tests / memory-pressure handling).
  void clear() {
    slabs_.clear();
    cursor_ = 0;
  }

 private:
  std::vector<std::vector<std::uint8_t>> slabs_;
  std::size_t cursor_ = 0;
};

/// RAII rewind guard; see file comment for the usage pattern.
class ScratchScope {
 public:
  explicit ScratchScope(Workspace& ws) : ws_(ws), mark_(ws.mark()) {}
  ~ScratchScope() { ws_.rewind(mark_); }
  ScratchScope(const ScratchScope&) = delete;
  ScratchScope& operator=(const ScratchScope&) = delete;

 private:
  Workspace& ws_;
  std::size_t mark_;
};

/// The calling thread's arena.
Workspace& tls_workspace();

}  // namespace xfc::nn

#endif  // XFC_NN_WORKSPACE_HPP
