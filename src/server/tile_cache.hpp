#ifndef XFC_SERVER_TILE_CACHE_HPP
#define XFC_SERVER_TILE_CACHE_HPP

/// \file tile_cache.hpp
/// Sharded, byte-budgeted LRU cache of decoded archive tiles — the memory
/// layer of the XFS serving subsystem. Region queries touch the same hot
/// tiles over and over; decoding a tile (entropy decode, CFNN cross-field
/// reconstruction) costs milliseconds while copying a cached tile costs
/// microseconds, so the cache is what turns the archive's random access
/// into sub-millisecond repeat reads.
///
/// Keys are (archive, field, tile ordinal). Entries are immutable decoded
/// tiles handed out as shared_ptr<const Field>, so eviction never
/// invalidates a response that is still being assembled.
///
/// Single-flight: when N threads miss on the same cold tile, exactly one
/// decodes it; the rest block on the in-flight entry and share the result.
/// Cross-field tiles resolve their anchor tiles back through the cache
/// (get() hands the reader a TileFetch bound to itself), so anchors are
/// decoded once and shared too. The anchor graph is validated acyclic at
/// add_archive() time, which is what guarantees the recursive gets — and
/// the cross-thread single-flight waits that follow anchor edges — always
/// terminate.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "archive/archive_reader.hpp"
#include "core/field.hpp"

namespace xfc::server {

struct TileCacheConfig {
  /// Target decoded-tile budget across all shards. A shard may transiently
  /// exceed its slice while a response to an oversized tile is in flight.
  std::size_t capacity_bytes = 256u << 20;
  /// Lock shard count, used as-is (0 is clamped to 1; any count works —
  /// keys map by hash modulo). More shards = less contention between
  /// unrelated tiles; 8 is plenty below ~32 threads.
  std::size_t shards = 8;
  /// Negative caching: when a tile's decode fails, the error is cached for
  /// this long so concurrent and follow-up requests get the typed error
  /// immediately instead of stampeding re-decodes of a poisoned tile. Each
  /// consecutive failure after expiry doubles the TTL up to the max
  /// (exponential backoff); a successful decode clears the penalty. 0
  /// disables negative caching (every request retries the decode).
  std::uint32_t negative_ttl_ms = 250;
  std::uint32_t negative_ttl_max_ms = 8000;
  /// Per-shard cap on cached failures (oldest evicted first), so a scan
  /// across a damaged archive cannot grow the error map without bound.
  std::size_t negative_entries_max = 1024;
};

/// One tile's access heat (see TileCache::field_heat). `hits`/`misses`
/// mirror the cache's global counters exactly — an access bumps the tile's
/// counter at the same sites the global one is bumped (in-flight waits and
/// negative hits are neither). `hot` is an epoch-decayed popularity score:
/// halved once per access epoch the tile sat untouched, +1 per touch — so
/// it ranks tiles by *recent* demand, which is what readahead and 2Q
/// admission decisions need, while hits/misses keep the all-time totals.
struct TileHeat {
  std::uint32_t hits = 0;
  std::uint32_t misses = 0;
  std::uint32_t hot = 0;
  std::uint32_t last_epoch = 0;  ///< access epoch of the last touch
};

/// Per-shard occupancy snapshot (see TileCache::shard_stats).
struct TileShardStats {
  std::uint64_t entries = 0;
  std::uint64_t bytes = 0;
  std::uint64_t budget_bytes = 0;
  std::uint64_t negative_entries = 0;
  /// Age of the LRU tail — the next eviction victim. 0 when empty. A large
  /// value means the shard is colder than its budget; near-zero under
  /// pressure means the shard is churning.
  double oldest_age_seconds = 0.0;
};

struct TileCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;          // == decodes started
  std::uint64_t evictions = 0;
  std::uint64_t inflight_waits = 0;  // blocked on another thread's decode
  std::uint64_t decode_errors = 0;
  std::uint64_t negative_hits = 0;   // served a cached failure, no decode
  std::uint64_t entries = 0;         // current
  std::uint64_t bytes = 0;           // current decoded-tile bytes
  std::uint64_t negative_entries = 0;  // current cached failures
};

class TileCache {
 public:
  explicit TileCache(TileCacheConfig config = {});
  ~TileCache();

  TileCache(const TileCache&) = delete;
  TileCache& operator=(const TileCache&) = delete;

  /// Registers an archive and returns the id used in keys. Validates the
  /// anchor graph (throws CorruptStream on cycles/dangles — see file
  /// comment). The reader is shared so it outlives any in-flight decode.
  std::uint64_t add_archive(std::shared_ptr<const ArchiveReader> reader);

  /// Swaps the reader registered under `archive_id` for a fresh one — the
  /// live-ingest path, after an append sealed a new epoch and the file was
  /// reopened. Field *indices* are stable across appends (the writer's
  /// seal substitutes replacements in place and adds new fields at the
  /// end), so cached tiles of unchanged fields stay valid and warm; the
  /// caller invalidates the fields the epoch actually replaced. Requests
  /// already holding the old reader finish against it (it is shared). Throws
  /// InvalidArgument for an unknown id, CorruptStream for a bad anchor
  /// graph.
  void update_archive(std::uint64_t archive_id,
                      std::shared_ptr<const ArchiveReader> reader);

  /// Drops every cached tile of one field — positive entries, cached
  /// failures (negative entries), and pending decodes alike (a leader whose
  /// pending entry was invalidated still answers its waiters but does not
  /// populate the cache). Returns the number of entries removed. Unknown
  /// keys are a no-op.
  std::size_t invalidate(std::uint64_t archive_id, std::size_t field_index);

  /// Per-tile variant of invalidate(); same positive+negative semantics.
  std::size_t invalidate_tile(std::uint64_t archive_id,
                              std::size_t field_index, std::size_t ordinal);

  /// Returns the decoded tile, decoding at most once per key no matter how
  /// many threads ask concurrently. Throws InvalidArgument for an unknown
  /// archive/field/ordinal. Decode failures propagate to every waiter and
  /// are negatively cached (config.negative_ttl_ms) so a poisoned tile
  /// costs one decode attempt per backoff window, not one per request.
  std::shared_ptr<const Field> get(std::uint64_t archive_id,
                                   const std::string& field,
                                   std::size_t ordinal);

  /// Hot-path overload: `field_index` is the position in the reader's
  /// fields() (resolve once per request, not once per tile — the name
  /// overload pays an O(fields) string scan on every call).
  std::shared_ptr<const Field> get(std::uint64_t archive_id,
                                   std::size_t field_index,
                                   std::size_t ordinal);

  /// Reader registered under `archive_id` (nullptr if unknown).
  std::shared_ptr<const ArchiveReader> archive(std::uint64_t archive_id) const;

  TileCacheStats stats() const;
  std::size_t capacity_bytes() const { return capacity_bytes_; }

  /// Per-tile access heat of one field, indexed by tile ordinal. Empty for
  /// unknown archive/field. Counters are relaxed atomics bumped on the
  /// cache hot path (no extra locking); concurrent snapshots are
  /// approximate only in that they may miss in-flight increments.
  std::vector<TileHeat> field_heat(std::uint64_t archive_id,
                                   std::size_t field_index) const;

  /// Current decay epoch. Advances automatically every ~65k cache accesses
  /// and manually via advance_access_epoch() (tests, policy experiments).
  std::uint32_t access_epoch() const;
  void advance_access_epoch();

  std::size_t shard_count() const { return n_shards_; }
  /// Snapshot of one shard (zeroes for an out-of-range index).
  TileShardStats shard_stats(std::size_t shard_index) const;

 private:
  struct Shard;
  struct ArchiveHeat;
  struct Key {
    std::uint64_t archive = 0;
    std::uint32_t field = 0;  // index into the reader's fields()
    std::uint64_t ordinal = 0;
    bool operator==(const Key&) const = default;
  };

  std::shared_ptr<const Field> get_by_key(
      const std::shared_ptr<const ArchiveReader>& reader, ArchiveHeat* heat,
      const Key& key);
  Shard& shard_for(const Key& key) const;
  std::shared_ptr<const ArchiveReader> archive_and_heat(
      std::uint64_t archive_id, std::shared_ptr<ArchiveHeat>* heat) const;
  void touch_heat(ArchiveHeat* heat, const Key& key, bool hit);
  static std::shared_ptr<ArchiveHeat> make_heat(const ArchiveReader& reader);
  /// Erases one key's positive, pending and negative entries from `sh`
  /// (caller holds sh.m); returns how many it removed.
  std::size_t erase_key_locked(Shard& sh, const Key& key);

  std::size_t capacity_bytes_;
  std::size_t n_shards_;
  std::uint32_t negative_ttl_ms_;
  std::uint32_t negative_ttl_max_ms_;
  std::size_t negative_entries_max_;
  std::unique_ptr<Shard[]> shards_;

  mutable std::atomic<std::uint64_t> hits_{0};
  mutable std::atomic<std::uint64_t> misses_{0};
  mutable std::atomic<std::uint64_t> evictions_{0};
  mutable std::atomic<std::uint64_t> inflight_waits_{0};
  mutable std::atomic<std::uint64_t> decode_errors_{0};
  mutable std::atomic<std::uint64_t> negative_hits_{0};

  // Decay clock for the heat scores: epoch_ ticks once per ~65k accesses
  // (and on advance_access_epoch()); epoch_accesses_ is the access odometer
  // driving it. Both relaxed — the decay is an approximation by design.
  std::atomic<std::uint32_t> epoch_{0};
  std::atomic<std::uint64_t> epoch_accesses_{0};

  // Registered archives under archives_mutex_; slots are stable but
  // update_archive may swap a slot's reader and heat. heats_[i] is the
  // per-tile heat storage for archives_[i], allocated whole at
  // registration and immutable in shape afterwards; it is shared so a hot
  // path that resolved the heat keeps it alive across a concurrent swap
  // without holding the mutex.
  mutable std::mutex archives_mutex_;
  std::vector<std::shared_ptr<const ArchiveReader>> archives_;
  std::vector<std::shared_ptr<ArchiveHeat>> heats_;
};

}  // namespace xfc::server

#endif  // XFC_SERVER_TILE_CACHE_HPP
