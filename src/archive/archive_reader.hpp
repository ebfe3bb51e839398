#ifndef XFC_ARCHIVE_ARCHIVE_READER_HPP
#define XFC_ARCHIVE_ARCHIVE_READER_HPP

/// \file archive_reader.hpp
/// Seek-and-decode side of the XFA1 tiled archive (layout documented in
/// archive_writer.hpp). A reader validates the header/trailer magics and the
/// footer CRC once, then serves three access paths off the tile index:
///
///   read_all()     — every field, decoded tile-parallel, anchors resolved
///                    in dependency order (mirrors decompress_all).
///   read_field(n)  — one field; cross-field targets pull in only their
///                    anchor fields.
///   read_region(n, lo, hi) — only the tiles intersecting [lo, hi) are
///                    read and decoded; output is bit-identical to cropping
///                    a full decode (tiles are independent streams).
///
/// Every access path verifies the per-tile CRC before parsing a body, and
/// every malformed-archive condition — truncation, bit flips, shuffled or
/// cross-wired index entries, anchor cycles — surfaces as CorruptStream.

#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/field.hpp"
#include "io/stream.hpp"
#include "sz/container.hpp"

namespace xfc {

struct TileBox;  // archive/tile.hpp

/// Format constants shared by the writer and reader.
inline constexpr std::uint8_t kArchiveVersion = 1;
inline constexpr std::size_t kArchiveHeaderSize = 5;   // "XFA1" + version
inline constexpr std::size_t kArchiveTrailerSize = 24;  // crc+off+size+magic

/// Position-dependent tile checksum: CRC-32 over (field name, LE64 tile
/// ordinal, body bytes). Because the field and ordinal are mixed in, an
/// index whose entries were shuffled or pointed at another tile's (valid)
/// body still fails verification.
std::uint32_t archive_tile_crc(const std::string& field_name,
                               std::uint64_t ordinal,
                               std::span<const std::uint8_t> body);

/// Decodes one self-contained tile body through whichever codec framed it.
/// `anchors` feed cross-field bodies and are ignored by the rest; pass the
/// expected codec to reject a body whose frame disagrees with the index.
Field archive_decode_tile(std::span<const std::uint8_t> body, CodecId expected,
                          const std::vector<const Field*>& anchors = {});

struct ArchiveTileInfo {
  std::uint64_t offset = 0;  // absolute file offset of the tile body
  std::uint64_t size = 0;    // body length in bytes
  std::uint32_t crc = 0;     // archive_tile_crc of the body
};

/// One contained per-tile failure from a degraded read or a scrub walk.
/// Carries enough context (field, grid ordinal, file offset) for an
/// operator to locate the bad bytes from a log line alone.
struct ArchiveTileError {
  std::string field;
  std::size_t ordinal = 0;
  std::uint64_t offset = 0;  // file offset of the tile body
  std::string message;       // what() of the contained exception
};

/// Fill value for tiles a degraded read could not decode. kZero serves
/// zeros (safe for renderers); kNan poisons the gap so downstream numerics
/// cannot mistake filled values for data.
enum class TileFillPolicy : std::uint8_t { kZero, kNan };

/// Outcome of a degraded read: which tiles of the query decoded and which
/// failed. The output field is bit-identical to the strict read everywhere
/// outside the failed tiles' boxes.
struct ArchiveReadReport {
  std::size_t tiles_total = 0;  // tiles this query needed (all fields)
  std::size_t tiles_ok = 0;
  std::vector<ArchiveTileError> errors;
  bool complete() const { return errors.empty(); }
};

/// Outcome of scrub(): every tile of every field, CRC-walked, no decode.
struct ArchiveScrubReport {
  std::size_t tiles_total = 0;
  std::size_t tiles_ok = 0;
  std::vector<ArchiveTileError> errors;
  bool clean() const { return errors.empty(); }
};

struct ArchiveFieldInfo {
  std::string name;
  CodecId codec = CodecId::kSz;
  bool cross_field = false;
  std::uint8_t eb_mode = 0;  // ErrorBoundMode as written
  double eb_value = 0.0;
  double abs_eb = 0.0;       // resolved absolute bound (whole field)
  /// Append epoch that sealed this field's current bodies (0 = the epoch
  /// the archive was created in). Encoded in the footer only when nonzero,
  /// so write-once archives stay byte-identical to the frozen format.
  std::uint32_t epoch = 0;
  Shape shape;
  Shape tile;
  std::vector<std::string> anchors;       // cross-field targets only
  std::vector<ArchiveTileInfo> tiles;     // row-major grid order

  std::size_t compressed_bytes() const {
    std::size_t total = 0;
    for (const ArchiveTileInfo& t : tiles) total += t.size;
    return total;
  }
};

/// Throws CorruptStream if the fields' anchor references dangle, disagree
/// on shape, or form a cycle. The serving layer's tile cache calls this
/// once per archive so its per-tile decode recursion (and the single-flight
/// waits that follow anchor edges across threads) is guaranteed to walk a
/// DAG and terminate.
void validate_anchor_graph(const std::vector<ArchiveFieldInfo>& fields);

/// Parses a footer index — the CRC-checked bytes a trailer points at,
/// starting with the "XFAF" magic — whose tile bodies must all end at or
/// before `footer_offset`. Throws CorruptStream on any malformation. The
/// reader parses every candidate commit point with it, and
/// ArchiveWriter::finish parses the footer it is about to seal, so no
/// writer publishes an index its reader refuses.
std::vector<ArchiveFieldInfo> parse_archive_index(
    std::span<const std::uint8_t> footer, std::uint64_t footer_offset);

/// Anchor-tile provider for ArchiveReader::read_tile: returns the decoded
/// tile `ordinal` of `field`'s own grid. A serving-layer cache injects
/// itself here so anchor tiles decode once and get shared across requests.
/// Callers supplying a fetcher must have validated the anchor graph
/// (validate_anchor_graph) — the fetcher, not the reader, owns cycle
/// prevention on that path.
using TileFetch = std::function<std::shared_ptr<const Field>(
    const ArchiveFieldInfo& field, std::size_t ordinal)>;

class ArchiveReader {
 public:
  /// Takes ownership of an arbitrary source; validates and parses the
  /// index. Recovery-on-open: when the bytes at EOF do not form a valid
  /// trailer (a crashed append left a torn tail), the reader scans
  /// backward for the newest CRC-valid trailer and opens the archive as of
  /// that commit point — the partially appended epoch is absent, never
  /// wrong. The discarded tail length is reported by
  /// recovered_bytes_discarded(); a stream with no valid trailer at all
  /// still throws CorruptStream.
  explicit ArchiveReader(std::unique_ptr<ByteSource> source);

  /// Opens a file-backed archive (seekable reads via RandomAccessFile).
  static ArchiveReader open_file(const std::string& path);

  /// Borrows an in-memory archive; `bytes` must outlive the reader.
  static ArchiveReader open_memory(std::span<const std::uint8_t> bytes);

  const std::vector<ArchiveFieldInfo>& fields() const { return fields_; }
  const ArchiveFieldInfo* find(const std::string& name) const;

  /// Logical size of the archive: one past the last byte of the trailer
  /// this reader committed to. Equals the source size unless recovery
  /// discarded a torn tail. A resumed ArchiveWriter writes from here.
  std::size_t logical_size() const { return logical_size_; }

  /// Bytes past the last valid trailer that recovery-on-open discarded
  /// (0 for a cleanly closed archive).
  std::size_t recovered_bytes_discarded() const {
    return recovered_bytes_discarded_;
  }

  /// Number of append epochs sealed into this archive (>= 1): one plus the
  /// highest per-field epoch in the index.
  std::uint32_t epoch_count() const;

  /// Full decode of one field (tile-parallel). Cross-field targets decode
  /// their anchors first; the anchor tiles handed to the codec are the
  /// reader's own decoded tiles, which match the writer's reconstructions
  /// bit-exactly (the tiled anchor contract).
  Field read_field(const std::string& name) const;

  /// Decodes only the tiles intersecting the half-open region [lo, hi)
  /// (rank-sized bounds) and returns the assembled (hi-lo)-shaped field.
  /// Bit-identical to cropping read_field's output.
  Field read_region(const std::string& name, std::span<const std::size_t> lo,
                    std::span<const std::size_t> hi) const;

  /// Decodes every field, in archive order, sharing one anchor cache.
  std::vector<Field> read_all() const;

  /// Decodes exactly one tile (row-major grid ordinal) of one field — the
  /// serving layer's unit of work. Thread-safe: the reader is immutable
  /// after construction and file-backed sources use positional reads, so
  /// any number of threads may decode tiles of one reader concurrently.
  /// Cross-field tiles assemble their anchor boxes from whole anchor tiles:
  /// through `fetch` when given (a cache sharing decoded tiles), else by
  /// decoding the anchor tiles directly (cycles surface as CorruptStream).
  /// Either way the bytes are identical to the corresponding crop of
  /// read_field — tiles are independent streams.
  Field read_tile(const ArchiveFieldInfo& info, std::size_t ordinal,
                  const TileFetch& fetch = {}) const;

  /// Name-keyed convenience overload.
  Field read_tile(const std::string& name, std::size_t ordinal) const;

  /// Raw, CRC-verified tile body (a complete XFC1 container stream) —
  /// the unit the repair path salvages verbatim. Throws CorruptStream on a
  /// CRC mismatch, IoError when the device fails.
  std::vector<std::uint8_t> read_tile_bytes(const ArchiveFieldInfo& info,
                                            std::size_t ordinal) const;

  /// Degraded-mode full read: per-tile failures (I/O error, CRC mismatch,
  /// corrupt body) are contained into `report` instead of aborting the
  /// read; the failed tiles' boxes hold the fill value. A cross-field tile
  /// whose anchor coverage could not be decoded is failed too — degraded
  /// output is never silently wrong, only absent. Bounds/argument errors
  /// still throw (they are caller bugs, not device faults).
  Field read_field_partial(const std::string& name, ArchiveReadReport& report,
                           TileFillPolicy fill = TileFillPolicy::kZero) const;

  /// Degraded-mode region read; same containment contract.
  Field read_region_partial(const std::string& name,
                            std::span<const std::size_t> lo,
                            std::span<const std::size_t> hi,
                            ArchiveReadReport& report,
                            TileFillPolicy fill = TileFillPolicy::kZero) const;

  /// Walks every tile of every field, verifying the per-tile CRC against
  /// the index without decoding a single body — the cheap integrity pass
  /// behind `xfc_cli archive verify`. I/O errors and CRC mismatches land in
  /// the report; nothing throws for per-tile damage.
  ArchiveScrubReport scrub() const;

 private:
  void parse_index();
  /// Strict single-commit-point parse: validates the trailer ending at
  /// `logical_end` and fills `out` from its footer. Throws CorruptStream on
  /// any malformation; touches nothing outside [0, logical_end).
  void parse_index_at(std::size_t logical_end,
                      std::vector<ArchiveFieldInfo>& out) const;
  const ArchiveFieldInfo& require(const std::string& name) const;
  std::vector<std::uint8_t> tile_bytes(const ArchiveFieldInfo& info,
                                       std::size_t ordinal) const;
  Field decode_tile_impl(const ArchiveFieldInfo& info, std::size_t ordinal,
                         const TileFetch& fetch,
                         std::vector<std::string>& visiting) const;
  Field assemble_anchor_box(const ArchiveFieldInfo& anchor, const TileBox& box,
                            const TileFetch& fetch,
                            std::vector<std::string>& visiting) const;
  Field decode_full(const ArchiveFieldInfo& info,
                    std::map<std::string, Field>& cache,
                    std::vector<std::string>& visiting) const;
  // `visiting` is the anchor chain of the current recursion path (passed
  // by value — each path owns its copy); revisiting a name means the index
  // declares an anchor cycle.
  Field decode_region(const ArchiveFieldInfo& info,
                      std::span<const std::size_t> lo,
                      std::span<const std::size_t> hi,
                      std::vector<std::string> visiting) const;
  Field decode_region_partial(const ArchiveFieldInfo& info,
                              std::span<const std::size_t> lo,
                              std::span<const std::size_t> hi,
                              ArchiveReadReport& report, TileFillPolicy fill,
                              std::vector<std::string> visiting) const;

  std::unique_ptr<ByteSource> source_;
  std::vector<ArchiveFieldInfo> fields_;
  std::size_t logical_size_ = 0;
  std::size_t recovered_bytes_discarded_ = 0;
};

}  // namespace xfc

#endif  // XFC_ARCHIVE_ARCHIVE_READER_HPP
