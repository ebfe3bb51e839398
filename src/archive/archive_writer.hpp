#ifndef XFC_ARCHIVE_ARCHIVE_WRITER_HPP
#define XFC_ARCHIVE_ARCHIVE_WRITER_HPP

/// \file archive_writer.hpp
/// Streaming writer for the XFA1 tiled archive container.
///
/// The monolithic XFC1 streams compress one field as one sequential
/// reconstruction chain — no random access, no bounded-memory streaming, no
/// decode-side parallelism. XFA1 is the scale-out container on top of the
/// same codecs: every field is split into fixed-size tiles (edge tiles
/// ragged), every tile is compressed *independently* through an existing
/// codec, and a footer index records where each tile body lives so readers
/// can seek straight to it.
///
/// On-disk layout (all integers little-endian; varint = LEB128):
///
///   +--------------------------------------------------------------+
///   | header   "XFA1" | u8 version (=1)                            |
///   +--------------------------------------------------------------+
///   | tile bodies, concatenated in write order. Each body is a     |
///   | complete, self-contained XFC1 container stream (magic, codec |
///   | id, body, CRC-32) as produced by sz/interp/zfp/cross-field   |
///   | compress on the tile's data.                                 |
///   +--------------------------------------------------------------+
///   | footer   "XFAF"                                              |
///   |   varint field_count                                         |
///   |   per field:                                                 |
///   |     str  name                                                |
///   |     u8   codec id   (CodecId of the tile bodies)             |
///   |     u8   flags      (bit0: cross-field target,               |
///   |                      bit1: varint epoch follows — only when  |
///   |                      the field's append epoch is nonzero)    |
///   |     [varint epoch   iff flags bit1]                          |
///   |     u8   eb mode | f64 eb value | f64 resolved absolute eb   |
///   |     shape       (u8 rank | varint extents)                   |
///   |     tile shape  (same encoding, same rank)                   |
///   |     if cross-field: varint anchor_count | anchor names (str) |
///   |     varint tile_count   (== grid tile count, checked)        |
///   |     per tile (row-major grid order):                         |
///   |       varint offset | varint size | u32 tile CRC             |
///   +--------------------------------------------------------------+
///   | trailer  u32 footer CRC | u64 footer offset |                |
///   |          u64 footer size | "XFA1"            (24 bytes)      |
///   +--------------------------------------------------------------+
///
/// The fixed-size trailer at EOF is what makes the format seekable: a
/// reader checks both magics, jumps to the footer, CRC-validates it, and
/// from then on touches only the tile bodies a query needs. The per-tile
/// CRC is computed over (field name, tile ordinal, body bytes), so a
/// shuffled or cross-wired index is detected even when the bodies it points
/// at are themselves valid streams.
///
/// Error-bound semantics: the writer resolves a relative bound against the
/// *full field's* value range once and compresses every tile at that
/// absolute bound. A tiled round trip therefore satisfies exactly the same
/// ErrorBound as the monolithic path (dual quantization is pointwise, so
/// per-tile reconstruction equals the monolithic reconstruction cropped).
///
/// Cross-field tiles: a target tile is compressed against the *same tile
/// box* of its anchors' reconstructions, and the anchor contract demands
/// those bytes be bit-identical on both sides. The writer therefore
/// reconstructs every anchor tile by decoding the tile stream it just
/// wrote (exact for every codec, including the non-dual-quant zfp), and
/// the reader hands the decoder its own decoded anchor tiles. The CFNN
/// model is embedded per tile body (the stream format is unchanged), so
/// small tiles trade ratio for access granularity — see the README.
///
/// Epochs. The commit point of an XFA1 file is its trailer: readers locate
/// the newest CRC-valid trailer and trust only the bytes its footer
/// indexes. That makes the container appendable without any format change
/// — new tile bodies stream after the last sealed trailer, then a *new*
/// footer indexing every field (old and new) plus a new trailer seals the
/// next epoch:
///
///   epoch 0:  header | bodies | footer0 | trailer0
///   epoch 1:  ...... | bodies | footer1 | trailer1
///                      ^ appended after trailer0; footer0/trailer0 become
///                        dead bytes (tile offsets are absolute, so the old
///                        index simply stops being the newest)
///
/// Every epoch, the first included, is sealed by the same protocol
/// (ArchiveWriter::finish):
///
///   1. bodies are appended          (any crash here: torn tail)
///   2. sink.sync()                  — bodies durable before any index
///                                     points at them
///   3. footer + trailer appended    (any crash here: torn index tail)
///   4. sink.commit()                — the epoch is committed iff this
///                                     returns
///
/// On an AppendFileSink, sync() and commit() are both fsync. On a FileSink,
/// sync() is a flush and commit() is fsync + rename of the temp file onto
/// the final path, so a crash mid-write never leaves a truncated archive
/// under the final name. A crash at any point of an append leaves a file
/// whose tail past the previous trailer is garbage; ArchiveReader's
/// recovery-on-open scans back to that trailer and the partial epoch is
/// absent, never wrong. The writer-side dual of that invariant: no step
/// ever overwrites a byte the previous epoch's index references, so
/// recovery always has an intact commit point to land on.

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "archive/archive_reader.hpp"
#include "core/field.hpp"
#include "crossfield/crossfield.hpp"
#include "io/stream.hpp"
#include "sz/compressor.hpp"
#include "sz/container.hpp"

namespace xfc {

/// Per-field archive compression options.
struct ArchiveFieldOptions {
  ErrorBound eb = ErrorBound::relative(1e-3);
  /// Tile codec: kSz, kSzClassic, kInterp or kZfp (add_cross_field ignores
  /// this and writes kCrossField bodies).
  CodecId codec = CodecId::kSz;
  SzPredictor predictor = SzPredictor::kLorenzo1;  // kSz only
  LosslessBackend backend = LosslessBackend::kAuto;
  std::uint32_t quant_radius = kDefaultQuantRadius;
  /// Tile extents; default-constructed (rank 0) selects
  /// TileGrid::default_tile for the field's rank.
  Shape tile;
  /// Retain this field's decoded reconstruction in the writer so later
  /// add_cross_field calls can anchor on it.
  bool keep_reconstruction = false;
};

/// Streaming XFA1 writer; one writer seals one epoch. A fresh archive:
///
///   VectorSink sink;                       // or FileSink("snap.xfa")
///   ArchiveWriter w(sink);
///   w.add_field(pressure, opts_with_keep);
///   w.add_cross_field(wind, {"pressure"}, model, opts);
///   w.finish();                            // seals epoch 0
///
/// The next epoch of an existing archive:
///
///   ArchiveReader r = ArchiveReader::open_file(path);
///   AppendFileSink sink(path, r.logical_size());
///   ArchiveWriter w(sink, r);
///   w.replace_field(t1_pressure, opts);
///   w.finish();                            // seals epoch r.epoch_count()
///
/// Memory stays bounded: tiles are compressed and appended one batch at a
/// time (a grid row, or a few tiles per pool worker if rows are narrower —
/// the batch compresses in parallel), and only fields added with
/// keep_reconstruction are retained. Not thread-safe; one writer per
/// archive at a time (the service serializes ingest behind a mutex).
class ArchiveWriter {
 public:
  /// Starts a new archive: writes the header, then epoch 0.
  explicit ArchiveWriter(ByteSink& sink);

  /// Resumes `existing` with its next epoch. The sink must sit at
  /// existing.logical_size() — AppendFileSink(path, r.logical_size()) for
  /// files (it also truncates a recovered torn tail), or a VectorSink
  /// seeded with the original bytes. `existing` must outlive the writer and
  /// describe the bytes the sink appends to: it seeds the index and decodes
  /// the sealed fields new targets anchor on.
  ArchiveWriter(ByteSink& sink, const ArchiveReader& existing);

  /// Tiles and compresses `field` with its own (non-cross-field) codec
  /// under a fresh name (a name already in the archive throws
  /// InvalidArgument — use replace_field to supersede). A field holding
  /// NaN or ±Inf throws InvalidArgument naming the first bad flat index,
  /// before any byte is written.
  void add_field(const Field& field, const ArchiveFieldOptions& options = {});

  /// Tiles and compresses `target` cross-field: each tile is coded against
  /// the same tile box of the named anchors' reconstructions. An anchor is
  /// either a field this writer added with keep_reconstruction or a sealed
  /// field of `existing`, decoded on demand. Same name and non-finite
  /// rules as add_field.
  void add_cross_field(const Field& target,
                       const std::vector<std::string>& anchor_names,
                       const CfnnModel& model,
                       const ArchiveFieldOptions& options = {});

  /// Supersedes a sealed field with freshly compressed bodies (the old
  /// bodies become dead bytes); the replacement keeps the field's index
  /// position. A field other fields anchor on cannot be replaced —
  /// replacing it would invalidate the anchor contract's bit-exact
  /// reconstructions — and the replacement is coded with a plain codec.
  /// Shape may change.
  void replace_field(const Field& field,
                     const ArchiveFieldOptions& options = {});

  /// Appends a field whose tile bodies are already-encoded XFC1 container
  /// streams — the archive-repair path, which salvages verbatim bodies out
  /// of a damaged archive. Geometry and error-bound metadata are copied
  /// from `meta` (the epoch included, so a repaired archive keeps its
  /// provenance); `body_for(ordinal)` supplies each tile's complete body in
  /// row-major grid order. Tile CRCs are recomputed here, so a verbatim
  /// body keeps its original CRC (the checksum is a pure function of field
  /// name, ordinal and bytes). No reconstruction is retained; anchors named
  /// in `meta` are recorded as-is and must be satisfied by other fields of
  /// the finished archive.
  void add_prebuilt_field(
      const ArchiveFieldInfo& meta,
      const std::function<std::vector<std::uint8_t>(std::size_t)>& body_for);

  /// Seals the epoch by the protocol above and returns its number. The
  /// index is the sealed fields in their order, a replaced field in its
  /// old position, then the new fields in write order. Before any index
  /// byte lands the writer validates the anchor graph and re-parses its own
  /// footer as the reader will; an index the reader would refuse throws
  /// InvalidArgument and nothing is committed. A resumed writer refuses an
  /// empty epoch; a fresh one may seal zero fields (a repair that dropped
  /// every field). Nothing may be added after.
  std::uint32_t finish();

  /// Decoder-identical reconstruction of a field added with
  /// keep_reconstruction, or of a sealed field already decoded as an anchor
  /// (nullptr otherwise). Exposed so callers can chain anchors or compute
  /// quality metrics without re-reading the archive.
  const Field* reconstruction(const std::string& name) const;

  /// Fields this writer added or replaced.
  std::size_t fields_written() const { return pending_.size(); }

 private:
  void check_name(const std::string& name, bool replacing) const;
  const Field* anchor_recon(const std::string& name);
  void write_field(const Field& field, const ArchiveFieldOptions& options,
                   bool replacing,
                   const std::vector<std::string>& anchor_names,
                   const CfnnModel* model);

  ByteSink& sink_;
  const ArchiveReader* existing_ = nullptr;
  std::vector<ArchiveFieldInfo> sealed_;   // index of earlier epochs
  std::vector<ArchiveFieldInfo> pending_;  // this epoch, in write order
  std::map<std::string, Field> reconstructions_;
  std::uint32_t epoch_ = 0;
  bool finished_ = false;
};

}  // namespace xfc

#endif  // XFC_ARCHIVE_ARCHIVE_WRITER_HPP
