#include "archive/archive_reader.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <mutex>
#include <set>

#include "archive/tile.hpp"
#include "core/error.hpp"
#include "core/utils.hpp"
#include "crossfield/crossfield.hpp"
#include "io/crc32.hpp"
#include "obs/trace.hpp"
#include "sz/classic.hpp"
#include "sz/compressor.hpp"
#include "sz/interpolation.hpp"
#include "zfp/zfp_codec.hpp"

namespace xfc {
namespace {

constexpr std::array<std::uint8_t, 4> kMagic{'X', 'F', 'A', '1'};
constexpr std::array<std::uint8_t, 4> kFooterMagic{'X', 'F', 'A', 'F'};

// Caps that turn absurd index declarations into CorruptStream before any
// proportional allocation happens (same discipline as parse_container).
constexpr std::uint64_t kMaxFields = 1u << 20;
constexpr std::uint64_t kMaxAnchors = 255;

void check_not_visiting(const std::vector<std::string>& visiting,
                        const std::string& name) {
  if (std::find(visiting.begin(), visiting.end(), name) != visiting.end())
    throw CorruptStream("archive: cyclic anchor dependency");
}

/// Operator-grade location suffix appended to every tile-path error: which
/// field, which grid ordinal, which file offset the bad bytes live at.
std::string tile_context(const ArchiveFieldInfo& info, std::size_t ordinal) {
  return " [field '" + info.name + "' tile " + std::to_string(ordinal) +
         " @offset " + std::to_string(info.tiles[ordinal].offset) + "]";
}

/// Rethrows the in-flight exception with the tile location appended,
/// preserving its type so callers keep matching on CorruptStream/IoError.
[[noreturn]] void rethrow_with_tile_context(const ArchiveFieldInfo& info,
                                            std::size_t ordinal) {
  const std::string ctx = tile_context(info, ordinal);
  try {
    throw;
  } catch (const CorruptStream& e) {
    throw CorruptStream(e.what() + ctx);
  } catch (const IoError& e) {
    throw IoError(e.what() + ctx);
  }
  // Anything else (InvalidArgument, std::bad_alloc) propagates untouched.
}

}  // namespace

void validate_anchor_graph(const std::vector<ArchiveFieldInfo>& fields) {
  std::map<std::string, const ArchiveFieldInfo*> by_name;
  for (const ArchiveFieldInfo& f : fields) by_name[f.name] = &f;

  // Iterative three-color DFS (anchor chains may be as long as the field
  // count, so no recursion).
  enum : std::uint8_t { kWhite = 0, kGray = 1, kBlack = 2 };
  std::map<std::string, std::uint8_t> color;
  for (const ArchiveFieldInfo& root : fields) {
    if (color[root.name] != kWhite) continue;
    // Stack of (field, next anchor index to visit).
    std::vector<std::pair<const ArchiveFieldInfo*, std::size_t>> stack;
    color[root.name] = kGray;
    stack.emplace_back(&root, 0);
    while (!stack.empty()) {
      auto& [f, next] = stack.back();
      if (next == f->anchors.size()) {
        color[f->name] = kBlack;
        stack.pop_back();
        continue;
      }
      const std::string& a = f->anchors[next++];
      const auto it = by_name.find(a);
      if (it == by_name.end())
        throw CorruptStream("archive: anchor field missing from archive: " +
                            a);
      if (it->second->shape != f->shape)
        throw CorruptStream("archive: anchor shape disagrees with target");
      std::uint8_t& c = color[a];
      if (c == kGray)
        throw CorruptStream("archive: cyclic anchor dependency");
      if (c == kWhite) {
        c = kGray;
        stack.emplace_back(it->second, 0);
      }
    }
  }
}

std::uint32_t archive_tile_crc(const std::string& field_name,
                               std::uint64_t ordinal,
                               std::span<const std::uint8_t> body) {
  Crc32 crc;
  crc.update(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(field_name.data()),
      field_name.size()));
  std::uint8_t ord[8];
  for (int i = 0; i < 8; ++i)
    ord[i] = static_cast<std::uint8_t>(ordinal >> (8 * i));
  crc.update(ord);
  crc.update(body);
  return crc.value();
}

Field archive_decode_tile(std::span<const std::uint8_t> body, CodecId expected,
                          const std::vector<const Field*>& anchors) {
  // The codec byte sits right after the 4-byte XFC1 magic; peeking it here
  // avoids a full parse_container (its CRC pass over the body) just for
  // this check — the codec's own decompress validates the frame anyway,
  // and the archive-level tile CRC already ran in tile_bytes().
  if (body.size() < 5 ||
      body[4] != static_cast<std::uint8_t>(expected))
    throw CorruptStream("archive: tile codec disagrees with the index");
  switch (expected) {
    case CodecId::kSz:
      return sz_decompress(body);
    case CodecId::kSzClassic:
      return classic_decompress(body);
    case CodecId::kInterp:
      return interp_decompress(body);
    case CodecId::kZfp:
      return zfp_decompress(body);
    case CodecId::kCrossField:
      return cross_field_decompress(body, anchors);
  }
  throw CorruptStream("archive: unsupported tile codec");
}

std::vector<ArchiveFieldInfo> parse_archive_index(
    std::span<const std::uint8_t> footer, std::uint64_t footer_offset) {
  ByteReader in(footer);
  const auto fmagic = in.raw(4);
  for (std::size_t i = 0; i < 4; ++i)
    if (fmagic[i] != kFooterMagic[i])
      throw CorruptStream("archive: bad footer magic");

  const std::uint64_t n_fields = in.varint();
  // Declared counts are checked against the bytes actually present before
  // any proportional allocation (a crafted index must not buy allocations
  // it did not pay for in footer bytes); the smallest field record is well
  // over 8 bytes.
  if (n_fields > kMaxFields || n_fields > in.remaining() / 8)
    throw CorruptStream("archive: absurd field count");
  std::vector<ArchiveFieldInfo> out;
  out.reserve(n_fields);

  std::set<std::string> seen_names;
  for (std::uint64_t fi = 0; fi < n_fields; ++fi) {
    ArchiveFieldInfo f;
    f.name = in.str();
    if (f.name.empty()) throw CorruptStream("archive: empty field name");
    if (!seen_names.insert(f.name).second)
      throw CorruptStream("archive: duplicate field name in index");

    const std::uint8_t codec = in.u8();
    if (codec > static_cast<std::uint8_t>(CodecId::kSzClassic))
      throw CorruptStream("archive: unknown codec id in index");
    f.codec = static_cast<CodecId>(codec);
    const std::uint8_t flags = in.u8();
    if (flags > 3) throw CorruptStream("archive: unknown field flags");
    f.cross_field = (flags & 1) != 0;
    if (f.cross_field != (f.codec == CodecId::kCrossField))
      throw CorruptStream("archive: cross-field flag/codec mismatch");
    // Bit 1: an append epoch follows. Only ever set for epoch > 0, so the
    // canonical write-once footer stays byte-identical to the frozen
    // format (golden archives, writer-byte stability).
    if ((flags & 2) != 0) {
      const std::uint64_t epoch = in.varint();
      if (epoch == 0 || epoch > 0xFFFFFFFFull)
        throw CorruptStream("archive: bad field epoch");
      f.epoch = static_cast<std::uint32_t>(epoch);
    }

    f.eb_mode = in.u8();
    if (f.eb_mode > 1) throw CorruptStream("archive: bad error-bound mode");
    f.eb_value = in.f64();
    f.abs_eb = in.f64();
    if (!(f.abs_eb > 0.0) || !std::isfinite(f.abs_eb))
      throw CorruptStream("archive: bad absolute error bound");

    f.shape = read_shape(in);
    f.tile = read_shape(in);
    if (f.tile.ndim() != f.shape.ndim())
      throw CorruptStream("archive: tile rank disagrees with field rank");

    if (f.cross_field) {
      const std::uint64_t n_anchors = in.varint();
      if (n_anchors == 0 || n_anchors > kMaxAnchors)
        throw CorruptStream("archive: bad anchor count");
      for (std::uint64_t i = 0; i < n_anchors; ++i) {
        f.anchors.push_back(in.str());
        if (f.anchors.back().empty() || f.anchors.back() == f.name)
          throw CorruptStream("archive: bad anchor name");
      }
    }

    const TileGrid grid(f.shape, f.tile);
    const std::uint64_t n_tiles = in.varint();
    if (n_tiles != grid.num_tiles())
      throw CorruptStream(
          "archive: tile count disagrees with the field geometry");
    // Each entry is at least 1+1+4 bytes; a geometry engineered to claim
    // billions of tiles runs out of footer long before the reserve.
    if (n_tiles > in.remaining() / 6)
      throw CorruptStream("archive: tile index exceeds the footer");
    f.tiles.reserve(n_tiles);
    for (std::uint64_t i = 0; i < n_tiles; ++i) {
      ArchiveTileInfo t;
      t.offset = in.varint();
      t.size = in.varint();
      t.crc = in.u32();
      if (t.offset < kArchiveHeaderSize || t.offset > footer_offset ||
          t.size > footer_offset - t.offset)
        throw CorruptStream("archive: tile body out of bounds");
      f.tiles.push_back(t);
    }
    out.push_back(std::move(f));
  }
  if (!in.exhausted())
    throw CorruptStream("archive: trailing bytes after the field index");
  return out;
}

ArchiveReader::ArchiveReader(std::unique_ptr<ByteSource> source)
    : source_(std::move(source)) {
  parse_index();
}

ArchiveReader ArchiveReader::open_file(const std::string& path) {
  return ArchiveReader(std::make_unique<FileSource>(path));
}

ArchiveReader ArchiveReader::open_memory(std::span<const std::uint8_t> bytes) {
  return ArchiveReader(std::make_unique<MemorySource>(bytes));
}

void ArchiveReader::parse_index() {
  const std::size_t total = source_->size();
  constexpr std::size_t kMinArchive =
      kArchiveHeaderSize + 4 /* footer magic */ + kArchiveTrailerSize;
  if (total < kMinArchive)
    throw CorruptStream("archive: stream too short");

  // Header damage is terminal: with no header there is no earlier commit
  // point to fall back to, so these throw without any recovery scan.
  const auto head = source_->read_vec(0, kArchiveHeaderSize);
  for (std::size_t i = 0; i < 4; ++i)
    if (head[i] != kMagic[i])
      throw CorruptStream("archive: bad magic (not an XFA archive)");
  if (head[4] != kArchiveVersion)
    throw CorruptStream("archive: unsupported version");

  // Fast path: a cleanly closed archive parses at EOF.
  std::exception_ptr first_error;
  try {
    parse_index_at(total, fields_);
    logical_size_ = total;
    return;
  } catch (const CorruptStream&) {
    first_error = std::current_exception();  // fall through to recovery
  }

  // Recovery-on-open: a crashed append left a torn tail (partial bodies, a
  // partial footer, or a partial trailer) after the last sealed epoch. The
  // commit point is the newest trailer whose footer CRC-validates, so scan
  // backward for trailer-magic candidates and try a strict parse at each.
  // False positives (magic bytes inside tile bodies) are rejected by the
  // trailer bounds checks and the footer CRC, which is a 1-in-2^32 fluke
  // per candidate — and a fluke still yields a CRC-consistent index, never
  // silent garbage.
  const std::size_t scan_end = total - 1;  // EOF candidate already failed
  constexpr std::size_t kChunk = 64u << 10;
  std::size_t hi = scan_end;
  while (hi >= kMinArchive) {
    const std::size_t lo =
        hi > kChunk + kMinArchive ? hi - kChunk : kMinArchive;
    // Overlap by 3 bytes so a magic spanning the chunk boundary is seen.
    const std::size_t read_hi = std::min(total, hi + 3);
    const auto chunk = source_->read_vec(lo - 4, read_hi - (lo - 4));
    // Candidate logical end E has the trailer magic at [E-4, E); scan the
    // chunk's candidates from the newest down.
    for (std::size_t e = hi; e >= lo; --e) {
      const std::size_t at = e - (lo - 4) - 4;
      if (chunk[at] != kMagic[0] || chunk[at + 1] != kMagic[1] ||
          chunk[at + 2] != kMagic[2] || chunk[at + 3] != kMagic[3])
        continue;
      std::vector<ArchiveFieldInfo> candidate;
      try {
        parse_index_at(e, candidate);
      } catch (const CorruptStream&) {
        continue;
      }
      fields_ = std::move(candidate);
      logical_size_ = e;
      recovered_bytes_discarded_ = total - e;
      return;
    }
    if (lo == kMinArchive) break;
    hi = lo - 1;
  }
  // No sealed epoch anywhere: surface the original strict-parse error.
  std::rethrow_exception(first_error);
}

std::uint32_t ArchiveReader::epoch_count() const {
  std::uint32_t max_epoch = 0;
  for (const ArchiveFieldInfo& f : fields_)
    max_epoch = std::max(max_epoch, f.epoch);
  return max_epoch + 1;
}

void ArchiveReader::parse_index_at(std::size_t logical_end,
                                   std::vector<ArchiveFieldInfo>& out) const {
  const std::size_t total = logical_end;
  if (total < kArchiveHeaderSize + kFooterMagic.size() + kArchiveTrailerSize ||
      total > source_->size())
    throw CorruptStream("archive: stream too short");

  const auto tail =
      source_->read_vec(total - kArchiveTrailerSize, kArchiveTrailerSize);
  ByteReader tr(tail);
  const std::uint32_t footer_crc = tr.u32();
  const std::uint64_t footer_offset = tr.u64();
  const std::uint64_t footer_size = tr.u64();
  const auto trailer_magic = tr.raw(4);
  for (std::size_t i = 0; i < 4; ++i)
    if (trailer_magic[i] != kMagic[i])
      throw CorruptStream("archive: bad trailer magic (truncated archive?)");

  const std::uint64_t body_end = total - kArchiveTrailerSize;
  if (footer_offset < kArchiveHeaderSize || footer_offset > body_end ||
      footer_size != body_end - footer_offset)
    throw CorruptStream("archive: footer bounds out of range");

  const auto footer = source_->read_vec(footer_offset, footer_size);
  if (Crc32::of(footer) != footer_crc)
    throw CorruptStream("archive: footer CRC mismatch (corrupted index)");
  out = parse_archive_index(footer, footer_offset);
}

const ArchiveFieldInfo* ArchiveReader::find(const std::string& name) const {
  for (const ArchiveFieldInfo& f : fields_)
    if (f.name == name) return &f;
  return nullptr;
}

const ArchiveFieldInfo& ArchiveReader::require(const std::string& name) const {
  const ArchiveFieldInfo* info = find(name);
  if (info == nullptr)
    throw InvalidArgument("archive: no such field: " + name);
  return *info;
}

std::vector<std::uint8_t> ArchiveReader::tile_bytes(
    const ArchiveFieldInfo& info, std::size_t ordinal) const {
  const ArchiveTileInfo& t = info.tiles[ordinal];
  std::vector<std::uint8_t> body;
  try {
    body = source_->read_vec(t.offset, t.size);
  } catch (...) {
    rethrow_with_tile_context(info, ordinal);
  }
  if (archive_tile_crc(info.name, ordinal, body) != t.crc)
    throw CorruptStream("archive: tile CRC mismatch (corrupted or shuffled "
                        "index)" +
                        tile_context(info, ordinal));
  return body;
}

std::vector<std::uint8_t> ArchiveReader::read_tile_bytes(
    const ArchiveFieldInfo& info, std::size_t ordinal) const {
  expects(ordinal < info.tiles.size(),
          "read_tile_bytes: tile ordinal out of range");
  return tile_bytes(info, ordinal);
}

Field ArchiveReader::decode_full(const ArchiveFieldInfo& info,
                                 std::map<std::string, Field>& cache,
                                 std::vector<std::string>& visiting) const {
  check_not_visiting(visiting, info.name);
  visiting.push_back(info.name);

  // Resolve anchors first (cached, so a shared anchor decodes once).
  std::vector<const Field*> anchor_fields;
  for (const std::string& a : info.anchors) {
    const ArchiveFieldInfo* ai = find(a);
    if (ai == nullptr)
      throw CorruptStream("archive: anchor field missing from archive: " + a);
    if (ai->shape != info.shape)
      throw CorruptStream("archive: anchor shape disagrees with target");
    auto it = cache.find(a);
    if (it == cache.end()) {
      Field dec = decode_full(*ai, cache, visiting);
      it = cache.emplace(a, std::move(dec)).first;
    }
    anchor_fields.push_back(&it->second);
  }

  const TileGrid grid(info.shape, info.tile);
  F32Array out(info.shape);
  for_each_tile_parallel(0, grid.num_tiles(), [&](std::size_t t) {
    const TileBox box = grid.box(t);
    const auto body = tile_bytes(info, t);
    std::vector<Field> anchor_tiles;
    std::vector<const Field*> anchor_ptrs;
    anchor_tiles.reserve(anchor_fields.size());
    for (const Field* a : anchor_fields)
      anchor_tiles.emplace_back(a->name(), extract_tile(a->array(), box));
    for (const Field& a : anchor_tiles) anchor_ptrs.push_back(&a);

    // tile_bytes() verified the archive tile CRC over this exact body, so
    // the container's inner CRC is redundant — skip it.
    const TrustedParseScope trusted;
    Field tile;
    try {
      tile = archive_decode_tile(body, info.codec, anchor_ptrs);
    } catch (...) {
      rethrow_with_tile_context(info, t);
    }
    if (tile.shape() != box.extents)
      throw CorruptStream("archive: tile shape disagrees with the index" +
                          tile_context(info, t));
    insert_tile(out, box, tile.array());
  });

  visiting.pop_back();
  return Field(info.name, std::move(out));
}

Field ArchiveReader::decode_region(const ArchiveFieldInfo& info,
                                   std::span<const std::size_t> lo,
                                   std::span<const std::size_t> hi,
                                   std::vector<std::string> visiting) const {
  check_not_visiting(visiting, info.name);
  visiting.push_back(info.name);
  const std::size_t ndim = info.shape.ndim();
  expects(lo.size() == ndim && hi.size() == ndim,
          "read_region: bounds rank must match the field rank");
  for (std::size_t d = 0; d < ndim; ++d)
    expects(lo[d] < hi[d] && hi[d] <= info.shape[d],
            "read_region: empty or out-of-bounds region");

  std::size_t region_dims[3];
  for (std::size_t d = 0; d < ndim; ++d) region_dims[d] = hi[d] - lo[d];
  F32Array out(Shape(std::span<const std::size_t>(region_dims, ndim)));

  const TileGrid grid(info.shape, info.tile);

  // Cross-field tiles decode whole tile boxes, so the anchors must cover
  // the tile-aligned expansion of [lo, hi), not just the query itself.
  // Each anchor's covering region decodes ONCE per query (recursively —
  // anchor grids need not align with this field's) and tiles crop from it.
  std::size_t cover_lo[3] = {0, 0, 0};
  std::vector<Field> anchor_regions;
  anchor_regions.reserve(info.anchors.size());
  if (!info.anchors.empty()) {
    std::size_t cover_hi[3];
    for (std::size_t d = 0; d < ndim; ++d) {
      cover_lo[d] = (lo[d] / info.tile[d]) * info.tile[d];
      cover_hi[d] =
          std::min(info.shape[d], ceil_div(hi[d], info.tile[d]) * info.tile[d]);
    }
    for (const std::string& a : info.anchors) {
      const ArchiveFieldInfo* ai = find(a);
      if (ai == nullptr)
        throw CorruptStream("archive: anchor field missing from archive: " +
                            a);
      if (ai->shape != info.shape)
        throw CorruptStream("archive: anchor shape disagrees with target");
      anchor_regions.push_back(decode_region(
          *ai, std::span<const std::size_t>(cover_lo, ndim),
          std::span<const std::size_t>(cover_hi, ndim), visiting));
    }
  }

  for_each_tile_parallel(grid.tiles_in_region(lo, hi), [&](std::size_t t) {
    const TileBox box = grid.box(t);
    const auto body = tile_bytes(info, t);

    std::vector<Field> anchor_tiles;
    std::vector<const Field*> anchor_ptrs;
    anchor_tiles.reserve(anchor_regions.size());
    for (const Field& ar : anchor_regions) {
      F32Array at(box.extents);
      std::size_t zero[3] = {0, 0, 0};
      std::size_t src_lo[3];
      for (std::size_t d = 0; d < ndim; ++d)
        src_lo[d] = box.lo[d] - cover_lo[d];
      copy_region(at, zero, ar.array(), src_lo, box.extents);
      anchor_tiles.emplace_back(ar.name(), std::move(at));
    }
    for (const Field& a : anchor_tiles) anchor_ptrs.push_back(&a);

    const TrustedParseScope trusted;  // archive tile CRC subsumes the inner
    Field tile;
    try {
      tile = archive_decode_tile(body, info.codec, anchor_ptrs);
    } catch (...) {
      rethrow_with_tile_context(info, t);
    }
    if (tile.shape() != box.extents)
      throw CorruptStream("archive: tile shape disagrees with the index" +
                          tile_context(info, t));

    copy_tile_into_region(out, lo, hi, tile.array(), box);
  });

  return Field(info.name, std::move(out));
}

Field ArchiveReader::decode_tile_impl(const ArchiveFieldInfo& info,
                                      std::size_t ordinal,
                                      const TileFetch& fetch,
                                      std::vector<std::string>& visiting) const {
  expects(ordinal < info.tiles.size(), "read_tile: tile ordinal out of range");
  const TileGrid grid(info.shape, info.tile);
  const TileBox box = grid.box(ordinal);

  std::vector<Field> anchor_tiles;
  std::vector<const Field*> anchor_ptrs;
  if (!info.anchors.empty()) {
    check_not_visiting(visiting, info.name);
    visiting.push_back(info.name);
    anchor_tiles.reserve(info.anchors.size());
    for (const std::string& a : info.anchors) {
      const ArchiveFieldInfo* ai = find(a);
      if (ai == nullptr)
        throw CorruptStream("archive: anchor field missing from archive: " +
                            a);
      if (ai->shape != info.shape)
        throw CorruptStream("archive: anchor shape disagrees with target");
      anchor_tiles.push_back(assemble_anchor_box(*ai, box, fetch, visiting));
    }
    for (const Field& a : anchor_tiles) anchor_ptrs.push_back(&a);
    visiting.pop_back();
  }

  const auto body = tile_bytes(info, ordinal);
  const TrustedParseScope trusted;  // archive tile CRC subsumes the inner
  Field tile;
  try {
    tile = archive_decode_tile(body, info.codec, anchor_ptrs);
  } catch (...) {
    rethrow_with_tile_context(info, ordinal);
  }
  if (tile.shape() != box.extents)
    throw CorruptStream("archive: tile shape disagrees with the index" +
                        tile_context(info, ordinal));
  return tile;
}

Field ArchiveReader::assemble_anchor_box(const ArchiveFieldInfo& anchor,
                                         const TileBox& box,
                                         const TileFetch& fetch,
                                         std::vector<std::string>& visiting)
    const {
  const std::size_t ndim = anchor.shape.ndim();
  std::size_t hi[3];
  for (std::size_t d = 0; d < ndim; ++d) hi[d] = box.lo[d] + box.extents[d];

  // The anchor's grid need not align with the target's; cover the target
  // box with whichever anchor tiles intersect it and crop each into place.
  const TileGrid grid(anchor.shape, anchor.tile);
  F32Array out(box.extents);
  const auto tiles = grid.tiles_in_region(
      std::span<const std::size_t>(box.lo.data(), ndim),
      std::span<const std::size_t>(hi, ndim));
  for (const std::size_t t : tiles) {
    const TileBox abox = grid.box(t);
    std::shared_ptr<const Field> fetched;
    Field local;
    const Field* tile;
    if (fetch) {
      fetched = fetch(anchor, t);
      if (fetched == nullptr)
        throw CorruptStream("archive: anchor tile fetch returned nothing");
      tile = fetched.get();
      if (tile->shape() != abox.extents)
        throw CorruptStream("archive: fetched anchor tile shape mismatch");
    } else {
      local = decode_tile_impl(anchor, t, fetch, visiting);
      tile = &local;
    }

    copy_tile_into_region(out,
                          std::span<const std::size_t>(box.lo.data(), ndim),
                          std::span<const std::size_t>(hi, ndim),
                          tile->array(), abox);
  }
  return Field(anchor.name, std::move(out));
}

Field ArchiveReader::read_tile(const ArchiveFieldInfo& info,
                               std::size_t ordinal,
                               const TileFetch& fetch) const {
  // Anchor tiles resolved through `fetch` re-enter here, so a cross-field
  // tile's span nests its anchors' decode spans under it.
  const obs::SpanScope span("tile_decode", &obs::tile_decode_us());
  std::vector<std::string> visiting;
  return decode_tile_impl(info, ordinal, fetch, visiting);
}

Field ArchiveReader::read_tile(const std::string& name,
                               std::size_t ordinal) const {
  return read_tile(require(name), ordinal, {});
}

Field ArchiveReader::read_field(const std::string& name) const {
  std::map<std::string, Field> cache;
  std::vector<std::string> visiting;
  return decode_full(require(name), cache, visiting);
}

Field ArchiveReader::read_region(const std::string& name,
                                 std::span<const std::size_t> lo,
                                 std::span<const std::size_t> hi) const {
  return decode_region(require(name), lo, hi, {});
}

std::vector<Field> ArchiveReader::read_all() const {
  // Only fields some other field anchors on need to live in the cache;
  // everything else moves straight into the output, keeping peak memory at
  // one copy of the dataset plus the anchor set.
  std::set<std::string> anchored;
  for (const ArchiveFieldInfo& info : fields_)
    for (const std::string& a : info.anchors) anchored.insert(a);

  std::map<std::string, Field> cache;
  std::vector<Field> out;
  out.reserve(fields_.size());
  for (const ArchiveFieldInfo& info : fields_) {
    auto it = cache.find(info.name);
    if (it != cache.end()) {
      out.push_back(it->second);
      continue;
    }
    std::vector<std::string> visiting;
    Field dec = decode_full(info, cache, visiting);
    if (anchored.count(info.name) != 0) cache.emplace(info.name, dec);
    out.push_back(std::move(dec));
  }
  return out;
}

namespace {

/// Deterministic report order regardless of decode-thread interleaving.
void sort_tile_errors(std::vector<ArchiveTileError>& errors) {
  std::sort(errors.begin(), errors.end(),
            [](const ArchiveTileError& a, const ArchiveTileError& b) {
              if (a.field != b.field) return a.field < b.field;
              return a.ordinal < b.ordinal;
            });
}

/// Does the half-open box [a_lo, a_lo+a_ext) intersect [b_lo, b_lo+b_ext)?
bool boxes_intersect(const TileBox& a, const TileBox& b) {
  for (std::size_t d = 0; d < a.extents.ndim(); ++d) {
    if (a.lo[d] + a.extents[d] <= b.lo[d]) return false;
    if (b.lo[d] + b.extents[d] <= a.lo[d]) return false;
  }
  return true;
}

}  // namespace

Field ArchiveReader::decode_region_partial(
    const ArchiveFieldInfo& info, std::span<const std::size_t> lo,
    std::span<const std::size_t> hi, ArchiveReadReport& report,
    TileFillPolicy fill, std::vector<std::string> visiting) const {
  check_not_visiting(visiting, info.name);
  visiting.push_back(info.name);
  const std::size_t ndim = info.shape.ndim();
  expects(lo.size() == ndim && hi.size() == ndim,
          "read_region: bounds rank must match the field rank");
  for (std::size_t d = 0; d < ndim; ++d)
    expects(lo[d] < hi[d] && hi[d] <= info.shape[d],
            "read_region: empty or out-of-bounds region");

  std::size_t region_dims[3];
  for (std::size_t d = 0; d < ndim; ++d) region_dims[d] = hi[d] - lo[d];
  // Pre-fill the whole output: failed tiles simply never overwrite it, so
  // the fill policy needs no per-failure bookkeeping. (F32Array is
  // zero-initialised, so kZero costs nothing extra.)
  F32Array out(Shape(std::span<const std::size_t>(region_dims, ndim)));
  if (fill == TileFillPolicy::kNan)
    std::fill(out.data(), out.data() + out.size(),
              std::numeric_limits<float>::quiet_NaN());

  const TileGrid grid(info.shape, info.tile);

  // Anchors decode through the same degraded path, into the same report.
  // Any tile box an anchor could not serve poisons every target tile it
  // touches: decoding a cross-field tile against fill values would produce
  // plausible-looking wrong bytes, and degraded output must only ever be
  // absent, never wrong.
  std::size_t cover_lo[3] = {0, 0, 0};
  std::vector<Field> anchor_regions;
  std::vector<TileBox> failed_anchor_boxes;
  anchor_regions.reserve(info.anchors.size());
  if (!info.anchors.empty()) {
    std::size_t cover_hi[3];
    for (std::size_t d = 0; d < ndim; ++d) {
      cover_lo[d] = (lo[d] / info.tile[d]) * info.tile[d];
      cover_hi[d] =
          std::min(info.shape[d], ceil_div(hi[d], info.tile[d]) * info.tile[d]);
    }
    for (const std::string& a : info.anchors) {
      const ArchiveFieldInfo* ai = find(a);
      if (ai == nullptr)
        throw CorruptStream("archive: anchor field missing from archive: " +
                            a);
      if (ai->shape != info.shape)
        throw CorruptStream("archive: anchor shape disagrees with target");
      const std::size_t errors_before = report.errors.size();
      anchor_regions.push_back(decode_region_partial(
          *ai, std::span<const std::size_t>(cover_lo, ndim),
          std::span<const std::size_t>(cover_hi, ndim), report, fill,
          visiting));
      // The anchor's own deeper failures already propagated into its tile
      // set, so scanning entries named for the immediate anchor is enough.
      const TileGrid agrid(ai->shape, ai->tile);
      for (std::size_t e = errors_before; e < report.errors.size(); ++e)
        if (report.errors[e].field == ai->name)
          failed_anchor_boxes.push_back(agrid.box(report.errors[e].ordinal));
    }
  }

  const std::vector<std::size_t> tiles = grid.tiles_in_region(lo, hi);
  report.tiles_total += tiles.size();
  std::mutex report_mutex;
  for_each_tile_parallel(tiles, [&](std::size_t t) {
    const TileBox box = grid.box(t);

    for (const TileBox& bad : failed_anchor_boxes) {
      if (boxes_intersect(box, bad)) {
        std::lock_guard<std::mutex> lock(report_mutex);
        report.errors.push_back(
            {info.name, t, info.tiles[t].offset,
             "archive: anchor tile unavailable (degraded anchor coverage)" +
                 tile_context(info, t)});
        return;
      }
    }

    try {
      const auto body = tile_bytes(info, t);

      std::vector<Field> anchor_tiles;
      std::vector<const Field*> anchor_ptrs;
      anchor_tiles.reserve(anchor_regions.size());
      for (const Field& ar : anchor_regions) {
        F32Array at(box.extents);
        std::size_t zero[3] = {0, 0, 0};
        std::size_t src_lo[3];
        for (std::size_t d = 0; d < ndim; ++d)
          src_lo[d] = box.lo[d] - cover_lo[d];
        copy_region(at, zero, ar.array(), src_lo, box.extents);
        anchor_tiles.emplace_back(ar.name(), std::move(at));
      }
      for (const Field& a : anchor_tiles) anchor_ptrs.push_back(&a);

      const TrustedParseScope trusted;
      Field tile;
      try {
        tile = archive_decode_tile(body, info.codec, anchor_ptrs);
      } catch (...) {
        rethrow_with_tile_context(info, t);
      }
      if (tile.shape() != box.extents)
        throw CorruptStream("archive: tile shape disagrees with the index" +
                            tile_context(info, t));

      copy_tile_into_region(out, lo, hi, tile.array(), box);
      std::lock_guard<std::mutex> lock(report_mutex);
      ++report.tiles_ok;
    } catch (const XfcError& e) {
      std::lock_guard<std::mutex> lock(report_mutex);
      report.errors.push_back({info.name, t, info.tiles[t].offset, e.what()});
    }
  });

  return Field(info.name, std::move(out));
}

Field ArchiveReader::read_field_partial(const std::string& name,
                                        ArchiveReadReport& report,
                                        TileFillPolicy fill) const {
  const ArchiveFieldInfo& info = require(name);
  const std::size_t ndim = info.shape.ndim();
  std::size_t lo[3] = {0, 0, 0};
  std::size_t hi[3];
  for (std::size_t d = 0; d < ndim; ++d) hi[d] = info.shape[d];
  Field out = decode_region_partial(
      info, std::span<const std::size_t>(lo, ndim),
      std::span<const std::size_t>(hi, ndim), report, fill, {});
  sort_tile_errors(report.errors);
  return out;
}

Field ArchiveReader::read_region_partial(const std::string& name,
                                         std::span<const std::size_t> lo,
                                         std::span<const std::size_t> hi,
                                         ArchiveReadReport& report,
                                         TileFillPolicy fill) const {
  Field out =
      decode_region_partial(require(name), lo, hi, report, fill, {});
  sort_tile_errors(report.errors);
  return out;
}

ArchiveScrubReport ArchiveReader::scrub() const {
  ArchiveScrubReport report;
  std::mutex report_mutex;
  for (const ArchiveFieldInfo& f : fields_) {
    report.tiles_total += f.tiles.size();
    for_each_tile_parallel(0, f.tiles.size(), [&](std::size_t t) {
      try {
        (void)tile_bytes(f, t);  // read + CRC verify, no decode
        std::lock_guard<std::mutex> lock(report_mutex);
        ++report.tiles_ok;
      } catch (const XfcError& e) {
        std::lock_guard<std::mutex> lock(report_mutex);
        report.errors.push_back({f.name, t, f.tiles[t].offset, e.what()});
      }
    });
  }
  sort_tile_errors(report.errors);
  return report;
}

}  // namespace xfc
