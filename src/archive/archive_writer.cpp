#include "archive/archive_writer.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "archive/archive_reader.hpp"
#include "archive/tile.hpp"
#include "core/error.hpp"
#include "core/utils.hpp"
#include "io/crc32.hpp"
#include "sz/classic.hpp"
#include "sz/compressor.hpp"
#include "sz/interpolation.hpp"
#include "zfp/zfp_codec.hpp"

namespace xfc {
namespace {

constexpr std::array<std::uint8_t, 4> kMagic{'X', 'F', 'A', '1'};
constexpr std::array<std::uint8_t, 4> kFooterMagic{'X', 'F', 'A', 'F'};

bool contains(const std::vector<ArchiveFieldInfo>& index,
              const std::string& name) {
  return std::any_of(index.begin(), index.end(),
                     [&](const ArchiveFieldInfo& f) { return f.name == name; });
}

/// Field::value_range, in one pass that also refuses non-finite input. No
/// tile codec has a defined behaviour for NaN or ±Inf (one keeps it, one
/// writes back a wrong value, two fail deep inside quantization), so the
/// write path names the first bad value instead of letting any codec see it.
double finite_value_range(const Field& field) {
  const float* v = field.data();
  float lo = 0.0f, hi = 0.0f;  // an empty field's range is 0
  for (std::size_t i = 0; i < field.size(); ++i) {
    if (!std::isfinite(v[i]))
      throw InvalidArgument("ArchiveWriter: field '" + field.name() +
                            "' holds a non-finite value at index " +
                            std::to_string(i));
    // The same extremes as std::minmax_element: first min, last max.
    if (i == 0 || v[i] < lo) lo = v[i];
    if (i == 0 || !(v[i] < hi)) hi = v[i];
  }
  const float range = hi - lo;
  if (std::isfinite(range)) return range;
  return static_cast<double>(hi) - static_cast<double>(lo);
}

std::vector<std::uint8_t> compress_tile(
    const Field& tile_field, CodecId codec, double abs_eb,
    const ArchiveFieldOptions& options,
    const std::vector<const Field*>& anchors, const CfnnModel* model) {
  // Every tile is coded at the field-level *absolute* bound so the tiled
  // round trip satisfies exactly the ErrorBound the caller configured —
  // resolving a relative bound per tile would retarget it to each tile's
  // local value range.
  switch (codec) {
    case CodecId::kSz: {
      SzOptions o;
      o.eb = ErrorBound::absolute(abs_eb);
      o.predictor = options.predictor;
      o.backend = options.backend;
      o.quant_radius = options.quant_radius;
      return sz_compress(tile_field, o);
    }
    case CodecId::kSzClassic: {
      ClassicOptions o;
      o.eb = ErrorBound::absolute(abs_eb);
      o.backend = options.backend;
      o.quant_radius = options.quant_radius;
      return classic_compress(tile_field, o);
    }
    case CodecId::kInterp: {
      InterpOptions o;
      o.eb = ErrorBound::absolute(abs_eb);
      o.backend = options.backend;
      o.quant_radius = options.quant_radius;
      return interp_compress(tile_field, o);
    }
    case CodecId::kZfp: {
      ZfpOptions o;
      o.tolerance = abs_eb;
      return zfp_compress(tile_field, o);
    }
    case CodecId::kCrossField: {
      CrossFieldOptions o;
      o.eb = ErrorBound::absolute(abs_eb);
      o.backend = options.backend;
      o.quant_radius = options.quant_radius;
      return cross_field_compress(tile_field, anchors, *model, o);
    }
  }
  throw InvalidArgument("ArchiveWriter: unsupported tile codec");
}

/// Tiles and compresses `field` into `sink` at entry.abs_eb with
/// entry.codec over the grid entry.shape / entry.tile, appending one
/// ArchiveTileInfo per tile. When `recon` is non-null it receives the
/// decoder-identical reconstruction (the anchor contract's bytes) and must
/// already have the field's shape.
void compress_tiles(ByteSink& sink, const Field& field,
                    const ArchiveFieldOptions& options,
                    const std::vector<const Field*>& anchor_recons,
                    const CfnnModel* model, ArchiveFieldInfo& entry,
                    F32Array* recon) {
  const TileGrid grid(entry.shape, entry.tile);
  // One batch of tiles is in flight at a time: the batch compresses (and,
  // when retained, decodes back) in parallel, then its bodies are appended
  // to the sink sequentially so offsets are deterministic. The batch is a
  // grid row, widened to a few tiles per worker when rows are narrower
  // than the pool (a 1D field's "row" is a single tile), so memory stays
  // bounded by O(max(row, threads)) tiles independent of archive size.
  const std::size_t row_tiles = grid.num_tiles() / grid.tiles_along(0);
  const std::size_t batch =
      std::max(row_tiles,
               std::min(grid.num_tiles(),
                        4 * static_cast<std::size_t>(hardware_threads())));
  for (std::size_t lo = 0; lo < grid.num_tiles(); lo += batch) {
    const std::size_t hi = std::min(lo + batch, grid.num_tiles());
    std::vector<std::vector<std::uint8_t>> bodies(hi - lo);

    for_each_tile_parallel(lo, hi, [&](std::size_t t) {
      const TileBox box = grid.box(t);
      const Field tile_field(field.name(), extract_tile(field.array(), box));
      std::vector<Field> anchor_tiles;
      std::vector<const Field*> anchor_ptrs;
      anchor_tiles.reserve(anchor_recons.size());
      for (const Field* a_full : anchor_recons)
        anchor_tiles.emplace_back(a_full->name(),
                                  extract_tile(a_full->array(), box));
      for (const Field& a_tile : anchor_tiles)
        anchor_ptrs.push_back(&a_tile);

      bodies[t - lo] = compress_tile(tile_field, entry.codec, entry.abs_eb,
                                     options, anchor_ptrs, model);
      if (recon != nullptr) {
        // The retained reconstruction is the decode of the bytes just
        // produced — exact for every codec (zfp included), so targets
        // anchored on this field see the decoder's bytes. The bytes never
        // left this stack frame, so the container CRC proves nothing here.
        const TrustedParseScope trusted;
        const Field dec =
            archive_decode_tile(bodies[t - lo], entry.codec, anchor_ptrs);
        insert_tile(*recon, box, dec.array());
      }
    });

    for (std::size_t t = lo; t < hi; ++t) {
      const auto& body = bodies[t - lo];
      ArchiveTileInfo te;
      te.offset = sink.size();
      te.size = body.size();
      te.crc = archive_tile_crc(entry.name, t, body);
      entry.tiles.push_back(te);
      sink.append(body);
    }
  }
}

/// The footer index over `fields` ("XFAF" + field records). Field epochs
/// are encoded via flags bit 1 only when nonzero, keeping write-once
/// archives byte-identical to the frozen format.
std::vector<std::uint8_t> encode_index(
    const std::vector<ArchiveFieldInfo>& fields) {
  ByteWriter footer;
  footer.raw(kFooterMagic);
  footer.varint(fields.size());
  for (const ArchiveFieldInfo& f : fields) {
    footer.str(f.name);
    footer.u8(static_cast<std::uint8_t>(f.codec));
    std::uint8_t flags = f.cross_field ? 1 : 0;
    if (f.epoch != 0) flags |= 2;
    footer.u8(flags);
    if (f.epoch != 0) footer.varint(f.epoch);
    footer.u8(f.eb_mode);
    footer.f64(f.eb_value);
    footer.f64(f.abs_eb);
    write_shape(footer, f.shape);
    write_shape(footer, f.tile);
    if (f.cross_field) {
      footer.varint(f.anchors.size());
      for (const std::string& a : f.anchors) footer.str(a);
    }
    footer.varint(f.tiles.size());
    for (const ArchiveTileInfo& t : f.tiles) {
      footer.varint(t.offset);
      footer.varint(t.size);
      footer.u32(t.crc);
    }
  }
  return footer.take();
}

}  // namespace

ArchiveWriter::ArchiveWriter(ByteSink& sink) : sink_(sink) {
  ByteWriter head;
  head.raw(kMagic);
  head.u8(kArchiveVersion);
  sink_.append(head.bytes());
}

ArchiveWriter::ArchiveWriter(ByteSink& sink, const ArchiveReader& existing)
    : sink_(sink),
      existing_(&existing),
      sealed_(existing.fields()),
      epoch_(existing.epoch_count()) {
  expects(sink_.size() == existing.logical_size(),
          "ArchiveWriter: sink must resume at the archive's logical size");
}

const Field* ArchiveWriter::reconstruction(const std::string& name) const {
  const auto it = reconstructions_.find(name);
  return it == reconstructions_.end() ? nullptr : &it->second;
}

void ArchiveWriter::check_name(const std::string& name, bool replacing) const {
  expects(!finished_, "ArchiveWriter: archive already finished");
  expects(!name.empty(), "ArchiveWriter: field must be named");
  expects(!contains(pending_, name), "ArchiveWriter: duplicate field name");
  if (replacing)
    expects(contains(sealed_, name),
            "ArchiveWriter: replace_field target does not exist");
  else
    expects(!contains(sealed_, name),
            "ArchiveWriter: field already exists (use replace_field)");
}

const Field* ArchiveWriter::anchor_recon(const std::string& name) {
  const auto it = reconstructions_.find(name);
  if (it != reconstructions_.end()) return &it->second;
  // Not kept by this writer: only a sealed field this writer has not
  // rewritten can be decoded out of the existing archive. The reader's
  // reconstruction is bit-identical to the writer's (the anchor contract),
  // so anchoring on a decode is exact.
  expects(existing_ != nullptr && !contains(pending_, name) &&
              existing_->find(name) != nullptr,
          "ArchiveWriter: anchor was not added with keep_reconstruction");
  return &reconstructions_.emplace(name, existing_->read_field(name))
              .first->second;
}

void ArchiveWriter::write_field(const Field& field,
                                const ArchiveFieldOptions& options,
                                bool replacing,
                                const std::vector<std::string>& anchor_names,
                                const CfnnModel* model) {
  check_name(field.name(), replacing);
  const double range = finite_value_range(field);
  std::vector<const Field*> anchors;
  anchors.reserve(anchor_names.size());
  for (const std::string& name : anchor_names) {
    const Field* recon = anchor_recon(name);
    expects(recon->shape() == field.shape(),
            "ArchiveWriter: anchor shape does not match the target");
    anchors.push_back(recon);
  }

  ArchiveFieldInfo entry;
  entry.name = field.name();
  entry.codec = anchors.empty() ? options.codec : CodecId::kCrossField;
  entry.cross_field = !anchors.empty();
  entry.eb_mode = static_cast<std::uint8_t>(options.eb.mode());
  entry.eb_value = options.eb.value();
  entry.abs_eb = options.eb.absolute_for(range);
  entry.epoch = epoch_;
  entry.shape = field.shape();
  entry.tile = options.tile.ndim() == 0
                   ? TileGrid::default_tile(field.shape())
                   : options.tile;
  entry.anchors = anchor_names;

  const bool keep = options.keep_reconstruction;
  F32Array recon;
  if (keep) recon = F32Array(field.shape());
  compress_tiles(sink_, field, options, anchors, model, entry,
                 keep ? &recon : nullptr);
  if (keep)
    reconstructions_.insert_or_assign(field.name(),
                                      Field(field.name(), std::move(recon)));
  pending_.push_back(std::move(entry));
}

void ArchiveWriter::add_field(const Field& field,
                              const ArchiveFieldOptions& options) {
  expects(options.codec != CodecId::kCrossField,
          "ArchiveWriter: use add_cross_field for cross-field targets");
  write_field(field, options, false, {}, nullptr);
}

void ArchiveWriter::add_cross_field(
    const Field& target, const std::vector<std::string>& anchor_names,
    const CfnnModel& model, const ArchiveFieldOptions& options) {
  expects(!anchor_names.empty(),
          "ArchiveWriter: cross-field target needs at least one anchor");
  write_field(target, options, false, anchor_names, &model);
}

void ArchiveWriter::replace_field(const Field& field,
                                  const ArchiveFieldOptions& options) {
  expects(options.codec != CodecId::kCrossField,
          "ArchiveWriter: replacements use plain codecs");
  const auto anchors_on_it = [&](const ArchiveFieldInfo& f) {
    return std::find(f.anchors.begin(), f.anchors.end(), field.name()) !=
           f.anchors.end();
  };
  expects(std::none_of(sealed_.begin(), sealed_.end(), anchors_on_it) &&
              std::none_of(pending_.begin(), pending_.end(), anchors_on_it),
          "ArchiveWriter: cannot replace a field other fields anchor on");
  write_field(field, options, true, {}, nullptr);
}

void ArchiveWriter::add_prebuilt_field(
    const ArchiveFieldInfo& meta,
    const std::function<std::vector<std::uint8_t>(std::size_t)>& body_for) {
  check_name(meta.name, false);
  expects(meta.cross_field == (meta.codec == CodecId::kCrossField),
          "ArchiveWriter: cross-field flag/codec mismatch");
  const TileGrid grid(meta.shape, meta.tile);
  expects(meta.tiles.size() == grid.num_tiles(),
          "ArchiveWriter: tile count disagrees with the field geometry");

  ArchiveFieldInfo entry = meta;
  entry.tiles.clear();
  entry.tiles.reserve(grid.num_tiles());
  for (std::size_t t = 0; t < grid.num_tiles(); ++t) {
    const std::vector<std::uint8_t> body = body_for(t);
    expects(!body.empty(), "ArchiveWriter: empty prebuilt tile body");
    ArchiveTileInfo te;
    te.offset = sink_.size();
    te.size = body.size();
    te.crc = archive_tile_crc(entry.name, t, body);
    entry.tiles.push_back(te);
    sink_.append(body);
  }
  pending_.push_back(std::move(entry));
}

std::uint32_t ArchiveWriter::finish() {
  expects(!finished_, "ArchiveWriter: archive already finished");
  expects(existing_ == nullptr || !pending_.empty(),
          "ArchiveWriter: epoch has no fields");
  finished_ = true;

  // The index: sealed fields in their existing order — a replaced field is
  // substituted *in place* so every surviving field keeps its index
  // position (the serving layer keys cached tiles by field index; stable
  // positions let an append invalidate only what actually changed) — then
  // the new fields in write order.
  std::vector<ArchiveFieldInfo> index = std::move(sealed_);
  for (const ArchiveFieldInfo& f : pending_) {
    const auto it =
        std::find_if(index.begin(), index.end(),
                     [&](const ArchiveFieldInfo& s) { return s.name == f.name; });
    if (it != index.end())
      *it = f;
    else
      index.push_back(f);
  }
  const std::vector<std::uint8_t> footer = encode_index(index);
  const std::uint64_t footer_offset = sink_.size();

  // Never publish what the reader refuses: the anchor graph the serving
  // layer walks, and the footer exactly as the reader will parse it.
  try {
    validate_anchor_graph(index);
    parse_archive_index(footer, footer_offset);
  } catch (const CorruptStream& e) {
    throw InvalidArgument(std::string("ArchiveWriter: refusing to seal an "
                                      "index the reader rejects: ") +
                          e.what());
  }

  // The commit protocol: bodies must be durable before any index points at
  // them (sync); the trailer is the commit point and the epoch exists only
  // once it is durable (commit). A crash anywhere in between leaves a tail
  // recovery-on-open discards.
  sink_.sync();
  sink_.append(footer);
  ByteWriter trailer;
  trailer.u32(Crc32::of(footer));
  trailer.u64(footer_offset);
  trailer.u64(footer.size());
  trailer.raw(kMagic);
  sink_.append(trailer.bytes());
  sink_.commit();
  return epoch_;
}

}  // namespace xfc
