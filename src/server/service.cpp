#include "server/service.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <optional>
#include <set>

#include "archive/archive_writer.hpp"
#include "archive/tile.hpp"
#include "core/error.hpp"
#include "io/stream.hpp"
#include "io/crc32.hpp"
#include "obs/json_writer.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"

namespace xfc::server {
namespace {

const char* codec_name(CodecId codec) {
  switch (codec) {
    case CodecId::kSz: return "sz";
    case CodecId::kZfp: return "zfp";
    case CodecId::kCrossField: return "crossfield";
    case CodecId::kInterp: return "interp";
    case CodecId::kSzClassic: return "classic";
  }
  return "unknown";
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

std::string shape_json(const Shape& shape) {
  std::string out = "[";
  for (std::size_t d = 0; d < shape.ndim(); ++d) {
    if (d != 0) out += ',';
    out += std::to_string(shape[d]);
  }
  return out + "]";
}

/// True when `header` (an If-None-Match value: `*` or a comma-separated
/// entity-tag list) matches `etag`. Weak-validator prefixes (`W/`) never
/// match — the region tag is strong, and strong comparison is what makes a
/// 304 safe for byte-range-equivalent uses.
bool etag_matches(const std::string& header, const std::string& etag) {
  std::size_t pos = 0;
  while (pos < header.size()) {
    while (pos < header.size() &&
           (header[pos] == ' ' || header[pos] == '\t' || header[pos] == ','))
      ++pos;
    std::size_t end = header.find(',', pos);
    if (end == std::string::npos) end = header.size();
    std::size_t last = end;
    while (last > pos &&
           (header[last - 1] == ' ' || header[last - 1] == '\t'))
      --last;
    const std::string candidate = header.substr(pos, last - pos);
    if (candidate == "*" || candidate == etag) return true;
    pos = end;
  }
  return false;
}

/// Parses "12,34" (rank entries) into bounds; false on any malformed part.
bool parse_bounds(const std::string& text, std::size_t ndim,
                  std::size_t out[3]) {
  std::size_t pos = 0;
  for (std::size_t d = 0; d < ndim; ++d) {
    std::size_t comma = text.find(',', pos);
    if (comma == std::string::npos) comma = text.size();
    if (comma == pos || comma - pos > 12) return false;
    std::size_t v = 0;
    for (std::size_t i = pos; i < comma; ++i) {
      if (text[i] < '0' || text[i] > '9') return false;
      v = v * 10 + static_cast<std::size_t>(text[i] - '0');
    }
    out[d] = v;
    pos = comma + 1;
    if (d + 1 < ndim && comma == text.size()) return false;
  }
  return pos > text.size();  // every byte consumed, no trailing components
}

}  // namespace

namespace {

TileCacheConfig cache_config(const ServiceConfig& config) {
  TileCacheConfig c;
  c.capacity_bytes = config.cache_bytes;
  c.shards = config.cache_shards;
  c.negative_ttl_ms = config.negative_ttl_ms;
  return c;
}

}  // namespace

ArchiveService::ArchiveService(std::shared_ptr<const ArchiveReader> reader,
                               ServiceConfig config)
    : reader_(std::move(reader)),
      config_(config),
      cache_(cache_config(config)),
      requests_(registry_.counter("xfs_requests_total",
                                  "Requests routed by this service")),
      region_requests_(registry_.counter("xfs_region_requests_total",
                                         "Region endpoint requests")),
      client_errors_(registry_.counter("xfs_client_errors_total",
                                       "Requests answered 4xx")),
      bytes_served_(registry_.counter("xfs_bytes_served_total",
                                      "Response body bytes served")),
      not_modified_(registry_.counter("xfs_not_modified_total",
                                      "Conditional requests answered 304")),
      degraded_requests_(
          registry_.counter("xfs_degraded_requests_total",
                            "Partial 200s with filled bad tiles")),
      failed_regions_(registry_.counter("xfs_failed_regions_total",
                                        "Region requests answered 502")),
      deadline_exceeded_(
          registry_.counter("xfs_deadline_exceeded_total",
                            "Region requests that blew the decode budget")),
      ingest_requests_(registry_.counter("xfs_ingest_requests_total",
                                         "PUT /field ingest requests")),
      ingest_bytes_(registry_.counter("xfs_ingest_bytes_total",
                                      "Ingested body bytes sealed")),
      ingest_errors_(registry_.counter("xfs_ingest_errors_total",
                                       "Ingest requests answered 4xx/5xx")),
      ingest_epochs_(registry_.counter("xfs_ingest_epochs_total",
                                       "Epochs sealed by live ingest")) {
  expects(reader_ != nullptr, "ArchiveService: null reader");
  archive_id_ = cache_.add_archive(reader_);
  // Cache and readiness counters stay owned by their structs; the registry
  // samples them at scrape time through callbacks.
  registry_.gauge_fn("xfs_ready", "1 while /readyz answers ready", [this] {
    return ready_.load(std::memory_order_acquire) ? 1.0 : 0.0;
  });
  const auto cache_stat = [this](std::uint64_t TileCacheStats::*member) {
    return [this, member] {
      return static_cast<double>(cache_.stats().*member);
    };
  };
  registry_.counter_fn("xfs_cache_hits_total", "Decoded-tile cache hits",
                       cache_stat(&TileCacheStats::hits));
  registry_.counter_fn("xfs_cache_misses_total", "Decoded-tile cache misses",
                       cache_stat(&TileCacheStats::misses));
  registry_.counter_fn("xfs_cache_evictions_total", "LRU evictions",
                       cache_stat(&TileCacheStats::evictions));
  registry_.counter_fn("xfs_cache_inflight_waits_total",
                       "Single-flight decode waits",
                       cache_stat(&TileCacheStats::inflight_waits));
  registry_.counter_fn("xfs_cache_decode_errors_total", "Tile decode errors",
                       cache_stat(&TileCacheStats::decode_errors));
  registry_.counter_fn("xfs_cache_negative_hits_total",
                       "Requests served a cached failure",
                       cache_stat(&TileCacheStats::negative_hits));
  registry_.gauge_fn("xfs_cache_entries", "Decoded tiles resident",
                     cache_stat(&TileCacheStats::entries));
  registry_.gauge_fn("xfs_cache_negative_entries",
                     "Negative-cache entries resident",
                     cache_stat(&TileCacheStats::negative_entries));
  registry_.gauge_fn("xfs_cache_bytes", "Decoded bytes resident",
                     cache_stat(&TileCacheStats::bytes));
  registry_.gauge_fn("xfs_cache_capacity_bytes", "Cache byte budget",
                     [this] { return static_cast<double>(
                                  cache_.capacity_bytes()); });
  // Per-shard occupancy/eviction-age gauges: the registry is label-free by
  // design, so the shard index lands in the metric name. Shard counts are
  // single digits; the names stay a fixed, greppable set.
  for (std::size_t i = 0; i < cache_.shard_count(); ++i) {
    const std::string prefix = "xfs_cache_shard" + std::to_string(i);
    registry_.gauge_fn(prefix + "_entries",
                       "Decoded tiles resident in this shard", [this, i] {
                         return static_cast<double>(
                             cache_.shard_stats(i).entries);
                       });
    registry_.gauge_fn(prefix + "_bytes", "Decoded bytes in this shard",
                       [this, i] {
                         return static_cast<double>(
                             cache_.shard_stats(i).bytes);
                       });
    registry_.gauge_fn(prefix + "_oldest_age_seconds",
                       "Age of this shard's LRU tail (next eviction victim)",
                       [this, i] {
                         return cache_.shard_stats(i).oldest_age_seconds;
                       });
  }
  // Pre-register the codec/HTTP-layer metrics so /metrics lists the whole
  // inventory even before the first decode exercises each path.
  obs::ensure_core_metrics();
}

HttpResponse ArchiveService::handle(const HttpRequest& request) {
  requests_.add();
  const std::string& path = request.path;
  if (request.method == "PUT") {
    // PUT /field/<name> — live ingest.
    if (path.rfind("/field/", 0) == 0) {
      const std::string name = path.substr(7);
      if (!name.empty() && name.find('/') == std::string::npos)
        return handle_ingest(name, request);
    }
    client_errors_.add();
    return HttpResponse::text(404, "no such endpoint\n");
  }
  if (request.method != "GET") {
    client_errors_.add();
    return HttpResponse::text(405, "only GET and PUT are served here\n");
  }
  if (path == "/healthz") return HttpResponse::text(200, "ok\n");
  if (path == "/readyz") {
    if (ready_.load(std::memory_order_acquire))
      return HttpResponse::text(200, "ready\n");
    HttpResponse resp = HttpResponse::text(503, "draining\n");
    resp.headers.emplace_back("Retry-After", "1");
    return resp;
  }
  // One snapshot per request: the handler works off the archive state the
  // request arrived at, however many epochs ingest seals meanwhile.
  const std::shared_ptr<const ArchiveReader> snapshot = reader();
  if (path == "/fields") return handle_fields(*snapshot);
  if (path == "/stats") {
    const bool v2 = request.query.find("format=v2") != std::string::npos;
    return handle_stats(v2);
  }
  if (path == "/metrics") return handle_metrics();
  if (path == "/debug/cache") return handle_debug_cache(*snapshot);
  if (path == "/debug/prof") return handle_debug_prof(request);

  // /field/<name>/region
  constexpr const char* kPrefix = "/field/";
  constexpr const char* kSuffix = "/region";
  if (path.rfind(kPrefix, 0) == 0 && path.size() > 7 + 7 &&
      path.compare(path.size() - 7, 7, kSuffix) == 0) {
    const std::string name = path.substr(7, path.size() - 7 - 7);
    if (!name.empty() && name.find('/') == std::string::npos)
      return handle_region(*snapshot, name, request);
  }
  client_errors_.add();
  return HttpResponse::text(404, "no such endpoint\n");
}

HttpResponse ArchiveService::handle_fields(const ArchiveReader& reader) const {
  std::string out = "[";
  bool first = true;
  for (const ArchiveFieldInfo& f : reader.fields()) {
    if (!first) out += ',';
    first = false;
    out += "\n  {\"name\": \"" + json_escape(f.name) + "\"";
    out += ", \"codec\": \"" + std::string(codec_name(f.codec)) + "\"";
    out += ", \"shape\": " + shape_json(f.shape);
    out += ", \"tile\": " + shape_json(f.tile);
    out += ", \"tiles\": " + std::to_string(f.tiles.size());
    out += ", \"compressed_bytes\": " + std::to_string(f.compressed_bytes());
    char eb[32];
    std::snprintf(eb, sizeof eb, "%.9g", f.abs_eb);
    out += ", \"abs_eb\": " + std::string(eb);
    out += ", \"anchors\": [";
    for (std::size_t i = 0; i < f.anchors.size(); ++i) {
      if (i != 0) out += ',';
      out += "\"" + json_escape(f.anchors[i]) + "\"";
    }
    out += "]}";
  }
  out += "\n]\n";
  return HttpResponse::json(std::move(out));
}

HttpResponse ArchiveService::handle_region(const ArchiveReader& reader,
                                           const std::string& field_name,
                                           const HttpRequest& request) {
  const auto start = std::chrono::steady_clock::now();
  region_requests_.add();
  const ArchiveFieldInfo* info = reader.find(field_name);
  if (info == nullptr) {
    client_errors_.add();
    return HttpResponse::text(404, "no such field: " + field_name + "\n");
  }
  const std::size_t ndim = info->shape.ndim();

  std::vector<std::pair<std::string, std::string>> params;
  if (!parse_query(request.query, params)) {
    client_errors_.add();
    return HttpResponse::text(400, "malformed query string\n");
  }
  std::string lo_text, hi_text, fmt = "f32", fill = "zero";
  bool allow_partial = false, want_trace = false;
  for (const auto& [key, value] : params) {
    if (key == "lo") lo_text = value;
    else if (key == "hi") hi_text = value;
    else if (key == "fmt") fmt = value;
    else if (key == "allow_partial") allow_partial = value == "1";
    else if (key == "fill") fill = value;
    else if (key == "trace") want_trace = value == "1";
  }
  if (fmt != "f32" && fmt != "json") {
    client_errors_.add();
    return HttpResponse::text(400, "fmt must be f32 or json\n");
  }
  if (fill != "zero" && fill != "nan") {
    client_errors_.add();
    return HttpResponse::text(400, "fill must be zero or nan\n");
  }
  std::size_t lo[3], hi[3];
  if (!parse_bounds(lo_text, ndim, lo) || !parse_bounds(hi_text, ndim, hi)) {
    client_errors_.add();
    return HttpResponse::text(
        400, "lo/hi must each give " + std::to_string(ndim) +
                 " comma-separated bounds\n");
  }
  std::size_t region_dims[3];
  std::size_t region_values = 1;
  for (std::size_t d = 0; d < ndim; ++d) {
    if (lo[d] >= hi[d] || hi[d] > info->shape[d]) {
      client_errors_.add();
      return HttpResponse::text(400, "empty or out-of-bounds region\n");
    }
    region_dims[d] = hi[d] - lo[d];
    region_values *= region_dims[d];
  }
  const std::size_t value_cap =
      fmt == "json" ? config_.max_json_values : config_.max_region_values;
  if (region_values > value_cap) {
    client_errors_.add();
    return HttpResponse::text(
        413, "region of " + std::to_string(region_values) +
                 " values exceeds the response cap of " +
                 std::to_string(value_cap) + " for fmt=" + fmt + "\n");
  }

  const TileGrid grid(info->shape, info->tile);
  const auto tiles =
      grid.tiles_in_region(std::span<const std::size_t>(lo, ndim),
                           std::span<const std::size_t>(hi, ndim));

  // trace=1 debug view: ensure a trace is active even when handle() is
  // called without the HTTP layer in front (tests, direct embedding).
  std::optional<obs::Trace> local_trace;
  std::optional<obs::TraceActivation> local_activation;
  if (want_trace && obs::enabled() && obs::Trace::current() == nullptr) {
    local_trace.emplace();
    local_activation.emplace(&*local_trace);
  }

  // Strong ETag from the index's per-tile CRCs (plus the query geometry
  // and format): the response bytes are a pure function of the covered
  // tile bodies — and, for cross-field targets, of their anchors' tile
  // bodies, so the whole anchor closure's tile CRCs fold in too (coarsely:
  // every anchor tile, not just the covering ones — an anchor re-encode
  // may invalidate more tags than strictly necessary, but a 304 can never
  // validate stale bytes). Equal tags therefore imply byte-identical
  // responses, and computing the tag needs no tile decode at all — a 304
  // costs only the index walk.
  // Stage spans land in Server-Timing (depth-1 children of the HTTP
  // layer's "request" root): etag -> tiles -> encode.
  std::optional<obs::SpanScope> stage;
  stage.emplace("etag");
  Crc32 etag_crc;
  etag_crc.update(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(info->name.data()),
      info->name.size()));
  std::uint8_t geom[1 + 2 * 3 * 8];
  geom[0] = fmt == "json" ? 1 : 0;
  std::size_t gpos = 1;
  for (std::size_t d = 0; d < ndim; ++d)
    for (const std::size_t v : {lo[d], hi[d]})
      for (unsigned byte = 0; byte < 8; ++byte)
        geom[gpos++] = static_cast<std::uint8_t>(v >> (8 * byte));
  etag_crc.update(std::span<const std::uint8_t>(geom, gpos));
  auto fold_crc = [&etag_crc](std::uint32_t crc) {
    const std::uint8_t c4[4] = {static_cast<std::uint8_t>(crc),
                                static_cast<std::uint8_t>(crc >> 8),
                                static_cast<std::uint8_t>(crc >> 16),
                                static_cast<std::uint8_t>(crc >> 24)};
    etag_crc.update(c4);
  };
  for (const std::size_t t : tiles) fold_crc(info->tiles[t].crc);
  if (!info->anchors.empty()) {
    // Anchor closure, breadth-first; the cache's add_archive already
    // validated the anchor graph as a DAG, so this terminates.
    std::vector<const ArchiveFieldInfo*> queue{info};
    std::set<std::string> seen{info->name};
    while (!queue.empty()) {
      const ArchiveFieldInfo* f = queue.back();
      queue.pop_back();
      for (const std::string& a : f->anchors) {
        if (!seen.insert(a).second) continue;
        const ArchiveFieldInfo* ai = reader.find(a);
        if (ai == nullptr) continue;  // unreachable post-validation
        for (const ArchiveTileInfo& t : ai->tiles) fold_crc(t.crc);
        queue.push_back(ai);
      }
    }
  }
  char etag_buf[16];
  std::snprintf(etag_buf, sizeof etag_buf, "\"%08x\"", etag_crc.value());
  const std::string etag(etag_buf);
  stage.reset();

  // A trace view is a debug artifact, never a cacheable representation:
  // skip conditional handling so it always shows a real assembly pass.
  if (!want_trace) {
    if (const std::string* inm = request.header("If-None-Match");
        inm != nullptr && etag_matches(*inm, etag)) {
      not_modified_.add();
      HttpResponse resp;
      resp.status = 304;
      resp.headers.emplace_back("ETag", etag);
      return resp;
    }
  }

  // Assemble the region from cached decoded tiles — the exact analogue of
  // ArchiveReader::read_region's crop-and-copy (same copy_tile_into_region
  // helper), so the bytes match it. Per-tile failures are collected, not
  // thrown: the response either names every bad tile (502) or — when the
  // client opted in with allow_partial=1 — serves what decoded with the
  // failed boxes filled and a manifest of the holes.
  F32Array out(Shape(std::span<const std::size_t>(region_dims, ndim)));
  if (fill == "nan")
    std::fill(out.data(), out.data() + out.size(),
              std::numeric_limits<float>::quiet_NaN());
  const std::size_t field_index =
      static_cast<std::size_t>(info - reader.fields().data());
  struct TileFailure {
    std::size_t ordinal;
    std::string message;
  };
  std::vector<TileFailure> failures;
  stage.emplace("tiles");
  for (const std::size_t t : tiles) {
    if (config_.request_deadline_ms > 0 &&
        std::chrono::steady_clock::now() - start >
            std::chrono::milliseconds(config_.request_deadline_ms)) {
      deadline_exceeded_.add();
      HttpResponse busy = HttpResponse::text(
          503, "request deadline exceeded, retry later\n");
      busy.headers.emplace_back("Retry-After", "1");
      return busy;
    }
    try {
      const std::shared_ptr<const Field> tile =
          cache_.get(archive_id_, field_index, t);
      copy_tile_into_region(out, std::span<const std::size_t>(lo, ndim),
                            std::span<const std::size_t>(hi, ndim),
                            tile->array(), grid.box(t));
    } catch (const XfcError& e) {
      failures.push_back({t, e.what()});
    }
  }
  stage.reset();

  if (!failures.empty() && !allow_partial) {
    failed_regions_.add();
    std::string body = "archive degraded: " +
                       std::to_string(failures.size()) +
                       " unreadable tile(s) in field '" + info->name + "':";
    const std::size_t shown = std::min<std::size_t>(failures.size(), 16);
    for (std::size_t i = 0; i < shown; ++i)
      body += (i == 0 ? " " : ", ") + std::to_string(failures[i].ordinal);
    if (shown < failures.size()) body += ", ...";
    body += "\nretry with allow_partial=1 for a best-effort response\n";
    return HttpResponse::text(502, std::move(body));
  }

  std::string shape_list;
  for (std::size_t d = 0; d < ndim; ++d) {
    if (d != 0) shape_list += ',';
    shape_list += std::to_string(region_dims[d]);
  }
  const bool degraded = !failures.empty();
  if (degraded) degraded_requests_.add();

  if (want_trace) {
    // Debug view: the region was assembled for real (the spans above show
    // true costs) but the response carries the span tree, not the data.
    obs::JsonWriter w;
    w.begin_object();
    w.field("field", info->name);
    w.field_raw("shape", "[" + shape_list + "]");
    w.field("values", static_cast<std::uint64_t>(region_values));
    w.field("degraded", degraded);
    if (obs::Trace* tr = obs::Trace::current(); tr != nullptr) {
      w.field("cache_hits", std::uint64_t{tr->cache_hits});
      w.field("cache_misses", std::uint64_t{tr->cache_misses});
      w.field("inflight_waits", std::uint64_t{tr->inflight_waits});
      // Always present (0 when complete): a consumer can tell a truncated
      // span tree from a short one without out-of-band knowledge.
      w.field("dropped_spans",
              static_cast<std::uint64_t>(tr->dropped_spans()));
      w.field_raw("spans", tr->spans_json());
      // The HTTP layer accounts drops for traces it owns; a locally
      // activated trace (direct handle() embedding) settles its own.
      if (local_trace && tr->dropped_spans() != 0)
        obs::trace_dropped_spans_total().add(tr->dropped_spans());
    }
    w.end_object();
    HttpResponse resp = HttpResponse::json(w.take() + "\n");
    bytes_served_.add(resp.body.size());
    return resp;
  }

  HttpResponse resp;
  stage.emplace("encode");
  if (fmt == "f32") {
    resp.content_type = "application/octet-stream";
    resp.body.assign(reinterpret_cast<const char*>(out.data()),
                     out.size() * sizeof(float));
    resp.headers.emplace_back("X-Xfc-Shape", shape_list);
    resp.headers.emplace_back("X-Xfc-Field", info->name);
  } else {
    std::string body = "{\"field\": \"" + json_escape(info->name) +
                       "\", \"shape\": [" + shape_list + "], \"values\": [";
    char num[32];
    for (std::size_t i = 0; i < out.size(); ++i) {
      if (i != 0) body += ',';
      // NaN fill serializes as null — "nan" is not JSON.
      if (std::isnan(out[i])) {
        body += "null";
        continue;
      }
      std::snprintf(num, sizeof num, "%.9g", static_cast<double>(out[i]));
      body += num;
    }
    body += "]";
    if (degraded) {
      body += ", \"tile_errors\": [";
      for (std::size_t i = 0; i < failures.size(); ++i) {
        if (i != 0) body += ',';
        body += "{\"tile\": " + std::to_string(failures[i].ordinal) +
                ", \"error\": \"" + json_escape(failures[i].message) + "\"}";
      }
      body += "]";
    }
    body += "}\n";
    resp = HttpResponse::json(std::move(body));
  }
  stage.reset();
  if (degraded) {
    // Manifest of the holes; no ETag — degraded bytes must never validate
    // a later conditional request as the real data.
    std::string bad;
    for (std::size_t i = 0; i < failures.size(); ++i) {
      if (i != 0) bad += ',';
      bad += std::to_string(failures[i].ordinal);
    }
    resp.headers.emplace_back("X-Xfc-Bad-Tiles", bad);
    resp.headers.emplace_back("X-Xfc-Tile-Errors",
                              std::to_string(failures.size()));
    resp.headers.emplace_back("X-Xfc-Fill", fill);
  } else {
    resp.headers.emplace_back("ETag", etag);
  }
  bytes_served_.add(resp.body.size());
  return resp;
}

namespace {

/// Parses "48,40" into up to 3 positive extents; false on malformed input.
bool parse_dims(const std::string& text, std::size_t out[3],
                std::size_t& ndim) {
  ndim = 0;
  std::size_t pos = 0;
  if (text.empty()) return false;
  while (true) {
    std::size_t comma = text.find(',', pos);
    if (comma == std::string::npos) comma = text.size();
    if (comma == pos || comma - pos > 9 || ndim >= 3) return false;
    std::size_t v = 0;
    for (std::size_t i = pos; i < comma; ++i) {
      if (text[i] < '0' || text[i] > '9') return false;
      v = v * 10 + static_cast<std::size_t>(text[i] - '0');
    }
    if (v == 0) return false;
    out[ndim++] = v;
    if (comma == text.size()) return true;
    pos = comma + 1;
  }
}

}  // namespace

HttpResponse ArchiveService::handle_ingest(const std::string& field_name,
                                           const HttpRequest& request) {
  ingest_requests_.add();
  const auto fail = [this](int status, std::string body,
                           const char* retry_after = nullptr) {
    ingest_errors_.add();
    if (status >= 400 && status < 500) client_errors_.add();
    HttpResponse resp = HttpResponse::text(status, std::move(body));
    if (retry_after != nullptr)
      resp.headers.emplace_back("Retry-After", retry_after);
    return resp;
  };
  if (config_.archive_path.empty())
    return fail(403, "ingest disabled on this service\n");
  // Drain refuses new writes before anything else is even parsed: once
  // set_ready(false) flips, no further epoch can start.
  if (!ready_.load(std::memory_order_acquire))
    return fail(503, "draining\n", "1");

  std::vector<std::pair<std::string, std::string>> params;
  if (!parse_query(request.query, params))
    return fail(400, "malformed query string\n");
  std::string shape_text, tile_text, mode = "rel", codec_text = "sz";
  double eb = 1e-3;
  for (const auto& [key, value] : params) {
    if (key == "shape") shape_text = value;
    else if (key == "tile") tile_text = value;
    else if (key == "mode") mode = value;
    else if (key == "codec") codec_text = value;
    else if (key == "eb") {
      char* end = nullptr;
      eb = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !std::isfinite(eb) ||
          eb <= 0)
        return fail(400, "eb must be a positive finite number\n");
    }
  }
  ArchiveFieldOptions options;
  if (mode == "rel") options.eb = ErrorBound::relative(eb);
  else if (mode == "abs") options.eb = ErrorBound::absolute(eb);
  else return fail(400, "mode must be rel or abs\n");
  if (codec_text == "sz") options.codec = CodecId::kSz;
  else if (codec_text == "classic") options.codec = CodecId::kSzClassic;
  else if (codec_text == "interp") options.codec = CodecId::kInterp;
  else if (codec_text == "zfp") options.codec = CodecId::kZfp;
  else return fail(400, "codec must be sz, classic, interp or zfp\n");

  std::size_t dims[3], ndim = 0;
  if (!parse_dims(shape_text, dims, ndim))
    return fail(400,
                "shape must give 1-3 comma-separated positive extents\n");
  std::size_t values = 1;
  for (std::size_t d = 0; d < ndim; ++d) values *= dims[d];
  if (values > config_.max_ingest_values)
    return fail(413, "field of " + std::to_string(values) +
                         " values exceeds the ingest cap of " +
                         std::to_string(config_.max_ingest_values) + "\n");
  if (request.body.size() != values * sizeof(float))
    return fail(400, "body must carry exactly " +
                         std::to_string(values * sizeof(float)) +
                         " bytes of raw little-endian float32\n");
  if (!tile_text.empty()) {
    std::size_t tdims[3], tndim = 0;
    if (!parse_dims(tile_text, tdims, tndim) || tndim != ndim)
      return fail(400, "tile rank must match shape\n");
    options.tile = Shape(std::span<const std::size_t>(tdims, tndim));
  }

  F32Array data(Shape(std::span<const std::size_t>(dims, ndim)));
  std::memcpy(data.data(), request.body.data(), request.body.size());

  // The whole append -> seal -> reopen -> swap sequence is one critical
  // section: one epoch in flight at a time on the archive file.
  const std::lock_guard<std::mutex> ingest_lock(ingest_mutex_);
  const std::shared_ptr<const ArchiveReader> snapshot = reader();
  const bool existed = snapshot->find(field_name) != nullptr;
  std::uint32_t sealed_epoch = 0;
  try {
    AppendFileSink sink(config_.archive_path, snapshot->logical_size());
    ArchiveWriter writer(sink, *snapshot);
    const Field field(field_name, std::move(data));
    if (existed)
      writer.replace_field(field, options);
    else
      writer.add_field(field, options);
    sealed_epoch = writer.finish();
  } catch (const InvalidArgument& e) {
    // The one 409 here: replacing a field that other fields anchor on
    // would break their bit-exact anchor contract.
    const std::string what = e.what();
    return fail(what.find("anchor") != std::string::npos ? 409 : 400,
                what + "\n");
  } catch (const XfcError& e) {
    return fail(500, std::string(e.what()) + "\n");
  }

  // The epoch is durable on disk; swap the serving state over to it. A
  // reopen failure past this point is an environment fault, not data loss
  // — the archive itself is sealed and valid.
  try {
    std::shared_ptr<const ArchiveReader> fresh =
        std::make_shared<const ArchiveReader>(
            ArchiveReader::open_file(config_.archive_path));
    cache_.update_archive(archive_id_, fresh);
    if (existed) {
      // Field indices are append-stable, so only the replaced field's
      // cached tiles (positive and negative) go; everything else stays
      // warm. New fields have no cached tiles to drop.
      const ArchiveFieldInfo* nf = fresh->find(field_name);
      cache_.invalidate(archive_id_, static_cast<std::size_t>(
                                         nf - fresh->fields().data()));
    }
    {
      const std::lock_guard<std::mutex> lock(reader_mutex_);
      reader_ = std::move(fresh);
    }
  } catch (const XfcError& e) {
    return fail(500, std::string("epoch sealed but reopen failed: ") +
                         e.what() + "\n");
  }

  ingest_bytes_.add(request.body.size());
  ingest_epochs_.add();
  HttpResponse resp = HttpResponse::json(
      "{\"field\": \"" + json_escape(field_name) +
      "\", \"epoch\": " + std::to_string(sealed_epoch) +
      ", \"created\": " + (existed ? "false" : "true") + "}\n");
  resp.status = existed ? 200 : 201;
  bytes_served_.add(resp.body.size());
  return resp;
}

namespace {

/// One registry's snapshot as a JSON object member: scalars under
/// "metrics", histograms under "histograms" (per-bucket counts, not
/// cumulative — a consumer can integrate, but cannot differentiate).
void snapshot_json(obs::JsonWriter& w, const std::string& key,
                   const obs::Registry& registry) {
  std::vector<obs::MetricValue> values;
  std::vector<obs::HistogramValue> histograms;
  registry.snapshot(values, histograms);
  w.begin_object(key);
  w.begin_array("metrics");
  for (const obs::MetricValue& m : values) {
    obs::JsonWriter e;
    e.begin_object();
    e.field("name", m.name);
    e.field("type", std::string(m.type));
    e.field("value", m.value);
    e.end_object();
    w.element_raw(e.take());
  }
  w.end_array();
  w.begin_array("histograms");
  for (const obs::HistogramValue& h : histograms) {
    obs::JsonWriter e;
    e.begin_object();
    e.field("name", h.name);
    e.begin_array("le");
    for (const double b : h.snap.bounds) e.element(b);
    e.end_array();
    e.begin_array("counts");
    for (const std::uint64_t c : h.snap.counts) e.element(c);
    e.end_array();
    e.field("sum", h.snap.sum);
    e.field("count", h.snap.count);
    e.end_object();
    w.element_raw(e.take());
  }
  w.end_array();
  w.end_object();
}

}  // namespace

HttpResponse ArchiveService::handle_stats(bool v2) const {
  if (v2) {
    obs::JsonWriter w;
    w.begin_object();
    snapshot_json(w, "service", registry_);
    snapshot_json(w, "process", obs::registry());
    w.end_object();
    return HttpResponse::json(w.take() + "\n");
  }
  // Legacy shape, frozen: field names, nesting, and the pretty-printed
  // layout are pinned by test_server — dashboards parse this.
  const TileCacheStats c = cache_.stats();
  obs::JsonWriter w(/*pretty=*/true);
  w.begin_object();
  w.field("requests", requests_.value());
  w.field("region_requests", region_requests_.value());
  w.field("client_errors", client_errors_.value());
  w.field("bytes_served", bytes_served_.value());
  w.field("not_modified", not_modified_.value());
  w.field("degraded_requests", degraded_requests_.value());
  w.field("failed_regions", failed_regions_.value());
  w.field("deadline_exceeded", deadline_exceeded_.value());
  w.field("ingest_requests", ingest_requests_.value());
  w.field("ingest_bytes", ingest_bytes_.value());
  w.field("ingest_errors", ingest_errors_.value());
  w.field("ingest_epochs", ingest_epochs_.value());
  w.field("ready", ready_.load());
  w.begin_object("cache");
  w.field("hits", c.hits);
  w.field("misses", c.misses);
  w.field("evictions", c.evictions);
  w.field("inflight_waits", c.inflight_waits);
  w.field("decode_errors", c.decode_errors);
  w.field("negative_hits", c.negative_hits);
  w.field("negative_entries", c.negative_entries);
  w.field("entries", c.entries);
  w.field("bytes", c.bytes);
  w.field("capacity_bytes", static_cast<std::uint64_t>(
                                cache_.capacity_bytes()));
  w.end_object();
  w.end_object();
  return HttpResponse::json(w.take());
}

HttpResponse ArchiveService::handle_metrics() const {
  std::string body = registry_.exposition();
  body += obs::registry().exposition();
  HttpResponse resp;
  resp.content_type = "text/plain; version=0.0.4; charset=utf-8";
  resp.body = std::move(body);
  return resp;
}

HttpResponse ArchiveService::handle_debug_cache(
    const ArchiveReader& reader) const {
  // Tile-access heatmap: field x tile ordinal -> counters, plus per-shard
  // occupancy. Parallel arrays (one per counter, indexed by ordinal) keep
  // the payload dense — a 10k-tile field is four 10k-int arrays, not 10k
  // objects.
  obs::JsonWriter w;
  w.begin_object();
  w.field("epoch", static_cast<std::uint64_t>(cache_.access_epoch()));
  w.field("capacity_bytes",
          static_cast<std::uint64_t>(cache_.capacity_bytes()));
  w.begin_array("shards");
  for (std::size_t i = 0; i < cache_.shard_count(); ++i) {
    const TileShardStats s = cache_.shard_stats(i);
    obs::JsonWriter e;
    e.begin_object();
    e.field("entries", s.entries);
    e.field("bytes", s.bytes);
    e.field("budget_bytes", s.budget_bytes);
    e.field("negative_entries", s.negative_entries);
    e.field("oldest_age_seconds", s.oldest_age_seconds);
    e.end_object();
    w.element_raw(e.take());
  }
  w.end_array();
  w.begin_array("fields");
  const auto& fields = reader.fields();
  for (std::size_t f = 0; f < fields.size(); ++f) {
    const std::vector<TileHeat> heat = cache_.field_heat(archive_id_, f);
    obs::JsonWriter e;
    e.begin_object();
    e.field("name", fields[f].name);
    e.field("tiles", static_cast<std::uint64_t>(heat.size()));
    e.begin_array("hits");
    for (const TileHeat& t : heat) e.element(std::uint64_t{t.hits});
    e.end_array();
    e.begin_array("misses");
    for (const TileHeat& t : heat) e.element(std::uint64_t{t.misses});
    e.end_array();
    e.begin_array("hot");
    for (const TileHeat& t : heat) e.element(std::uint64_t{t.hot});
    e.end_array();
    e.begin_array("last_epoch");
    for (const TileHeat& t : heat) e.element(std::uint64_t{t.last_epoch});
    e.end_array();
    e.end_object();
    w.element_raw(e.take());
  }
  w.end_array();
  w.end_object();
  return HttpResponse::json(w.take() + "\n");
}

HttpResponse ArchiveService::handle_debug_prof(
    const HttpRequest& request) const {
  double seconds = 2.0, hz = 97.0;
  std::vector<std::pair<std::string, std::string>> params;
  if (!parse_query(request.query, params))
    return HttpResponse::text(400, "malformed query string\n");
  for (const auto& [key, value] : params) {
    char* end = nullptr;
    const double v = std::strtod(value.c_str(), &end);
    if (end == value.c_str() || *end != '\0' || std::isnan(v))
      return HttpResponse::text(400, key + " must be a number\n");
    if (key == "seconds") seconds = v;
    else if (key == "hz") hz = v;
  }
  // Caps: this blocks one pool worker for the whole window, so a stray
  // curl can cost at most 30 s of one worker, and the per-thread rings are
  // sized to hold a full window at the clamped rate.
  seconds = std::clamp(seconds, 0.05, 30.0);
  hz = std::clamp(hz, 1.0, 999.0);
  if (obs::profiler_armed()) {
    HttpResponse resp =
        HttpResponse::text(409, "profiler already armed, retry later\n");
    resp.headers.emplace_back("Retry-After", "2");
    return resp;
  }
  const obs::ProfileReport report = obs::profile_for(seconds, hz);
  if (report.hz == 0.0)  // lost the arm race to a concurrent request
    return HttpResponse::text(409, "profiler already armed, retry later\n");
  HttpResponse resp;
  resp.content_type = "text/plain; charset=utf-8";
  resp.body = report.folded;
  resp.headers.emplace_back("X-Xfc-Prof-Samples",
                            std::to_string(report.samples));
  resp.headers.emplace_back("X-Xfc-Prof-Dropped",
                            std::to_string(report.dropped));
  resp.headers.emplace_back("X-Xfc-Prof-Threads",
                            std::to_string(report.threads));
  return resp;
}

}  // namespace xfc::server
