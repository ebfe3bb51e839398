// XFS serving-subsystem tests: the sharded decoded-tile cache (bit-identity
// with direct reads, single-flight decode under contention, LRU eviction at
// tiny budgets, anchor resolution through the cache), the per-tile decode
// entry point, anchor-graph validation, and the HTTP layer (endpoints over
// real loopback sockets, keep-alive/pipelining, and a malformed-request
// fuzz suite that must answer clean 4xx/5xx without killing the server).

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <thread>

#include "archive/archive_reader.hpp"
#include "archive/archive_writer.hpp"
#include "archive/tile.hpp"
#include "core/rng.hpp"
#include "crossfield/crossfield.hpp"
#include "server/http.hpp"
#include "server/service.hpp"
#include "server/tile_cache.hpp"
#include "test_util.hpp"

namespace xfc {
namespace {

using server::ArchiveService;
using server::HttpClient;
using server::HttpRequest;
using server::HttpResponse;
using server::HttpServer;
using server::TileCache;
using server::TileCacheConfig;

Field smooth_field(const std::string& name, const Shape& shape,
                   std::uint64_t seed) {
  Rng rng(seed);
  F32Array a(shape);
  const std::size_t w = shape[shape.ndim() - 1];
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double x = static_cast<double>(i % w) / 7.0;
    const double y = static_cast<double>(i / w) / 11.0;
    a[i] = static_cast<float>(std::sin(x) * std::cos(y) * 20.0 +
                              rng.normal(0, 0.1));
  }
  return Field(name, std::move(a));
}

/// Archive with one field per codec, 32x32 tiles over a ragged 70x90 grid.
std::shared_ptr<const ArchiveReader> make_multi_codec_archive(
    std::vector<std::uint8_t>& storage) {
  VectorSink sink;
  ArchiveWriter writer(sink);
  ArchiveFieldOptions opts;
  opts.eb = ErrorBound::relative(1e-3);
  opts.tile = Shape{32, 32};
  const std::pair<const char*, CodecId> codecs[] = {
      {"f_sz", CodecId::kSz},
      {"f_classic", CodecId::kSzClassic},
      {"f_interp", CodecId::kInterp},
      {"f_zfp", CodecId::kZfp},
  };
  std::uint64_t seed = 7;
  for (const auto& [name, codec] : codecs) {
    opts.codec = codec;
    writer.add_field(smooth_field(name, Shape{70, 90}, seed++), opts);
  }
  writer.finish();
  storage = sink.take();
  return std::make_shared<const ArchiveReader>(
      ArchiveReader::open_memory(storage));
}

/// Anchor pair + cross-field target (16x16 tiles, quick CFNN).
std::shared_ptr<const ArchiveReader> make_cross_field_archive(
    std::vector<std::uint8_t>& storage) {
  const Shape shape{40, 48};
  Rng rng(31);
  Field target("TGT", F32Array(shape));
  Field a0("A0", F32Array(shape));
  for (std::size_t i = 0; i < target.size(); ++i) {
    const double x = static_cast<double>(i % 48) / 6.0;
    const double y = static_cast<double>(i / 48) / 9.0;
    const double base = std::sin(x) * std::cos(y) * 15.0;
    a0.array()[i] = static_cast<float>(base + rng.normal(0, 0.05));
    target.array()[i] = static_cast<float>(0.8 * base + rng.normal(0, 0.05));
  }
  CfnnTrainOptions train;
  train.epochs = 4;
  train.patches_per_epoch = 16;
  train.patch = 16;
  train.batch = 8;
  const CfnnModel model =
      train_cross_field_model(target, {&a0}, CfnnConfig{8, 4, 3}, train);

  VectorSink sink;
  ArchiveWriter writer(sink);
  ArchiveFieldOptions opts;
  opts.eb = ErrorBound::relative(1e-3);
  opts.tile = Shape{16, 16};
  opts.keep_reconstruction = true;
  writer.add_field(a0, opts);
  writer.add_cross_field(target, {"A0"}, model, opts);
  writer.finish();
  storage = sink.take();
  return std::make_shared<const ArchiveReader>(
      ArchiveReader::open_memory(storage));
}

HttpRequest region_request(const std::string& field, const std::string& lo,
                           const std::string& hi,
                           const std::string& fmt = "") {
  HttpRequest req;
  req.method = "GET";
  req.path = "/field/" + field + "/region";
  req.query = "lo=" + lo + "&hi=" + hi;
  if (!fmt.empty()) req.query += "&fmt=" + fmt;
  return req;
}

std::string field_bytes(const Field& f) {
  return std::string(reinterpret_cast<const char*>(f.data()),
                     f.size() * sizeof(float));
}

// -- read_tile: the public per-tile decode entry point -----------------------

TEST(ReadTile, MatchesFullDecodeCropPerCodec) {
  std::vector<std::uint8_t> storage;
  const auto reader = make_multi_codec_archive(storage);
  for (const ArchiveFieldInfo& info : reader->fields()) {
    const Field full = reader->read_field(info.name);
    const TileGrid grid(info.shape, info.tile);
    for (std::size_t t = 0; t < grid.num_tiles(); ++t) {
      const Field tile = reader->read_tile(info, t, {});
      const TileBox box = grid.box(t);
      ASSERT_EQ(tile.shape(), box.extents);
      const F32Array crop = extract_tile(full.array(), box);
      ASSERT_EQ(tile.array(), crop) << info.name << " tile " << t;
    }
  }
}

TEST(ReadTile, CrossFieldResolvesAnchorsItself) {
  std::vector<std::uint8_t> storage;
  const auto reader = make_cross_field_archive(storage);
  const ArchiveFieldInfo& tgt = *reader->find("TGT");
  const Field full = reader->read_field("TGT");
  const TileGrid grid(tgt.shape, tgt.tile);
  for (std::size_t t = 0; t < grid.num_tiles(); ++t) {
    const Field tile = reader->read_tile(tgt, t, {});
    ASSERT_EQ(tile.array(), extract_tile(full.array(), grid.box(t)));
  }
}

TEST(ReadTile, RejectsOutOfRangeOrdinal) {
  std::vector<std::uint8_t> storage;
  const auto reader = make_multi_codec_archive(storage);
  EXPECT_THROW(reader->read_tile("f_sz", 1u << 20), InvalidArgument);
}

// -- Anchor graph validation -------------------------------------------------

ArchiveFieldInfo synthetic_field(const std::string& name,
                                 std::vector<std::string> anchors) {
  ArchiveFieldInfo f;
  f.name = name;
  f.shape = Shape{8, 8};
  f.tile = Shape{8, 8};
  f.anchors = std::move(anchors);
  return f;
}

TEST(AnchorGraph, AcceptsDagsRejectsCyclesAndDangles) {
  // Diamond DAG: D -> B -> A, D -> C -> A.
  EXPECT_NO_THROW(validate_anchor_graph(
      {synthetic_field("A", {}), synthetic_field("B", {"A"}),
       synthetic_field("C", {"A"}), synthetic_field("D", {"B", "C"})}));

  // Two-cycle.
  EXPECT_THROW(validate_anchor_graph({synthetic_field("A", {"B"}),
                                      synthetic_field("B", {"A"})}),
               CorruptStream);

  // Self-loop.
  EXPECT_THROW(validate_anchor_graph({synthetic_field("A", {"A"})}),
               CorruptStream);

  // Dangling anchor reference.
  EXPECT_THROW(validate_anchor_graph({synthetic_field("A", {"missing"})}),
               CorruptStream);

  // Shape mismatch between target and anchor.
  auto big = synthetic_field("B", {"A"});
  big.shape = Shape{16, 16};
  EXPECT_THROW(validate_anchor_graph({synthetic_field("A", {}), big}),
               CorruptStream);
}

// -- Tile cache --------------------------------------------------------------

TEST(TileCacheTest, ServesBitIdenticalTilesAndCountsHits) {
  std::vector<std::uint8_t> storage;
  const auto reader = make_multi_codec_archive(storage);
  TileCache cache(TileCacheConfig{8u << 20, 4});
  const std::uint64_t id = cache.add_archive(reader);

  const ArchiveFieldInfo& info = *reader->find("f_sz");
  const Field direct = reader->read_tile(info, 3, {});
  const auto cached = cache.get(id, "f_sz", 3);
  ASSERT_NE(cached, nullptr);
  EXPECT_EQ(cached->array(), direct.array());

  // Second get is a hit returning the same object.
  const auto again = cache.get(id, "f_sz", 3);
  EXPECT_EQ(again.get(), cached.get());
  const auto stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_GT(stats.bytes, 0u);

  EXPECT_THROW(cache.get(id, "nope", 0), InvalidArgument);
  EXPECT_THROW(cache.get(id, "f_sz", 1u << 20), InvalidArgument);
  EXPECT_THROW(cache.get(id + 100, "f_sz", 0), InvalidArgument);
}

TEST(TileCacheTest, SingleFlightDecodesColdTileOnce) {
  std::vector<std::uint8_t> storage;
  const auto reader = make_multi_codec_archive(storage);
  TileCache cache(TileCacheConfig{8u << 20, 4});
  const std::uint64_t id = cache.add_archive(reader);

  constexpr int kThreads = 8;
  std::atomic<int> at_gate{0};
  std::vector<std::shared_ptr<const Field>> results(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      // Spin barrier so every thread requests the cold tile together.
      at_gate.fetch_add(1);
      while (at_gate.load() < kThreads) std::this_thread::yield();
      results[i] = cache.get(id, "f_interp", 2);
    });
  }
  for (auto& t : threads) t.join();

  for (int i = 0; i < kThreads; ++i) {
    ASSERT_NE(results[i], nullptr);
    EXPECT_EQ(results[i].get(), results[0].get()) << "thread " << i;
  }
  const auto stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u) << "cold tile must decode exactly once";
  EXPECT_EQ(stats.hits + stats.inflight_waits,
            static_cast<std::uint64_t>(kThreads - 1));
  EXPECT_EQ(results[0]->array(),
            reader->read_tile(*reader->find("f_interp"), 2, {}).array());
}

TEST(TileCacheTest, LruEvictsAtTinyBudget) {
  std::vector<std::uint8_t> storage;
  const auto reader = make_multi_codec_archive(storage);
  // Budget for roughly three 32x32 tiles; one shard so LRU order is global.
  const std::size_t tile_bytes = 32 * 32 * sizeof(float);
  TileCache cache(TileCacheConfig{3 * tile_bytes + 512, 1});
  const std::uint64_t id = cache.add_archive(reader);

  for (std::size_t t = 0; t < 6; ++t) cache.get(id, "f_sz", t);
  auto stats = cache.stats();
  EXPECT_EQ(stats.misses, 6u);
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LE(stats.bytes, 3 * tile_bytes + 512);
  EXPECT_LT(stats.entries, 6u);

  // Tile 0 was the coldest; it must have been evicted and re-decode.
  cache.get(id, "f_sz", 0);
  stats = cache.stats();
  EXPECT_EQ(stats.misses, 7u);

  // The most recent tile (5) must still be resident.
  cache.get(id, "f_sz", 5);
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(TileCacheTest, CrossFieldAnchorsResolveThroughCache) {
  std::vector<std::uint8_t> storage;
  const auto reader = make_cross_field_archive(storage);
  TileCache cache(TileCacheConfig{8u << 20, 2});
  const std::uint64_t id = cache.add_archive(reader);

  const ArchiveFieldInfo& tgt = *reader->find("TGT");
  const Field direct = reader->read_tile(tgt, 1, {});
  const auto cached = cache.get(id, "TGT", 1);
  EXPECT_EQ(cached->array(), direct.array());

  // Decoding the target tile populated its anchor tile too (2 misses: the
  // target and one A0 tile — same grid geometry, so exactly one).
  auto stats = cache.stats();
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.entries, 2u);

  // The anchor's tile is now a hit for direct anchor reads.
  cache.get(id, "A0", 1);
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(TileCacheTest, InvalidateDropsPositiveAndNegativeEntriesOfOneField) {
  std::vector<std::uint8_t> storage;
  make_multi_codec_archive(storage);
  // Poison one f_sz tile so the field accrues a negative entry too.
  {
    const ArchiveReader clean = ArchiveReader::open_memory(storage);
    const ArchiveTileInfo& t = clean.find("f_sz")->tiles[1];
    storage[t.offset + t.size / 2] ^= 0x10;
  }
  auto reader = std::make_shared<const ArchiveReader>(
      ArchiveReader::open_memory(storage));
  TileCacheConfig config{8u << 20, 4};
  config.negative_ttl_ms = 60'000;  // would pin the error for the whole test
  TileCache cache(config);
  const std::uint64_t id = cache.add_archive(reader);

  const auto t0 = cache.get(id, "f_sz", 0);
  const auto t3 = cache.get(id, "f_sz", 3);
  const auto other = cache.get(id, "f_classic", 0);
  EXPECT_THROW(cache.get(id, "f_sz", 1), CorruptStream);
  EXPECT_THROW(cache.get(id, "f_sz", 1), CorruptStream);  // negative hit
  ASSERT_EQ(cache.stats().entries, 3u);
  ASSERT_EQ(cache.stats().negative_entries, 1u);
  ASSERT_EQ(cache.stats().misses, 4u);
  ASSERT_EQ(cache.stats().negative_hits, 1u);

  // f_sz is field index 0; the sweep drops its two cached tiles AND the
  // poisoned entry — a re-ingested field must not serve a stale backoff
  // any more than stale bytes — and touches nothing else.
  EXPECT_EQ(cache.invalidate(id, 0), 3u);
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_EQ(cache.stats().negative_entries, 0u);

  // The untouched field is still warm; f_sz decodes from scratch.
  EXPECT_EQ(cache.get(id, "f_classic", 0).get(), other.get());
  const auto t0b = cache.get(id, "f_sz", 0);
  ASSERT_NE(t0b, nullptr);
  EXPECT_EQ(t0b->array(), t0->array());
  EXPECT_NE(t0b.get(), t0.get());
  EXPECT_THROW(cache.get(id, "f_sz", 1), CorruptStream);  // fresh attempt
  EXPECT_EQ(cache.stats().misses, 6u);
  EXPECT_EQ(cache.stats().negative_entries, 1u);

  // Per-tile variant: drops exactly the named entry (t3 went with the
  // field-level sweep and was never re-fetched).
  EXPECT_EQ(cache.invalidate_tile(id, 0, 0), 1u);
  EXPECT_EQ(cache.stats().entries, 1u);  // f_classic 0 alone
  (void)t3;
}

TEST(TileCacheTest, UpdateArchiveKeepsUnchangedFieldsWarm) {
  std::vector<std::uint8_t> storage;
  const auto reader = make_multi_codec_archive(storage);
  TileCache cache(TileCacheConfig{8u << 20, 4});
  const std::uint64_t id = cache.add_archive(reader);
  const auto warm = cache.get(id, "f_sz", 3);

  // Append an epoch in memory and swap the reader under the same id.
  VectorSink sink(storage);
  ArchiveWriter writer(sink, *reader);
  ArchiveFieldOptions opts;
  opts.eb = ErrorBound::relative(1e-3);
  opts.tile = Shape{32, 32};
  writer.add_field(smooth_field("fresh", Shape{70, 90}, 99), opts);
  writer.finish();
  const std::vector<std::uint8_t> bytes = sink.take();
  auto fresh = std::make_shared<const ArchiveReader>(
      ArchiveReader::open_memory(bytes));
  cache.update_archive(id, fresh);

  // Field indices are append-stable, so the warm tile is still a hit —
  // the same object, no re-decode.
  EXPECT_EQ(cache.get(id, "f_sz", 3).get(), warm.get());
  EXPECT_EQ(cache.stats().hits, 1u);

  // The appended field decodes through the swapped reader.
  const auto nf = cache.get(id, "fresh", 0);
  ASSERT_NE(nf, nullptr);
  EXPECT_EQ(nf->array(),
            fresh->read_tile(*fresh->find("fresh"), 0, {}).array());

  EXPECT_THROW(cache.update_archive(id + 7, fresh), InvalidArgument);
}

// -- Service endpoints (no sockets) ------------------------------------------

class ServiceRegionPerCodec : public ::testing::TestWithParam<const char*> {};

TEST_P(ServiceRegionPerCodec, ResponseBytesMatchDirectReadRegion) {
  std::vector<std::uint8_t> storage;
  const auto reader = make_multi_codec_archive(storage);
  ArchiveService service(reader);
  const std::string field = GetParam();

  // Tile-interior, tile-straddling, and edge-clipped (ragged tile) regions.
  const struct {
    const char* lo;
    const char* hi;
    std::size_t lo_v[2], hi_v[2];
  } cases[] = {
      {"34,36", "60,62", {34, 36}, {60, 62}},
      {"0,0", "70,90", {0, 0}, {70, 90}},
      {"65,80", "70,90", {65, 80}, {70, 90}},
      {"31,31", "33,33", {31, 31}, {33, 33}},
  };
  for (const auto& c : cases) {
    const HttpResponse resp =
        service.handle(region_request(field, c.lo, c.hi));
    ASSERT_EQ(resp.status, 200) << resp.body;
    EXPECT_EQ(resp.content_type, "application/octet-stream");
    const Field direct = reader->read_region(
        field, std::span<const std::size_t>(c.lo_v, 2),
        std::span<const std::size_t>(c.hi_v, 2));
    EXPECT_EQ(resp.body, field_bytes(direct))
        << field << " [" << c.lo << ") x [" << c.hi << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(Codecs, ServiceRegionPerCodec,
                         ::testing::Values("f_sz", "f_classic", "f_interp",
                                           "f_zfp"));

TEST(Service, CrossFieldRegionMatchesDirectReadRegion) {
  std::vector<std::uint8_t> storage;
  const auto reader = make_cross_field_archive(storage);
  ArchiveService service(reader);

  const HttpResponse resp =
      service.handle(region_request("TGT", "10,12", "30,40"));
  ASSERT_EQ(resp.status, 200) << resp.body;
  const std::size_t lo[] = {10, 12}, hi[] = {30, 40};
  EXPECT_EQ(resp.body, field_bytes(reader->read_region("TGT", lo, hi)));
  EXPECT_GT(service.cache().stats().entries, 0u);
}

TEST(Service, ConcurrentColdRegionRequestsAgreeWithDirectRead) {
  std::vector<std::uint8_t> storage;
  const auto reader = make_cross_field_archive(storage);
  ArchiveService service(reader);
  const std::size_t lo[] = {0, 0}, hi[] = {40, 48};
  const std::string expected = field_bytes(reader->read_region("TGT", lo, hi));

  constexpr int kThreads = 6;
  std::atomic<int> at_gate{0};
  std::vector<std::string> bodies(kThreads);
  std::vector<int> statuses(kThreads, 0);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      at_gate.fetch_add(1);
      while (at_gate.load() < kThreads) std::this_thread::yield();
      const HttpResponse r =
          service.handle(region_request("TGT", "0,0", "40,48"));
      statuses[i] = r.status;
      bodies[i] = r.body;
    });
  }
  for (auto& t : threads) t.join();
  for (int i = 0; i < kThreads; ++i) {
    EXPECT_EQ(statuses[i], 200);
    EXPECT_EQ(bodies[i], expected) << "thread " << i;
  }
  // Single-flight: each TGT tile and each anchor tile decoded exactly once
  // (same 16x16 grid on both fields => 2 * num_tiles misses).
  const TileGrid grid(Shape{40, 48}, Shape{16, 16});
  EXPECT_EQ(service.cache().stats().misses, 2 * grid.num_tiles());
}

TEST(Service, JsonFormatAndValidation) {
  std::vector<std::uint8_t> storage;
  const auto reader = make_multi_codec_archive(storage);
  ArchiveService service(reader);

  const HttpResponse json =
      service.handle(region_request("f_sz", "0,0", "2,2", "json"));
  ASSERT_EQ(json.status, 200);
  EXPECT_EQ(json.content_type, "application/json");
  EXPECT_NE(json.body.find("\"shape\": [2,2]"), std::string::npos);
  EXPECT_NE(json.body.find("\"values\": ["), std::string::npos);

  // /fields lists every field with its geometry.
  HttpRequest fields_req;
  fields_req.method = "GET";
  fields_req.path = "/fields";
  const HttpResponse fields = service.handle(fields_req);
  ASSERT_EQ(fields.status, 200);
  for (const char* name : {"f_sz", "f_classic", "f_interp", "f_zfp"})
    EXPECT_NE(fields.body.find(name), std::string::npos);
  EXPECT_NE(fields.body.find("\"shape\": [70,90]"), std::string::npos);

  // Bad requests answer 4xx, never throw.
  EXPECT_EQ(service.handle(region_request("nope", "0,0", "2,2")).status, 404);
  EXPECT_EQ(service.handle(region_request("f_sz", "0,0", "99,99")).status,
            400);
  EXPECT_EQ(service.handle(region_request("f_sz", "5,5", "5,5")).status, 400);
  EXPECT_EQ(service.handle(region_request("f_sz", "0", "2,2")).status, 400);
  EXPECT_EQ(service.handle(region_request("f_sz", "0,0,0", "2,2,2")).status,
            400);
  EXPECT_EQ(service.handle(region_request("f_sz", "a,b", "2,2")).status, 400);
  EXPECT_EQ(service.handle(region_request("f_sz", "0,0", "2,2", "xml")).status,
            400);
  HttpRequest post = region_request("f_sz", "0,0", "2,2");
  post.method = "POST";
  EXPECT_EQ(service.handle(post).status, 405);
}

TEST(Service, RegionResponseSizeIsCapped) {
  std::vector<std::uint8_t> storage;
  const auto reader = make_multi_codec_archive(storage);
  server::ServiceConfig config;
  config.max_region_values = 1000;  // 70x90 field = 6300 values
  config.max_json_values = 16;
  ArchiveService service(reader, config);

  EXPECT_EQ(service.handle(region_request("f_sz", "0,0", "70,90")).status,
            413);
  EXPECT_EQ(service.handle(region_request("f_sz", "0,0", "5,5", "json"))
                .status,
            413);
  // Within the caps both formats still serve.
  EXPECT_EQ(service.handle(region_request("f_sz", "0,0", "20,20")).status,
            200);
  EXPECT_EQ(service.handle(region_request("f_sz", "0,0", "4,4", "json"))
                .status,
            200);
}

TEST(Service, RegionEtagIsStrongAndStable) {
  std::vector<std::uint8_t> storage;
  const auto reader = make_multi_codec_archive(storage);
  ArchiveService service(reader);

  auto etag_of = [](const HttpResponse& r) {
    for (const auto& [n, v] : r.headers)
      if (n == "ETag") return v;
    return std::string();
  };

  const auto r1 = service.handle(region_request("f_sz", "10,20", "50,70"));
  ASSERT_EQ(r1.status, 200);
  const std::string etag = etag_of(r1);
  ASSERT_FALSE(etag.empty());
  ASSERT_EQ(etag.front(), '"');
  ASSERT_EQ(etag.back(), '"');

  // Same query -> same tag; different geometry or format -> different tag.
  EXPECT_EQ(etag_of(service.handle(region_request("f_sz", "10,20", "50,70"))),
            etag);
  EXPECT_NE(etag_of(service.handle(region_request("f_sz", "10,20", "50,71"))),
            etag);
  EXPECT_NE(etag_of(service.handle(
                region_request("f_sz", "10,20", "50,70", "json"))),
            etag);

  // If-None-Match with the tag answers 304 with no body and no decode.
  HttpRequest req = region_request("f_sz", "10,20", "50,70");
  req.headers.emplace_back("If-None-Match", etag);
  const auto not_modified = service.handle(req);
  EXPECT_EQ(not_modified.status, 304);
  EXPECT_TRUE(not_modified.body.empty());
  EXPECT_EQ(etag_of(not_modified), etag);

  // A list of tags and the * wildcard both match per RFC 9110.
  req.headers.back().second = "\"deadbeef\", " + etag;
  EXPECT_EQ(service.handle(req).status, 304);
  req.headers.back().second = "*";
  EXPECT_EQ(service.handle(req).status, 304);
  // A non-matching tag serves the full response.
  req.headers.back().second = "\"deadbeef\"";
  EXPECT_EQ(service.handle(req).status, 200);
}

TEST(Service, CrossFieldRegionEtagFoldsAnchorTiles) {
  std::vector<std::uint8_t> storage;
  const auto reader = make_cross_field_archive(storage);
  ArchiveService service(reader);

  auto etag_of = [](const HttpResponse& r) {
    for (const auto& [n, v] : r.headers)
      if (n == "ETag") return v;
    return std::string();
  };

  // Cross-field regions revalidate like any other (the tag folds the
  // anchor closure's tile CRCs — response bytes depend on anchor bodies
  // too, so a target-tiles-only tag could 304 stale data after an anchor
  // re-encode).
  const auto r1 = service.handle(region_request("TGT", "4,4", "20,28"));
  ASSERT_EQ(r1.status, 200);
  const std::string etag = etag_of(r1);
  ASSERT_FALSE(etag.empty());
  EXPECT_EQ(etag_of(service.handle(region_request("TGT", "4,4", "20,28"))),
            etag);
  HttpRequest req = region_request("TGT", "4,4", "20,28");
  req.headers.emplace_back("If-None-Match", etag);
  const auto revalidated = service.handle(req);
  EXPECT_EQ(revalidated.status, 304);
  EXPECT_TRUE(revalidated.body.empty());
}

// -- HTTP over real loopback sockets -----------------------------------------

struct LoopbackServer {
  std::vector<std::uint8_t> storage;
  std::shared_ptr<const ArchiveReader> reader;
  std::unique_ptr<ArchiveService> service;
  std::unique_ptr<HttpServer> http;

  LoopbackServer() {
    reader = make_multi_codec_archive(storage);
    service = std::make_unique<ArchiveService>(reader);
    server::HttpConfig config;
    config.max_request_bytes = 16u << 10;
    http = std::make_unique<HttpServer>(
        config,
        [this](const HttpRequest& r) { return service->handle(r); });
    http->start();
  }
  ~LoopbackServer() { http->stop(); }
  std::uint16_t port() const { return http->port(); }
};

TEST(Http, ServesEndpointsOverLoopback) {
  LoopbackServer s;
  HttpClient client("127.0.0.1", s.port());

  EXPECT_EQ(client.get("/healthz").status, 200);

  const auto fields = client.get("/fields");
  EXPECT_EQ(fields.status, 200);
  EXPECT_EQ(fields.content_type, "application/json");
  EXPECT_NE(fields.body.find("f_interp"), std::string::npos);

  // The acceptance pin: HTTP region bytes == ArchiveReader::read_region.
  const auto region = client.get("/field/f_sz/region?lo=10,20&hi=50,70");
  ASSERT_EQ(region.status, 200);
  const std::size_t lo[] = {10, 20}, hi[] = {50, 70};
  EXPECT_EQ(region.body, field_bytes(s.reader->read_region("f_sz", lo, hi)));

  // Repeat request is served from cache, still identical.
  const auto warm = client.get("/field/f_sz/region?lo=10,20&hi=50,70");
  EXPECT_EQ(warm.body, region.body);
  EXPECT_GT(s.service->cache().stats().hits, 0u);

  const auto stats = client.get("/stats");
  EXPECT_EQ(stats.status, 200);
  EXPECT_NE(stats.body.find("\"cache\""), std::string::npos);

  EXPECT_EQ(client.get("/nope").status, 404);
  EXPECT_EQ(client.get("/field/f_sz/region?lo=0,0&hi=999,999").status, 400);

  const auto hs = s.http->stats();
  EXPECT_GE(hs.requests, 7u);
  EXPECT_EQ(hs.bad_requests, 0u);
}

TEST(Http, LegacyStatsShapeIsPinned) {
  // The legacy /stats body is a frozen contract — dashboards parse these
  // exact keys out of the pretty-printed layout. The registry migration
  // behind it (PR 8) must never change a byte of the shape.
  std::vector<std::uint8_t> storage;
  ArchiveService service(make_multi_codec_archive(storage));
  HttpRequest req;
  req.method = "GET";
  req.path = "/field/f_sz/region";
  req.query = "lo=10,20&hi=50,70";
  ASSERT_EQ(service.handle(req).status, 200);
  ASSERT_EQ(service.handle(req).status, 200);  // warm repeat: a cache hit

  HttpRequest stats_req;
  stats_req.method = "GET";
  stats_req.path = "/stats";
  const auto stats = service.handle(stats_req);
  ASSERT_EQ(stats.status, 200);
  const std::string& body = stats.body;
  for (const char* pin : {
           "{\n  \"requests\": 3,\n",
           "\"region_requests\": 2,\n",
           "\"client_errors\": 0,\n",
           "\"not_modified\": 0,\n",
           "\"degraded_requests\": 0,\n",
           "\"failed_regions\": 0,\n",
           "\"deadline_exceeded\": 0,\n",
           "\"ingest_requests\": 0,\n",
           "\"ingest_bytes\": 0,\n",
           "\"ingest_errors\": 0,\n",
           "\"ingest_epochs\": 0,\n",
           "\"ready\": true,\n",
           "  \"cache\": {\n    \"hits\": ",
           "\"misses\": 6,\n",       // one decode per covered 32x32 tile
           "\"evictions\": 0,\n",
           "\"inflight_waits\": 0,\n",
           "\"decode_errors\": 0,\n",
           "\"negative_hits\": 0,\n",
           "\"negative_entries\": 0,\n",
           "\"entries\": 6,\n",
           "\"capacity_bytes\": ",
       })
    EXPECT_NE(body.find(pin), std::string::npos) << "missing pin: " << pin
                                                 << "\nbody:\n" << body;
  EXPECT_EQ(body.find("\"bytes_served\": 0"), std::string::npos);
  EXPECT_EQ(body.back(), '\n');
}

TEST(Http, ConditionalGetOverLoopback) {
  LoopbackServer s;
  HttpClient client("127.0.0.1", s.port());

  const auto cold = client.get("/field/f_sz/region?lo=10,20&hi=50,70");
  ASSERT_EQ(cold.status, 200);
  const std::string* etag = cold.header("ETag");
  ASSERT_NE(etag, nullptr);

  // Revalidation with the tag costs a 304 and no region bytes.
  const auto revalidated = client.get("/field/f_sz/region?lo=10,20&hi=50,70",
                                      {{"If-None-Match", *etag}});
  EXPECT_EQ(revalidated.status, 304);
  EXPECT_TRUE(revalidated.body.empty());
  const std::string* etag2 = revalidated.header("ETag");
  ASSERT_NE(etag2, nullptr);
  EXPECT_EQ(*etag2, *etag);

  // A stale tag re-serves the full (bit-identical) response.
  const auto stale = client.get("/field/f_sz/region?lo=10,20&hi=50,70",
                                {{"If-None-Match", "\"00000000\""}});
  EXPECT_EQ(stale.status, 200);
  EXPECT_EQ(stale.body, cold.body);

  // The stats endpoint accounts the 304s.
  const auto stats = client.get("/stats");
  EXPECT_NE(stats.body.find("\"not_modified\": 1"), std::string::npos);
}

// -- Live ingest (PUT /field/<name>) -----------------------------------------

std::string f32_body(const std::vector<float>& values) {
  return std::string(reinterpret_cast<const char*>(values.data()),
                     values.size() * sizeof(float));
}

TEST(Http, LiveIngestAppendsEpochsOverLoopback) {
  const std::string path = ::testing::TempDir() + "xfc_server_ingest." +
                           std::to_string(::getpid()) + ".xfa";
  std::remove(path.c_str());
  {
    FileSink sink(path);
    ArchiveWriter writer(sink);
    ArchiveFieldOptions opts;
    opts.eb = ErrorBound::relative(1e-3);
    opts.tile = Shape{32, 32};
    writer.add_field(smooth_field("base", Shape{70, 90}, 7), opts);
    writer.finish();
  }
  auto reader = std::make_shared<const ArchiveReader>(
      ArchiveReader::open_file(path));
  server::ServiceConfig sconfig;
  sconfig.archive_path = path;
  ArchiveService service(reader, sconfig);
  server::HttpConfig hconfig;
  hconfig.max_request_bytes = 1u << 20;
  HttpServer http(hconfig, [&service](const HttpRequest& r) {
    return service.handle(r);
  });
  http.start();
  HttpClient client("127.0.0.1", http.port());

  // Warm the base field: ingest of other fields must not disturb it.
  const auto base_cold = client.get("/field/base/region?lo=0,0&hi=32,32");
  ASSERT_EQ(base_cold.status, 200);

  std::vector<float> values(24 * 16);
  for (std::size_t i = 0; i < values.size(); ++i)
    values[i] = static_cast<float>(i % 31) * 0.5f;
  const std::string target = "/field/live?shape=24,16&mode=abs&eb=0.01&tile=16,16";
  const auto created = client.put(target, f32_body(values));
  ASSERT_EQ(created.status, 201) << created.body;
  EXPECT_NE(created.body.find("\"epoch\": 1"), std::string::npos);
  EXPECT_NE(created.body.find("\"created\": true"), std::string::npos);

  const auto live1 = client.get("/field/live/region?lo=0,0&hi=24,16");
  ASSERT_EQ(live1.status, 200);
  ASSERT_EQ(live1.body.size(), values.size() * sizeof(float));
  const float* got = reinterpret_cast<const float*>(live1.body.data());
  for (std::size_t i = 0; i < values.size(); ++i)
    ASSERT_NEAR(got[i], values[i], 0.0101f) << i;
  const std::string* etag1 = live1.header("ETag");
  ASSERT_NE(etag1, nullptr);
  const std::string etag_created = *etag1;

  // Replace: same name, shifted values — next epoch, fresh bytes, fresh
  // ETag. The invalidation must evict the old tiles, or these reads would
  // serve the superseded epoch from cache.
  for (float& v : values) v += 5.0f;
  const auto replaced = client.put(target, f32_body(values));
  ASSERT_EQ(replaced.status, 200) << replaced.body;
  EXPECT_NE(replaced.body.find("\"epoch\": 2"), std::string::npos);
  EXPECT_NE(replaced.body.find("\"created\": false"), std::string::npos);
  const auto live2 = client.get("/field/live/region?lo=0,0&hi=24,16");
  ASSERT_EQ(live2.status, 200);
  const float* got2 = reinterpret_cast<const float*>(live2.body.data());
  for (std::size_t i = 0; i < values.size(); ++i)
    ASSERT_NEAR(got2[i], values[i], 0.0101f) << i;
  const std::string* etag2 = live2.header("ETag");
  ASSERT_NE(etag2, nullptr);
  EXPECT_NE(*etag2, etag_created);

  // The base field survived both ingests byte-identically (its indices are
  // append-stable; nothing invalidated its cache entries).
  const auto base_warm = client.get("/field/base/region?lo=0,0&hi=32,32");
  EXPECT_EQ(base_warm.body, base_cold.body);

  // Malformed ingests answer 400 without touching the archive.
  EXPECT_EQ(client.put("/field/x?shape=8,8&eb=0.01", "abc").status, 400);
  EXPECT_EQ(client.put("/field/x?eb=0.01", "abcd").status, 400);
  EXPECT_EQ(client.put("/field/x?shape=4&mode=banana&eb=0.01",
                       std::string(16, '\0'))
                .status,
            400);

  // Drain refuses new writes before anything else.
  service.set_ready(false);
  const auto drained =
      client.put("/field/late?shape=4&mode=abs&eb=0.01", std::string(16, '\0'));
  EXPECT_EQ(drained.status, 503);
  EXPECT_NE(drained.header("Retry-After"), nullptr);
  service.set_ready(true);

  const auto stats = client.get("/stats");
  EXPECT_NE(stats.body.find("\"ingest_epochs\": 2"), std::string::npos);
  EXPECT_NE(stats.body.find("\"ingest_errors\": 4"), std::string::npos);
  http.stop();

  // Offline reopen: the file carries every sealed epoch, scrub-clean.
  const ArchiveReader check = ArchiveReader::open_file(path);
  EXPECT_EQ(check.epoch_count(), 3u);
  EXPECT_EQ(check.fields().size(), 2u);
  EXPECT_TRUE(check.scrub().clean());
  std::remove(path.c_str());
}

TEST(Http, IngestDisabledAnswers403) {
  LoopbackServer s;  // no archive_path configured
  HttpClient client("127.0.0.1", s.port());
  const auto resp = client.put("/field/x?shape=2,2&mode=abs&eb=0.01",
                               std::string(16, '\0'));
  EXPECT_EQ(resp.status, 403);
}

TEST(Service, IngestRefusesReplacingAnchoredField) {
  const std::string path = ::testing::TempDir() + "xfc_server_anchor." +
                           std::to_string(::getpid()) + ".xfa";
  std::vector<std::uint8_t> storage;
  make_cross_field_archive(storage);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(storage.data()),
              static_cast<std::streamsize>(storage.size()));
  }
  auto reader = std::make_shared<const ArchiveReader>(
      ArchiveReader::open_file(path));
  server::ServiceConfig sconfig;
  sconfig.archive_path = path;
  ArchiveService service(reader, sconfig);

  HttpRequest req;
  req.method = "PUT";
  req.path = "/field/A0";
  req.query = "shape=40,48&mode=abs&eb=0.01";
  req.body = std::string(40 * 48 * sizeof(float), '\0');
  // TGT anchors on A0: replacing A0 would break TGT's bit-exact anchor
  // reconstructions, so the ingest answers 409.
  EXPECT_EQ(service.handle(req).status, 409);

  // The cross-field target itself is fair game (nothing anchors on it);
  // the replacement is recoded with a plain codec.
  req.path = "/field/TGT";
  const auto ok = service.handle(req);
  EXPECT_EQ(ok.status, 200) << ok.body;
  std::remove(path.c_str());
}

TEST(Service, IngestRefusesNonFiniteBodyWithoutSealing) {
  const std::string path = ::testing::TempDir() + "xfc_server_nan." +
                           std::to_string(::getpid()) + ".xfa";
  {
    FileSink sink(path);
    ArchiveWriter writer(sink);
    writer.add_field(smooth_field("base", Shape{24, 16}, 7));
    writer.finish();
  }
  const std::size_t sealed_size = ArchiveReader::open_file(path).logical_size();
  auto reader = std::make_shared<const ArchiveReader>(
      ArchiveReader::open_file(path));
  server::ServiceConfig sconfig;
  sconfig.archive_path = path;
  ArchiveService service(reader, sconfig);

  std::vector<float> values(24 * 16, 1.5f);
  values[100] = std::numeric_limits<float>::quiet_NaN();
  HttpRequest req;
  req.method = "PUT";
  req.path = "/field/live";
  // zfp is the codec that used to seal such a body, with a finite wrong
  // value where the NaN was.
  req.query = "shape=24,16&mode=abs&eb=0.01&codec=zfp";
  req.body = f32_body(values);
  const HttpResponse resp = service.handle(req);
  EXPECT_EQ(resp.status, 400) << resp.body;
  EXPECT_NE(resp.body.find("100"), std::string::npos) << resp.body;

  // No epoch was sealed: the file is byte-for-byte the one epoch it was.
  const ArchiveReader check = ArchiveReader::open_file(path);
  EXPECT_EQ(check.epoch_count(), 1u);
  EXPECT_EQ(check.logical_size(), sealed_size);
  EXPECT_EQ(check.recovered_bytes_discarded(), 0u);
  EXPECT_EQ(check.find("live"), nullptr);
  std::remove(path.c_str());
}

TEST(Http, ClientHonorsRetryAfterOn503) {
  std::atomic<int> remaining{2};
  server::HttpConfig config;
  HttpServer http(config, [&remaining](const HttpRequest&) {
    if (remaining.fetch_sub(1) > 0) {
      HttpResponse resp = HttpResponse::text(503, "overloaded\n");
      resp.headers.emplace_back("Retry-After", "0");
      return resp;
    }
    return HttpResponse::text(200, "ok\n");
  });
  http.start();

  // The default client surfaces the 503: overload-shedding tests (and
  // callers that want to make their own pushback decisions) must see it.
  {
    HttpClient client("127.0.0.1", http.port());
    EXPECT_EQ(client.get("/x").status, 503);
  }

  // An opt-in client consumes the server's Retry-After and re-issues.
  remaining.store(2);
  server::HttpClientConfig cconfig;
  cconfig.retry_503 = true;
  cconfig.max_retries = 3;
  HttpClient client("127.0.0.1", http.port(), cconfig);
  const auto resp = client.get("/x");
  EXPECT_EQ(resp.status, 200);
  EXPECT_EQ(resp.body, "ok\n");

  // A 503 storm deeper than the retry budget surfaces the last 503.
  remaining.store(100);
  EXPECT_EQ(client.get("/x").status, 503);
  http.stop();
}

TEST(Http, KeepAliveServesManyRequestsOnOneConnection) {
  LoopbackServer s;
  HttpClient client("127.0.0.1", s.port());
  for (int i = 0; i < 32; ++i)
    ASSERT_EQ(client.get("/healthz").status, 200) << "request " << i;
  // One client, one connection: keep-alive actually held.
  EXPECT_EQ(s.http->stats().accepted, 1u);
}

TEST(Http, PipelinedRequestsEachGetAResponse) {
  LoopbackServer s;
  const std::string two =
      "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
      "GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n";
  const std::string reply = server::http_raw_exchange("127.0.0.1", s.port(), two);
  std::size_t count = 0, pos = 0;
  while ((pos = reply.find("HTTP/1.1 200", pos)) != std::string::npos) {
    ++count;
    pos += 1;
  }
  EXPECT_EQ(count, 2u);
}

TEST(Http, FuzzMalformedRequestsAnswerCleanErrorsAndServerSurvives) {
  LoopbackServer s;

  const struct {
    const char* name;
    std::string payload;
    const char* expect_prefix;  // "" = connection close with no bytes is ok
  } cases[] = {
      {"not-http", "garbage\r\n\r\n", "HTTP/1.1 400"},
      {"spaces-only", "   \r\n\r\n", "HTTP/1.1 400"},
      {"bad-version", "GET / HTTP/9.9\r\n\r\n", "HTTP/1.1 505"},
      {"not-http-at-all", "SSH-2.0-OpenSSH_9.0\r\n\r\n", "HTTP/1.1 400"},
      {"ctl-in-method", std::string("G\x01T / HTTP/1.1\r\n\r\n"),
       "HTTP/1.1 400"},
      {"no-target", "GET HTTP/1.1\r\n\r\n", "HTTP/1.1 400"},
      {"relative-target", "GET nope HTTP/1.1\r\n\r\n", "HTTP/1.1 400"},
      {"bad-escape", "GET /%zz HTTP/1.1\r\n\r\n", "HTTP/1.1 400"},
      {"obs-fold", "GET / HTTP/1.1\r\nA: b\r\n c\r\n\r\n", "HTTP/1.1 400"},
      {"colonless-header", "GET / HTTP/1.1\r\nnope\r\n\r\n", "HTTP/1.1 400"},
      {"bad-content-length",
       "GET / HTTP/1.1\r\nContent-Length: banana\r\n\r\n", "HTTP/1.1 400"},
      {"huge-content-length",
       "GET / HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n", "HTTP/1.1 413"},
      {"chunked", "GET / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
       "HTTP/1.1 501"},
      {"dup-content-length",
       "GET / HTTP/1.1\r\nContent-Length: 0\r\nContent-Length: 4\r\n\r\n",
       "HTTP/1.1 400"},
      {"long-target",
       "GET /" + std::string(20000, 'a') + " HTTP/1.1\r\n\r\n",
       "HTTP/1.1 414"},
      {"oversized-headers",
       "GET / HTTP/1.1\r\n" +
           [] {
             std::string h;
             for (int i = 0; i < 200; ++i)
               h += "X-Pad-" + std::to_string(i) + ": " +
                    std::string(400, 'y') + "\r\n";
             return h;
           }() +
           "\r\n",
       "HTTP/1.1 431"},
      {"truncated", "GET /healthz HT", ""},
      {"empty", "", ""},
      {"nul-bytes", std::string("\0\0\0\0", 4), ""},
  };

  for (const auto& c : cases) {
    const std::string reply =
        server::http_raw_exchange("127.0.0.1", s.port(), c.payload);
    if (c.expect_prefix[0] == '\0') {
      EXPECT_TRUE(reply.empty() || reply.rfind("HTTP/1.1 4", 0) == 0)
          << c.name << " got: " << reply.substr(0, 40);
    } else {
      EXPECT_EQ(reply.rfind(c.expect_prefix, 0), 0u)
          << c.name << " got: " << reply.substr(0, 40);
    }
    // The server must survive every one of these and keep serving.
    HttpClient probe("127.0.0.1", s.port());
    ASSERT_EQ(probe.get("/healthz").status, 200) << "dead after " << c.name;
  }
  EXPECT_GT(s.http->stats().bad_requests, 0u);
}

TEST(Http, ConcurrentClientsGetConsistentRegions) {
  LoopbackServer s;
  const std::size_t lo[] = {0, 0}, hi[] = {70, 90};
  const std::string expected =
      field_bytes(s.reader->read_region("f_classic", lo, hi));

  constexpr int kClients = 4;
  std::vector<std::thread> threads;
  std::vector<int> failures(kClients, 0);
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      HttpClient client("127.0.0.1", s.port());
      for (int r = 0; r < 4; ++r) {
        const auto resp =
            client.get("/field/f_classic/region?lo=0,0&hi=70,90");
        if (resp.status != 200 || resp.body != expected) ++failures[i];
      }
    });
  }
  for (auto& t : threads) t.join();
  for (int i = 0; i < kClients; ++i) EXPECT_EQ(failures[i], 0);

  // 70x90 over 32x32 tiles = 9 tiles; every one decoded exactly once.
  EXPECT_EQ(s.service->cache().stats().misses, 9u);
}

}  // namespace
}  // namespace xfc
