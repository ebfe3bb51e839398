// XFA1 tiled-archive tests: grid geometry, per-codec round trips at the
// monolithic error bound, region reads bit-identical to cropped full
// decodes, the tiled anchor contract for cross-field targets, and the
// file-backed path.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>

#include <unistd.h>

#include "archive/archive_reader.hpp"
#include "archive/archive_writer.hpp"
#include "archive/tile.hpp"
#include "core/rng.hpp"
#include "crossfield/multifield.hpp"
#include "io/file.hpp"
#include "metrics/metrics.hpp"
#include "sz/compressor.hpp"
#include "test_util.hpp"

namespace xfc {
namespace {

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

CfnnTrainOptions quick_train() {
  CfnnTrainOptions t;
  t.epochs = 4;
  t.patches_per_epoch = 16;
  t.patch = 16;
  t.batch = 8;
  return t;
}

// -- Tile grid geometry ------------------------------------------------------

TEST(TileGrid, CountsAndRaggedBoxes) {
  const TileGrid g(Shape{70, 90}, Shape{32, 32});
  EXPECT_EQ(g.tiles_along(0), 3u);
  EXPECT_EQ(g.tiles_along(1), 3u);
  EXPECT_EQ(g.num_tiles(), 9u);

  const TileBox first = g.box(0);
  EXPECT_EQ(first.lo[0], 0u);
  EXPECT_EQ(first.extents, (Shape{32, 32}));

  // Bottom-right corner tile is ragged on both axes: 70-64=6, 90-64=26.
  const TileBox last = g.box(8);
  EXPECT_EQ(last.lo[0], 64u);
  EXPECT_EQ(last.lo[1], 64u);
  EXPECT_EQ(last.extents, (Shape{6, 26}));

  // Every point is covered exactly once.
  std::vector<int> hits(70 * 90, 0);
  for (std::size_t t = 0; t < g.num_tiles(); ++t) {
    const TileBox b = g.box(t);
    for (std::size_t i = 0; i < b.extents[0]; ++i)
      for (std::size_t j = 0; j < b.extents[1]; ++j)
        ++hits[(b.lo[0] + i) * 90 + b.lo[1] + j];
  }
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(TileGrid, DefaultTileClipsToField) {
  EXPECT_EQ(TileGrid::default_tile(Shape{100}), (Shape{100}));
  EXPECT_EQ(TileGrid::default_tile(Shape{512, 512}), (Shape{256, 256}));
  EXPECT_EQ(TileGrid::default_tile(Shape{40, 700}), (Shape{40, 256}));
  EXPECT_EQ(TileGrid::default_tile(Shape{100, 100, 100}), (Shape{64, 64, 64}));
}

TEST(TileGrid, TilesInRegion) {
  const TileGrid g(Shape{64, 64}, Shape{16, 16});  // 4x4 grid
  // A region strictly inside tile (1,2).
  const std::size_t lo1[] = {18, 36}, hi1[] = {30, 44};
  EXPECT_EQ(g.tiles_in_region(lo1, hi1), (std::vector<std::size_t>{6}));
  // A region straddling a 2x2 block of tiles.
  const std::size_t lo2[] = {15, 15}, hi2[] = {17, 17};
  EXPECT_EQ(g.tiles_in_region(lo2, hi2),
            (std::vector<std::size_t>{0, 1, 4, 5}));
  // The whole field touches every tile.
  const std::size_t lo3[] = {0, 0}, hi3[] = {64, 64};
  EXPECT_EQ(g.tiles_in_region(lo3, hi3).size(), 16u);
}

TEST(TileGrid, ExtractInsertRoundTrip3D) {
  const Field f = smooth_field("f", Shape{9, 10, 11}, 1);
  const TileGrid g(f.shape(), Shape{4, 4, 4});
  F32Array rebuilt(f.shape());
  for (std::size_t t = 0; t < g.num_tiles(); ++t) {
    const TileBox b = g.box(t);
    insert_tile(rebuilt, b, extract_tile(f.array(), b));
  }
  EXPECT_EQ(rebuilt, f.array());
}

// -- Round trips per codec ---------------------------------------------------

class ArchiveCodecRoundtrip : public ::testing::TestWithParam<CodecId> {};

TEST_P(ArchiveCodecRoundtrip, TiledRoundTripHoldsMonolithicBound) {
  // 70x90 with 32x32 tiles: ragged tiles on both axes.
  const Field f = smooth_field("fld", Shape{70, 90}, 7);
  ArchiveFieldOptions opts;
  opts.codec = GetParam();
  opts.eb = ErrorBound::relative(1e-3);
  opts.tile = Shape{32, 32};

  VectorSink sink;
  ArchiveWriter writer(sink);
  writer.add_field(f, opts);
  writer.finish();
  const auto bytes = sink.take();

  ArchiveReader reader = ArchiveReader::open_memory(bytes);
  ASSERT_EQ(reader.fields().size(), 1u);
  EXPECT_EQ(reader.fields()[0].tiles.size(), 9u);

  const Field out = reader.read_field("fld");
  EXPECT_EQ(out.name(), "fld");
  ASSERT_EQ(out.shape(), f.shape());
  // The configured bound is resolved against the FULL field's range, so
  // the tiled round trip must satisfy exactly the monolithic guarantee.
  const double abs_eb = opts.eb.absolute_for(f.value_range());
  EXPECT_LE(max_abs_error(f.array().span(), out.array().span()),
            test::bound_tolerance(abs_eb, f));
}

INSTANTIATE_TEST_SUITE_P(Codecs, ArchiveCodecRoundtrip,
                         ::testing::Values(CodecId::kSz, CodecId::kSzClassic,
                                           CodecId::kInterp, CodecId::kZfp));

TEST(Archive, TiledSzReconstructionMatchesMonolithic) {
  // Dual quantization is pointwise, so the tiled decode must be
  // bit-identical to the monolithic reconstruction at the same absolute
  // bound — the property that makes tiling transparent to anchors.
  const Field f = smooth_field("fld", Shape{60, 44}, 9);
  const double abs_eb = 1e-3 * f.value_range();

  ArchiveFieldOptions opts;
  opts.eb = ErrorBound::absolute(abs_eb);
  opts.tile = Shape{16, 16};
  VectorSink sink;
  ArchiveWriter writer(sink);
  writer.add_field(f, opts);
  writer.finish();
  const auto bytes = sink.take();
  const Field tiled = ArchiveReader::open_memory(bytes).read_field("fld");

  SzOptions mono;
  mono.eb = ErrorBound::absolute(abs_eb);
  const Field ref = sz_reconstruct(f, mono);
  EXPECT_EQ(tiled.array(), ref.array());
}

TEST(Archive, RoundTrip1DAnd3D) {
  for (const Shape& shape : {Shape{5000}, Shape{20, 24, 28}}) {
    const Field f = smooth_field("f", shape, 11);
    ArchiveFieldOptions opts;
    opts.tile = shape.ndim() == 1 ? Shape{700} : Shape{8, 8, 8};
    VectorSink sink;
    ArchiveWriter writer(sink);
    writer.add_field(f, opts);
    writer.finish();
    const auto bytes = sink.take();
    const Field out = ArchiveReader::open_memory(bytes).read_field("f");
    const double abs_eb = opts.eb.absolute_for(f.value_range());
    EXPECT_LE(max_abs_error(f.array().span(), out.array().span()),
              test::bound_tolerance(abs_eb, f))
        << shape.ndim() << "D";
  }
}

// -- Region reads ------------------------------------------------------------

TEST(Archive, ReadRegionBitIdenticalToCroppedFullDecode) {
  const Field f = smooth_field("fld", Shape{70, 90}, 13);
  ArchiveFieldOptions opts;
  opts.tile = Shape{32, 32};
  VectorSink sink;
  ArchiveWriter writer(sink);
  writer.add_field(f, opts);
  writer.finish();
  const auto bytes = sink.take();
  ArchiveReader reader = ArchiveReader::open_memory(bytes);
  const Field full = reader.read_field("fld");

  Rng rng(17);
  for (int trial = 0; trial < 12; ++trial) {
    std::size_t lo[2], hi[2];
    for (int d = 0; d < 2; ++d) {
      const std::size_t n = f.shape()[d];
      lo[d] = rng.uniform_index(n - 1);
      hi[d] = lo[d] + 1 + rng.uniform_index(n - lo[d]);
    }
    const Field region = reader.read_region("fld", lo, hi);
    ASSERT_EQ(region.shape(), (Shape{hi[0] - lo[0], hi[1] - lo[1]}));
    for (std::size_t i = 0; i < region.shape()[0]; ++i)
      ASSERT_EQ(0, std::memcmp(&region.array()(i, 0),
                               &full.array()(lo[0] + i, lo[1]),
                               region.shape()[1] * sizeof(float)))
          << "trial " << trial << " row " << i;
  }
}

TEST(Archive, ReadRegion3D) {
  const Field f = smooth_field("fld", Shape{20, 24, 28}, 19);
  ArchiveFieldOptions opts;
  opts.tile = Shape{8, 8, 8};
  VectorSink sink;
  ArchiveWriter writer(sink);
  writer.add_field(f, opts);
  writer.finish();
  const auto bytes = sink.take();
  ArchiveReader reader = ArchiveReader::open_memory(bytes);
  const Field full = reader.read_field("fld");

  const std::size_t lo[] = {3, 6, 9}, hi[] = {14, 20, 25};
  const Field region = reader.read_region("fld", lo, hi);
  ASSERT_EQ(region.shape(), (Shape{11, 14, 16}));
  for (std::size_t i = 0; i < 11; ++i)
    for (std::size_t j = 0; j < 14; ++j)
      for (std::size_t k = 0; k < 16; ++k)
        ASSERT_EQ(region.array()(i, j, k),
                  full.array()(lo[0] + i, lo[1] + j, lo[2] + k));
}

TEST(Archive, ReadRegionRejectsBadBounds) {
  const Field f = smooth_field("fld", Shape{40, 40}, 23);
  VectorSink sink;
  ArchiveWriter writer(sink);
  writer.add_field(f, ArchiveFieldOptions{});
  writer.finish();
  const auto bytes = sink.take();
  ArchiveReader reader = ArchiveReader::open_memory(bytes);
  const std::size_t lo_bad[] = {10, 10}, hi_bad[] = {10, 20};  // empty
  EXPECT_THROW(reader.read_region("fld", lo_bad, hi_bad), InvalidArgument);
  const std::size_t lo_oob[] = {0, 0}, hi_oob[] = {41, 40};
  EXPECT_THROW(reader.read_region("fld", lo_oob, hi_oob), InvalidArgument);
  EXPECT_THROW(reader.read_field("nope"), InvalidArgument);
}

// -- Cross-field tiling ------------------------------------------------------

struct TinySet {
  Field target;
  Field a0, a1;
};

TinySet make_tiny(const Shape& shape, std::uint64_t seed) {
  Rng rng(seed);
  TinySet s{Field("TGT", F32Array(shape)), Field("A0", F32Array(shape)),
            Field("A1", F32Array(shape))};
  const std::size_t w = shape[shape.ndim() - 1];
  for (std::size_t i = 0; i < s.target.size(); ++i) {
    const double x = static_cast<double>(i % w) / 6.0;
    const double y = static_cast<double>(i / w) / 9.0;
    const double base = std::sin(x) * std::cos(y) * 15.0;
    const double second = std::cos(x * 0.7) * 8.0;
    s.a0.array()[i] = static_cast<float>(base + rng.normal(0, 0.05));
    s.a1.array()[i] = static_cast<float>(second + rng.normal(0, 0.05));
    s.target.array()[i] = static_cast<float>(
        0.8 * base + 0.3 * second * second / 8.0 + rng.normal(0, 0.05));
  }
  return s;
}

TEST(Archive, CrossFieldTiledAnchorContract) {
  const TinySet s = make_tiny(Shape{40, 48}, 31);
  const auto eb = ErrorBound::relative(1e-3);

  const CfnnModel model = train_cross_field_model(
      s.target, {&s.a0, &s.a1}, CfnnConfig{8, 4, 3}, quick_train());

  ArchiveFieldOptions aopts;
  aopts.eb = eb;
  aopts.tile = Shape{16, 16};
  aopts.keep_reconstruction = true;

  VectorSink sink;
  ArchiveWriter writer(sink);
  writer.add_field(s.a0, aopts);
  writer.add_field(s.a1, aopts);
  writer.add_cross_field(s.target, {"A0", "A1"}, model, aopts);
  writer.finish();

  // The writer retained decoder-identical reconstructions; grab the
  // target's before the sink is consumed.
  ASSERT_NE(writer.reconstruction("TGT"), nullptr);
  const Field encoder_side = *writer.reconstruction("TGT");
  const auto bytes = sink.take();

  ArchiveReader reader = ArchiveReader::open_memory(bytes);
  ASSERT_EQ(reader.fields().size(), 3u);
  EXPECT_TRUE(reader.find("TGT")->cross_field);
  EXPECT_EQ(reader.find("TGT")->anchors,
            (std::vector<std::string>{"A0", "A1"}));

  // Anchor contract under tiling: encoder- and decoder-side target
  // reconstructions must be bit-identical.
  const Field decoded = reader.read_field("TGT");
  EXPECT_EQ(decoded.array(), encoder_side.array());

  const double abs_eb = eb.absolute_for(s.target.value_range());
  EXPECT_LE(max_abs_error(s.target.array().span(), decoded.array().span()),
            test::bound_tolerance(abs_eb, s.target));

  // Region read of a cross-field target (pulls anchor tiles recursively)
  // matches the cropped full decode bit-for-bit.
  const std::size_t lo[] = {10, 12}, hi[] = {30, 40};
  const Field region = reader.read_region("TGT", lo, hi);
  for (std::size_t i = 0; i < 20; ++i)
    for (std::size_t j = 0; j < 28; ++j)
      ASSERT_EQ(region.array()(i, j),
                decoded.array()(lo[0] + i, lo[1] + j));
}

TEST(Archive, MultiFieldWriteArchiveRoundTrips) {
  const TinySet s = make_tiny(Shape{40, 48}, 37);
  MultiFieldCompressor mfc;
  mfc.add_field(s.a0);
  mfc.add_field(s.a1);
  mfc.add_field(s.target);
  AnchorConfig cfg;
  cfg.anchors = {"A0", "A1"};
  cfg.cfnn = CfnnConfig{8, 4, 3};
  cfg.train = quick_train();
  mfc.configure_target("TGT", cfg);

  const auto eb = ErrorBound::relative(1e-3);
  ArchiveFieldOptions base;
  base.tile = Shape{16, 16};

  VectorSink sink;
  ArchiveWriter writer(sink);
  mfc.write_archive(writer, eb, base);
  writer.finish();
  const auto bytes = sink.take();

  ArchiveReader reader = ArchiveReader::open_memory(bytes);
  const auto fields = reader.read_all();
  ASSERT_EQ(fields.size(), 3u);
  for (const Field& out : fields) {
    const Field* orig = mfc.find(out.name());
    ASSERT_NE(orig, nullptr);
    const double abs_eb = eb.absolute_for(orig->value_range());
    EXPECT_LE(max_abs_error(orig->array().span(), out.array().span()),
              test::bound_tolerance(abs_eb, *orig))
        << out.name();
  }
}

// -- Writer API misuse -------------------------------------------------------

TEST(Archive, WriterRejectsMisuse) {
  const Field f = smooth_field("fld", Shape{20, 20}, 41);
  VectorSink sink;
  ArchiveWriter writer(sink);
  writer.add_field(f, ArchiveFieldOptions{});
  EXPECT_THROW(writer.add_field(f, ArchiveFieldOptions{}), InvalidArgument)
      << "duplicate name";

  ArchiveFieldOptions xopts;
  xopts.codec = CodecId::kCrossField;
  Field g = smooth_field("g", Shape{20, 20}, 42);
  EXPECT_THROW(writer.add_field(g, xopts), InvalidArgument);

  const CfnnModel model = train_cross_field_model(
      g, {&f}, CfnnConfig{8, 4, 3}, quick_train());
  // Anchor "fld" was not added with keep_reconstruction.
  EXPECT_THROW(writer.add_cross_field(g, {"fld"}, model, ArchiveFieldOptions{}),
               InvalidArgument);

  writer.finish();
  EXPECT_THROW(writer.finish(), InvalidArgument);
  EXPECT_THROW(writer.add_field(g, ArchiveFieldOptions{}), InvalidArgument);
}

// -- File-backed path --------------------------------------------------------

TEST(Archive, FileBackedWriteAndSeekingRead) {
  // Per-process name: test_archive and test_archive_mt4 run concurrently
  // under `ctest -j`, and FileSink's temp+rename commit must not race a
  // sibling process on the same path.
  const std::string path = ::testing::TempDir() + "xfc_test_archive." +
                           std::to_string(::getpid()) + ".xfa";
  const Field f = smooth_field("fld", Shape{64, 64}, 43);
  {
    FileSink sink(path);
    ArchiveWriter writer(sink);
    ArchiveFieldOptions opts;
    opts.tile = Shape{32, 32};
    writer.add_field(f, opts);
    writer.finish();
  }
  ArchiveReader reader = ArchiveReader::open_file(path);
  const Field full = reader.read_field("fld");
  const double abs_eb =
      ArchiveFieldOptions{}.eb.absolute_for(f.value_range());
  EXPECT_LE(max_abs_error(f.array().span(), full.array().span()),
            test::bound_tolerance(abs_eb, f));

  const std::size_t lo[] = {40, 8}, hi[] = {64, 33};
  const Field region = reader.read_region("fld", lo, hi);
  for (std::size_t i = 0; i < region.shape()[0]; ++i)
    for (std::size_t j = 0; j < region.shape()[1]; ++j)
      ASSERT_EQ(region.array()(i, j), full.array()(lo[0] + i, lo[1] + j));
  std::remove(path.c_str());
}

TEST(Archive, ConcurrentReadsFromOneFileBackedReader) {
  // Regression for the shared-fd seek+read race: RandomAccessFile used one
  // seek cursor behind a mutex; tile reads now use positional pread, so
  // many threads hammering one reader must all see the single-threaded
  // bytes. (Pre-fix the mutex hid the race; this pins the contract so a
  // future "optimization" back to a shared cursor fails loudly.)
  const std::string path = ::testing::TempDir() + "xfc_test_archive_mt." +
                           std::to_string(::getpid()) + ".xfa";
  const Field f = smooth_field("fld", Shape{128, 128}, 77);
  {
    FileSink sink(path);
    ArchiveWriter writer(sink);
    ArchiveFieldOptions opts;
    opts.tile = Shape{16, 16};  // 64 tiles: plenty of concurrent read_at
    writer.add_field(f, opts);
    writer.finish();
  }
  const ArchiveReader reader = ArchiveReader::open_file(path);
  const Field expected = reader.read_field("fld");
  const ArchiveFieldInfo& info = *reader.find("fld");

  constexpr int kThreads = 8;
  std::atomic<int> at_gate{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      at_gate.fetch_add(1);
      while (at_gate.load() < kThreads) std::this_thread::yield();
      // Mix whole-field (tile-parallel), region, and single-tile reads.
      const Field full = reader.read_field("fld");
      if (full.array() != expected.array()) failures.fetch_add(1);
      const std::size_t lo[] = {static_cast<std::size_t>(8 * i), 24};
      const std::size_t hi[] = {lo[0] + 40, 120};
      const Field region = reader.read_region("fld", lo, hi);
      for (std::size_t r = 0; r < 40 && failures.load() == 0; ++r)
        for (std::size_t c = 0; c < 96; ++c)
          if (region.array()(r, c) !=
              expected.array()(lo[0] + r, 24 + c)) {
            failures.fetch_add(1);
            break;
          }
      const Field tile = reader.read_tile(info, static_cast<std::size_t>(i),
                                          {});
      const TileGrid grid(info.shape, info.tile);
      if (tile.array() !=
          extract_tile(expected.array(), grid.box(i)))
        failures.fetch_add(1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  std::remove(path.c_str());
}

// -- Index self-protection ---------------------------------------------------

TEST(Archive, TileCrcIsPositionAndFieldDependent) {
  const std::vector<std::uint8_t> body{1, 2, 3, 4, 5};
  const auto base = archive_tile_crc("A", 0, body);
  EXPECT_NE(base, archive_tile_crc("A", 1, body));
  EXPECT_NE(base, archive_tile_crc("B", 0, body));
  EXPECT_EQ(base, archive_tile_crc("A", 0, body));
}

TEST(Archive, FinishRefusesAnIndexTheReaderRejects) {
  // The reader caps a target at 255 anchors. A prebuilt target naming 256
  // is well-formed for the writer's adders, so only the seal's re-parse of
  // its own footer can catch it: finish() must throw and publish nothing.
  const std::string path = ::testing::TempDir() + "xfc_test_anchor_cap." +
                           std::to_string(::getpid()) + ".xfa";
  const Field tile = smooth_field("t", Shape{4, 4}, 3);
  SzOptions so;
  so.eb = ErrorBound::absolute(1e-3);
  const std::vector<std::uint8_t> body = sz_compress(tile, so);

  ArchiveFieldInfo plain;
  plain.codec = CodecId::kSz;
  plain.eb_mode = static_cast<std::uint8_t>(ErrorBoundMode::kAbsolute);
  plain.eb_value = 1e-3;
  plain.abs_eb = 1e-3;
  plain.shape = Shape{4, 4};
  plain.tile = Shape{4, 4};
  plain.tiles.resize(1);
  ArchiveFieldInfo target = plain;
  target.name = "target";
  target.codec = CodecId::kCrossField;
  target.cross_field = true;
  {
    FileSink sink(path);
    ArchiveWriter writer(sink);
    for (int i = 0; i < 256; ++i) {
      plain.name = "a" + std::to_string(i);
      target.anchors.push_back(plain.name);
      writer.add_prebuilt_field(plain, [&](std::size_t) { return body; });
    }
    writer.add_prebuilt_field(target, [&](std::size_t) { return body; });
    try {
      writer.finish();
      ADD_FAILURE() << "a 256-anchor target was sealed";
    } catch (const InvalidArgument& e) {
      EXPECT_NE(std::string(e.what()).find("bad anchor count"),
                std::string::npos)
          << e.what();
    }
  }
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

// -- Epoch appends -----------------------------------------------------------

TEST(Archive, AppendEpochRoundTripsAndAnchorsOnSealedFields) {
  const Shape shape{40, 48};
  const Field a = smooth_field("a", shape, 5);
  ArchiveFieldOptions opts;
  opts.eb = ErrorBound::relative(1e-3);
  opts.tile = Shape{16, 16};
  VectorSink base_sink;
  {
    ArchiveWriter writer(base_sink);
    writer.add_field(a, opts);
    writer.finish();
  }
  const std::vector<std::uint8_t> base = base_sink.take();

  const ArchiveReader r0 = ArchiveReader::open_memory(base);
  EXPECT_EQ(r0.epoch_count(), 1u);
  const Field a_recon = r0.read_field("a");

  // Epoch 1: a plain append plus a cross-field target anchored on the
  // sealed epoch-0 field — its reconstruction is decoded on demand through
  // the existing reader, no keep_reconstruction needed at epoch 0.
  Rng rng(31);
  Field vx("vx", F32Array(shape));
  for (std::size_t i = 0; i < vx.size(); ++i)
    vx.array()[i] = static_cast<float>(0.8 * a_recon.array()[i] +
                                       rng.normal(0, 0.05));
  const CfnnModel model = train_cross_field_model(vx, {&a_recon},
                                                  CfnnConfig{8, 4, 3},
                                                  quick_train());
  const Field b = smooth_field("b", shape, 6);
  VectorSink sink(base);
  ArchiveWriter writer(sink, r0);
  writer.add_field(b, opts);
  writer.add_cross_field(vx, {"a"}, model, opts);
  EXPECT_EQ(writer.fields_written(), 2u);
  EXPECT_EQ(writer.finish(), 1u);
  // One writer seals one epoch.
  EXPECT_THROW(writer.add_field(smooth_field("c", shape, 7), opts),
               InvalidArgument);
  const std::vector<std::uint8_t> bytes = sink.take();

  const ArchiveReader r1 = ArchiveReader::open_memory(bytes);
  EXPECT_EQ(r1.epoch_count(), 2u);
  EXPECT_EQ(r1.recovered_bytes_discarded(), 0u);
  EXPECT_TRUE(r1.scrub().clean());
  ASSERT_EQ(r1.fields().size(), 3u);
  EXPECT_EQ(r1.fields()[0].name, "a");
  EXPECT_EQ(r1.fields()[0].epoch, 0u);
  EXPECT_EQ(r1.fields()[1].epoch, 1u);
  EXPECT_EQ(r1.fields()[2].epoch, 1u);

  // Epoch-0 bytes are untouched: the old field decodes bit-identically.
  EXPECT_EQ(r1.read_field("a").array(), a_recon.array());
  // The appended fields meet their error bound through the merged index.
  for (const Field* orig : std::initializer_list<const Field*>{&b, &vx}) {
    const Field out = r1.read_field(orig->name());
    const double abs_eb = opts.eb.absolute_for(orig->value_range());
    EXPECT_LE(max_abs_error(orig->array().span(), out.array().span()),
              test::bound_tolerance(abs_eb, *orig))
        << orig->name();
  }
}

TEST(Archive, ReplaceFieldKeepsIndexPositionAndSupersedesData) {
  ArchiveFieldOptions opts;
  opts.eb = ErrorBound::relative(1e-3);
  opts.tile = Shape{16, 16};
  VectorSink base_sink;
  {
    ArchiveWriter writer(base_sink);
    writer.add_field(smooth_field("a", Shape{40, 48}, 5), opts);
    writer.add_field(smooth_field("b", Shape{40, 48}, 6), opts);
    writer.finish();
  }
  const std::vector<std::uint8_t> base = base_sink.take();
  const ArchiveReader r0 = ArchiveReader::open_memory(base);
  const Field b_before = r0.read_field("b");

  // Replace "a" with a different shape and different data.
  const Field a2 = smooth_field("a", Shape{24, 20}, 77);
  VectorSink sink(base);
  ArchiveWriter writer(sink, r0);
  writer.replace_field(a2, opts);
  EXPECT_EQ(writer.finish(), 1u);
  const std::vector<std::uint8_t> bytes = sink.take();

  const ArchiveReader r1 = ArchiveReader::open_memory(bytes);
  ASSERT_EQ(r1.fields().size(), 2u);
  // The replacement sits at the replaced field's index position, so cached
  // keys of every *other* field stay valid across the swap.
  EXPECT_EQ(r1.fields()[0].name, "a");
  EXPECT_EQ(r1.fields()[0].epoch, 1u);
  EXPECT_EQ(r1.fields()[0].shape, (Shape{24, 20}));
  EXPECT_EQ(r1.fields()[1].name, "b");
  EXPECT_EQ(r1.fields()[1].epoch, 0u);
  EXPECT_EQ(r1.read_field("b").array(), b_before.array());
  const Field out = r1.read_field("a");
  const double abs_eb = opts.eb.absolute_for(a2.value_range());
  EXPECT_LE(max_abs_error(a2.array().span(), out.array().span()),
            test::bound_tolerance(abs_eb, a2));
  EXPECT_TRUE(r1.scrub().clean());
}

TEST(Archive, ResumedWriterRejectsMisuse) {
  ArchiveFieldOptions opts;
  opts.eb = ErrorBound::relative(1e-3);
  opts.tile = Shape{16, 16};
  const Field a = smooth_field("a", Shape{40, 48}, 5);
  VectorSink base_sink;
  {
    ArchiveWriter writer(base_sink);
    ArchiveFieldOptions kopts = opts;
    kopts.keep_reconstruction = true;
    ArchiveWriter& w = writer;
    w.add_field(a, kopts);
    Rng rng(31);
    Field tgt("tgt", F32Array(Shape{40, 48}));
    for (std::size_t i = 0; i < tgt.size(); ++i)
      tgt.array()[i] =
          static_cast<float>(0.8 * a.array()[i] + rng.normal(0, 0.05));
    const CfnnModel model = train_cross_field_model(
        tgt, {&a}, CfnnConfig{8, 4, 3}, quick_train());
    w.add_cross_field(tgt, {"a"}, model, opts);
    w.finish();
  }
  const std::vector<std::uint8_t> base = base_sink.take();
  const ArchiveReader r0 = ArchiveReader::open_memory(base);

  VectorSink sink(base);
  ArchiveWriter writer(sink, r0);
  // Adding under a taken name, replacing a missing one, sealing an empty
  // epoch: all typed errors before any byte lands.
  EXPECT_THROW(writer.add_field(a, opts), InvalidArgument);
  EXPECT_THROW(writer.replace_field(smooth_field("nope", Shape{8, 8}, 1),
                                    opts),
               InvalidArgument);
  EXPECT_THROW(writer.finish(), InvalidArgument);
  EXPECT_EQ(sink.size(), base.size());
  // Replacing an anchor would break the dependents' bit-exact anchor
  // reconstructions; the refusal names the anchor (PUT maps it to 409).
  try {
    writer.replace_field(smooth_field("a", Shape{8, 8}, 2), opts);
    ADD_FAILURE() << "replacing an anchor must throw";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("anchor"), std::string::npos)
        << e.what();
  }
  // A field appended this epoch without keep_reconstruction cannot anchor:
  // its reconstruction is not reachable until the file is reopened.
  const Field c = smooth_field("c", Shape{40, 48}, 9);
  writer.add_field(c, opts);  // keep_reconstruction defaults false
  Rng rng(32);
  Field dep("dep", F32Array(Shape{40, 48}));
  for (std::size_t i = 0; i < dep.size(); ++i)
    dep.array()[i] =
        static_cast<float>(0.7 * c.array()[i] + rng.normal(0, 0.05));
  const CfnnModel model = train_cross_field_model(
      dep, {&c}, CfnnConfig{8, 4, 3}, quick_train());
  EXPECT_THROW(writer.add_cross_field(dep, {"c"}, model, opts),
               InvalidArgument);
  EXPECT_EQ(writer.fields_written(), 1u);  // "c" alone survived
  writer.finish();
  EXPECT_TRUE(
      ArchiveReader::open_memory(sink.bytes()).scrub().clean());

  // The sink must sit exactly at the sealed size the reader describes.
  VectorSink misaligned(std::vector<std::uint8_t>(base.size() + 3, 0));
  EXPECT_THROW(ArchiveWriter(misaligned, r0), InvalidArgument);
}

}  // namespace
}  // namespace xfc
