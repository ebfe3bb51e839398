// Chaos suite: deterministic fault injection against every layer of the
// fault-tolerance stack. Seeded sweeps drive archive reads through faulty
// byte sources (the outcome must be bit-exact bytes or a typed XfcError —
// never wrong bytes, never a crash); targeted corruption exercises degraded
// reads, scrub, repair and the tile cache's negative caching; loopback
// socket abuse (mid-response death, slow loris, drain under load) hardens
// the XFS HTTP layer; and torn writes prove the writer never publishes a
// truncated archive.
//
// Sweep breadth is tunable: XFC_CHAOS_SEEDS overrides the default 200
// seeds (sanitizer runs use a smaller budget; the nightly label runs more).

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <sys/stat.h>

#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "archive/archive_reader.hpp"
#include "archive/archive_writer.hpp"
#include "archive/repair.hpp"
#include "archive/tile.hpp"
#include "core/error.hpp"
#include "core/rng.hpp"
#include "crossfield/crossfield.hpp"
#include "support/fault.hpp"
#include "io/stream.hpp"
#include "obs/metrics.hpp"
#include "server/http.hpp"
#include "server/service.hpp"
#include "server/tile_cache.hpp"
#include "test_util.hpp"

namespace xfc {
namespace {

using server::ArchiveService;
using server::HttpClient;
using server::HttpClientConfig;
using server::HttpConfig;
using server::HttpRequest;
using server::HttpResponse;
using server::HttpServer;
using server::ServiceConfig;
using server::TileCache;
using server::TileCacheConfig;

int chaos_seeds() {
  if (const char* env = std::getenv("XFC_CHAOS_SEEDS")) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  return 200;
}

/// Shared fixture archive: 48x40, 16x16 tiles (3x3 ragged grid per field).
///   rho   kSz          (anchor, reconstruction kept)
///   zeta  kZfp
///   vx    kCrossField  anchored on rho
struct ChaosArchive {
  std::vector<std::uint8_t> bytes;
  Field rho_ref, zeta_ref, vx_ref;  // strict decodes of the clean archive
};

const ChaosArchive& chaos_archive() {
  static const ChaosArchive a = [] {
    const Shape shape{48, 40};
    Rng rng(2024);
    Field rho("rho", F32Array(shape));
    Field zeta("zeta", F32Array(shape));
    Field vx("vx", F32Array(shape));
    for (std::size_t i = 0; i < rho.size(); ++i) {
      const double x = static_cast<double>(i % 40) / 6.0;
      const double y = static_cast<double>(i / 40) / 9.0;
      const double base = std::sin(x) * std::cos(y) * 15.0;
      rho.array()[i] = static_cast<float>(base + rng.normal(0, 0.05));
      zeta.array()[i] =
          static_cast<float>(std::cos(x * 0.7) * 8.0 + rng.normal(0, 0.05));
      vx.array()[i] = static_cast<float>(0.8 * base + rng.normal(0, 0.05));
    }
    CfnnTrainOptions train;
    train.epochs = 4;
    train.patches_per_epoch = 16;
    train.patch = 16;
    train.batch = 8;
    const CfnnModel model =
        train_cross_field_model(vx, {&rho}, CfnnConfig{8, 4, 3}, train);

    VectorSink sink;
    ArchiveWriter writer(sink);
    ArchiveFieldOptions opts;
    opts.eb = ErrorBound::relative(1e-3);
    opts.tile = Shape{16, 16};
    opts.keep_reconstruction = true;
    writer.add_field(rho, opts);
    ArchiveFieldOptions zopts = opts;
    zopts.codec = CodecId::kZfp;
    zopts.keep_reconstruction = false;
    writer.add_field(zeta, zopts);
    writer.add_cross_field(vx, {"rho"}, model, opts);
    writer.finish();

    ChaosArchive out;
    out.bytes = sink.take();
    const ArchiveReader reader = ArchiveReader::open_memory(out.bytes);
    out.rho_ref = reader.read_field("rho");
    out.zeta_ref = reader.read_field("zeta");
    out.vx_ref = reader.read_field("vx");
    return out;
  }();
  return a;
}

/// Flips one bit in the middle of the named tile's body.
std::vector<std::uint8_t> with_corrupt_tile(std::vector<std::uint8_t> bytes,
                                            const std::string& field,
                                            std::size_t ordinal,
                                            std::uint8_t mask = 0x10) {
  const ArchiveReader reader = ArchiveReader::open_memory(bytes);
  const ArchiveFieldInfo* info = reader.find(field);
  EXPECT_NE(info, nullptr);
  const ArchiveTileInfo& t = info->tiles[ordinal];
  bytes[t.offset + t.size / 2] ^= mask;
  return bytes;
}

bool in_box(const TileBox& box, std::size_t i, std::size_t j) {
  return i >= box.lo[0] && i < box.lo[0] + box.extents[0] && j >= box.lo[1] &&
         j < box.lo[1] + box.extents[1];
}

bool file_exists(const std::string& path) {
  return ::access(path.c_str(), F_OK) == 0;
}

std::size_t file_size(const std::string& path) {
  struct ::stat st {};
  EXPECT_EQ(::stat(path.c_str(), &st), 0) << path;
  return static_cast<std::size_t>(st.st_size);
}

void write_file(const std::string& path, std::span<const std::uint8_t> bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr) << path;
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  ASSERT_EQ(std::fclose(f), 0);
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  std::vector<std::uint8_t> out(file_size(path));
  if (!out.empty()) EXPECT_EQ(std::fread(out.data(), 1, out.size(), f), out.size());
  std::fclose(f);
  return out;
}

/// Three sealed epochs over plain codecs (no CFNN — kept tiny and fast so
/// the power-cut sweeps can afford every single byte length / call index).
///   epoch 0: a (kSz)    epoch 1: +b (kZfp)    epoch 2: a replaced
struct EpochArchive {
  std::vector<std::uint8_t> bytes;    // full 3-epoch stream
  std::array<std::size_t, 3> sealed;  // stream size after each seal
  Field a0, b1, a2;                   // strict decodes per sealed state
  ArchiveFieldOptions opts;           // the options every field was coded with
};

const EpochArchive& epoch_archive() {
  static const EpochArchive e = [] {
    const Shape shape{24, 20};
    const auto make = [&](const char* name, std::uint64_t seed, double amp) {
      Rng rng(seed);
      F32Array arr(shape);
      for (std::size_t i = 0; i < arr.size(); ++i) {
        const double x = static_cast<double>(i % 20) / 5.0;
        const double y = static_cast<double>(i / 20) / 7.0;
        arr[i] = static_cast<float>(std::sin(x) * std::cos(y) * amp +
                                    rng.normal(0, 0.02));
      }
      return Field(name, std::move(arr));
    };
    EpochArchive out;
    out.opts.eb = ErrorBound::relative(1e-3);
    out.opts.tile = Shape{16, 16};

    VectorSink seed_sink;
    ArchiveWriter writer(seed_sink);
    writer.add_field(make("a", 11, 12.0), out.opts);
    writer.finish();
    std::vector<std::uint8_t> bytes = seed_sink.take();
    out.sealed[0] = bytes.size();

    {
      const ArchiveReader r = ArchiveReader::open_memory(bytes);
      VectorSink sink(bytes);  // copy-seeded: continues past the seal
      ArchiveWriter epoch_writer(sink, r);
      ArchiveFieldOptions zopts = out.opts;
      zopts.codec = CodecId::kZfp;
      epoch_writer.add_field(make("b", 12, 7.0), zopts);
      epoch_writer.finish();
      std::vector<std::uint8_t> next = sink.take();
      bytes = std::move(next);
    }
    out.sealed[1] = bytes.size();
    {
      const ArchiveReader r = ArchiveReader::open_memory(bytes);
      VectorSink sink(bytes);
      ArchiveWriter epoch_writer(sink, r);
      epoch_writer.replace_field(make("a", 13, 20.0), out.opts);
      epoch_writer.finish();
      std::vector<std::uint8_t> next = sink.take();
      bytes = std::move(next);
    }
    out.sealed[2] = bytes.size();
    out.bytes = std::move(bytes);

    const std::span<const std::uint8_t> all(out.bytes);
    out.a0 =
        ArchiveReader::open_memory(all.first(out.sealed[0])).read_field("a");
    out.b1 =
        ArchiveReader::open_memory(all.first(out.sealed[1])).read_field("b");
    out.a2 = ArchiveReader::open_memory(all).read_field("a");
    return out;
  }();
  return e;
}

// -- Fault injector determinism ---------------------------------------------

TEST(Chaos, FaultInjectorIsDeterministic) {
  const ChaosArchive& a = chaos_archive();

  // Same seed, same single-threaded call sequence -> identical outcomes:
  // every returned byte, every thrown error, every counter.
  auto run = [&](std::uint64_t seed, std::vector<std::uint8_t>& digest,
                 FaultCounters& counters) {
    FaultPlan plan;
    plan.seed = seed;
    plan.error_rate = 0.1;
    plan.short_rate = 0.1;
    plan.flip_rate = 0.2;
    plan.corrupt_offsets = {100, 5000};
    plan.fail_calls = {3};
    auto injector = std::make_shared<FaultInjector>(plan);
    FaultyByteSource src(std::make_unique<MemorySource>(
                             std::span<const std::uint8_t>(a.bytes)),
                         injector);
    for (std::size_t i = 0; i < 64; ++i) {
      const std::size_t off = (i * 997) % (a.bytes.size() - 128);
      try {
        const auto chunk = src.read_vec(off, 128);
        digest.insert(digest.end(), chunk.begin(), chunk.end());
      } catch (const IoError&) {
        digest.push_back(0xEE);  // error marker keeps sequences comparable
      }
    }
    counters = injector->counters();
  };

  std::vector<std::uint8_t> d1, d2;
  FaultCounters c1, c2;
  run(7, d1, c1);
  run(7, d2, c2);
  EXPECT_EQ(d1, d2);
  EXPECT_EQ(c1.calls, c2.calls);
  EXPECT_EQ(c1.injected_errors, c2.injected_errors);
  EXPECT_EQ(c1.short_ops, c2.short_ops);
  EXPECT_EQ(c1.bit_flips, c2.bit_flips);
  EXPECT_GE(c1.injected_errors, 1u);  // fail_calls={3} always fires

  // Targeted corruption alone: exactly the listed offsets differ, the same
  // way, no matter the read pattern.
  FaultPlan plan;
  plan.seed = 7;
  plan.corrupt_offsets = {100, 5000};
  auto injector = std::make_shared<FaultInjector>(plan);
  FaultyByteSource src(
      std::make_unique<MemorySource>(std::span<const std::uint8_t>(a.bytes)),
      injector);
  const auto whole = src.read_vec(0, a.bytes.size());
  const auto again = src.read_vec(0, a.bytes.size());
  EXPECT_EQ(whole, again);
  for (std::size_t i = 0; i < whole.size(); ++i) {
    if (i == 100 || i == 5000)
      EXPECT_NE(whole[i], a.bytes[i]) << "offset " << i;
    else
      ASSERT_EQ(whole[i], a.bytes[i]) << "offset " << i;
  }
}

// -- Seeded chaos sweep ------------------------------------------------------

// The core robustness pin: across N seeds of probabilistic I/O faults, every
// archive operation either returns bit-exact bytes, reports contained
// per-tile errors (degraded reads), or throws a typed XfcError. Wrong bytes
// or an escape of any other exception type fails the test; a crash or hang
// fails the run.
TEST(Chaos, SeededReadSweep) {
  const ChaosArchive& a = chaos_archive();
  const ArchiveReader clean = ArchiveReader::open_memory(a.bytes);
  const ArchiveFieldInfo* vx_info = clean.find("vx");
  const TileGrid grid(vx_info->shape, vx_info->tile);
  const int n_seeds = chaos_seeds();

  // File-backed, like production: faults inject between the reader and a
  // real FileSource/RandomAccessFile.
  // Per-process name: test_chaos and test_chaos_mt4 may run concurrently
  // under `ctest -j`, and FileSink's temp+rename commit must not race a
  // sibling process on the same path.
  const std::string path = ::testing::TempDir() + "xfc_chaos_sweep." +
                           std::to_string(::getpid()) + ".xfa";
  {
    FileSink sink(path);
    sink.append(a.bytes);
    sink.commit();
  }

  int clean_reads = 0, typed_failures = 0, degraded_reads = 0;
  for (int seed = 0; seed < n_seeds; ++seed) {
    FaultPlan plan;
    plan.seed = static_cast<std::uint64_t>(seed) * 0x9E37u + 1;
    plan.error_rate = 0.02;
    plan.short_rate = 0.02;
    plan.flip_rate = 0.03;
    plan.delay_rate = 0.01;
    plan.delay_us = 50;
    auto injector = std::make_shared<FaultInjector>(plan);
    try {
      ArchiveReader reader(std::make_unique<FaultyByteSource>(
          std::make_unique<FileSource>(path), injector));

      // Strict reads (tile-parallel internally): bit-exact or typed
      // failure, nothing in between.
      try {
        const Field rho = reader.read_field("rho");
        ASSERT_EQ(rho.array(), a.rho_ref.array()) << "seed " << seed;
        ++clean_reads;
      } catch (const XfcError&) {
        ++typed_failures;
      }
      try {
        const std::size_t lo[] = {8, 8}, hi[] = {40, 32};
        const Field crop = reader.read_region("zeta", lo, hi);
        for (std::size_t i = 0; i < 32; ++i)
          for (std::size_t j = 0; j < 24; ++j)
            ASSERT_EQ(crop.array()(i, j), a.zeta_ref.array()(8 + i, 8 + j))
                << "seed " << seed;
      } catch (const XfcError&) {
        ++typed_failures;
      }
      try {
        const std::size_t t = static_cast<std::size_t>(seed) % 9;
        const Field tile = reader.read_tile("vx", t);
        const TileBox box = grid.box(t);
        for (std::size_t i = 0; i < box.extents[0]; ++i)
          for (std::size_t j = 0; j < box.extents[1]; ++j)
            ASSERT_EQ(tile.array()(i, j),
                      a.vx_ref.array()(box.lo[0] + i, box.lo[1] + j))
                << "seed " << seed << " tile " << t;
      } catch (const XfcError&) {
        ++typed_failures;
      }

      // Degraded read: device faults are contained into the report, and
      // every value outside the failed tiles' boxes is still bit-exact.
      ArchiveReadReport report;
      const Field vx = reader.read_field_partial("vx", report);
      if (!report.complete()) ++degraded_reads;
      std::vector<TileBox> failed;
      failed.reserve(report.errors.size());
      for (const ArchiveTileError& e : report.errors)
        failed.push_back(grid.box(e.ordinal));
      for (std::size_t i = 0; i < 48; ++i)
        for (std::size_t j = 0; j < 40; ++j) {
          bool masked = false;
          for (const TileBox& b : failed) masked = masked || in_box(b, i, j);
          if (!masked)
            ASSERT_EQ(vx.array()(i, j), a.vx_ref.array()(i, j))
                << "seed " << seed << " at (" << i << "," << j << ")";
        }

      // Scrub never throws for per-tile damage and its books balance.
      if (seed % 8 == 0) {
        const ArchiveScrubReport scrub = reader.scrub();
        ASSERT_EQ(scrub.tiles_total, 27u);
        ASSERT_EQ(scrub.tiles_ok + scrub.errors.size(), scrub.tiles_total);
      }
    } catch (const XfcError&) {
      ++typed_failures;  // faults during open/parse are typed too
    }
  }

  // The sweep must have exercised both the happy path and the fault paths
  // (deterministic per seed set, so this cannot flake once it passes).
  EXPECT_GT(clean_reads, 0);
  EXPECT_GT(typed_failures + degraded_reads, 0);
  std::remove(path.c_str());
}

// -- Degraded reads ----------------------------------------------------------

TEST(Chaos, DegradedReadContainsSingleTileFailure) {
  const ChaosArchive& a = chaos_archive();
  const std::size_t bad = 4;
  const auto damaged = with_corrupt_tile(a.bytes, "rho", bad);
  const ArchiveReader reader = ArchiveReader::open_memory(damaged);
  const ArchiveFieldInfo* rho = reader.find("rho");

  // Strict read refuses; degraded read contains.
  EXPECT_THROW(reader.read_field("rho"), CorruptStream);

  ArchiveReadReport report;
  const Field out = reader.read_field_partial("rho", report);
  EXPECT_EQ(report.tiles_total, 9u);
  EXPECT_EQ(report.tiles_ok, 8u);
  ASSERT_EQ(report.errors.size(), 1u);
  EXPECT_EQ(report.errors[0].field, "rho");
  EXPECT_EQ(report.errors[0].ordinal, bad);
  EXPECT_EQ(report.errors[0].offset, rho->tiles[bad].offset);
  EXPECT_FALSE(report.errors[0].message.empty());

  const TileGrid grid(rho->shape, rho->tile);
  const TileBox box = grid.box(bad);
  for (std::size_t i = 0; i < 48; ++i)
    for (std::size_t j = 0; j < 40; ++j) {
      if (in_box(box, i, j))
        ASSERT_EQ(out.array()(i, j), 0.0f);  // kZero fill
      else
        ASSERT_EQ(out.array()(i, j), a.rho_ref.array()(i, j));
    }

  // kNan poisons the hole instead.
  ArchiveReadReport nan_report;
  const Field poisoned =
      reader.read_field_partial("rho", nan_report, TileFillPolicy::kNan);
  EXPECT_TRUE(std::isnan(poisoned.array()(box.lo[0], box.lo[1])));
  EXPECT_FALSE(std::isnan(poisoned.array()(0, 0)));

  // Region reads away from the damage still succeed strictly.
  const std::size_t lo[] = {0, 0}, hi[] = {16, 16};
  const Field corner = reader.read_region("rho", lo, hi);
  for (std::size_t i = 0; i < 16; ++i)
    for (std::size_t j = 0; j < 16; ++j)
      ASSERT_EQ(corner.array()(i, j), a.rho_ref.array()(i, j));
}

TEST(Chaos, CrossFieldAnchorLossDegradesTarget) {
  const ChaosArchive& a = chaos_archive();
  // Damage an *anchor* tile only: vx's own bytes are intact, but its tile 0
  // must still be failed — decoding a target against filled anchor data
  // would be silently wrong, and degraded output is never wrong.
  const auto damaged = with_corrupt_tile(a.bytes, "rho", 0);
  const ArchiveReader reader = ArchiveReader::open_memory(damaged);

  ArchiveReadReport report;
  const Field vx = reader.read_field_partial("vx", report);
  bool saw_rho = false, saw_vx = false;
  for (const ArchiveTileError& e : report.errors) {
    if (e.field == "rho" && e.ordinal == 0) saw_rho = true;
    if (e.field == "vx" && e.ordinal == 0) {
      saw_vx = true;
      EXPECT_NE(e.message.find("anchor"), std::string::npos) << e.message;
    }
  }
  EXPECT_TRUE(saw_rho);
  EXPECT_TRUE(saw_vx);
  EXPECT_EQ(report.errors.size(), 2u);

  const ArchiveFieldInfo* vx_info = reader.find("vx");
  const TileGrid grid(vx_info->shape, vx_info->tile);
  const TileBox box = grid.box(0);
  for (std::size_t i = 0; i < 48; ++i)
    for (std::size_t j = 0; j < 40; ++j) {
      if (in_box(box, i, j))
        ASSERT_EQ(vx.array()(i, j), 0.0f);
      else
        ASSERT_EQ(vx.array()(i, j), a.vx_ref.array()(i, j));
    }

  // A strict region read whose anchor coverage avoids the damage works.
  const std::size_t lo[] = {16, 16}, hi[] = {48, 40};
  const Field away = reader.read_region("vx", lo, hi);
  for (std::size_t i = 0; i < 32; ++i)
    for (std::size_t j = 0; j < 24; ++j)
      ASSERT_EQ(away.array()(i, j), a.vx_ref.array()(16 + i, 16 + j));
}

// -- Scrub and repair --------------------------------------------------------

TEST(Chaos, ScrubFlagsEveryCorruption) {
  const ChaosArchive& a = chaos_archive();

  const ArchiveScrubReport clean = ArchiveReader::open_memory(a.bytes).scrub();
  EXPECT_TRUE(clean.clean());
  EXPECT_EQ(clean.tiles_total, 27u);
  EXPECT_EQ(clean.tiles_ok, 27u);

  const std::set<std::pair<std::string, std::size_t>> damage = {
      {"rho", 1}, {"rho", 7}, {"zeta", 3}, {"zeta", 8}, {"vx", 5}};
  std::vector<std::uint8_t> bytes = a.bytes;
  for (const auto& [field, ordinal] : damage)
    bytes = with_corrupt_tile(std::move(bytes), field, ordinal);

  const ArchiveScrubReport report =
      ArchiveReader::open_memory(bytes).scrub();
  EXPECT_EQ(report.tiles_total, 27u);
  EXPECT_EQ(report.tiles_ok, 22u);
  std::set<std::pair<std::string, std::size_t>> flagged;
  for (const ArchiveTileError& e : report.errors) {
    flagged.insert({e.field, e.ordinal});
    EXPECT_FALSE(e.message.empty());
  }
  EXPECT_EQ(flagged, damage);  // 100% of corruptions, no false positives
}

TEST(Chaos, RepairSalvagesIntactTilesAndDropsOrphanedTargets) {
  const ChaosArchive& a = chaos_archive();
  // Damage one rho tile and one zeta tile. rho/zeta are patchable; vx's
  // anchor closure (rho) is damaged, so vx must be dropped, not guessed at.
  auto damaged = with_corrupt_tile(a.bytes, "rho", 4);
  damaged = with_corrupt_tile(std::move(damaged), "zeta", 2);
  const ArchiveReader in = ArchiveReader::open_memory(damaged);

  VectorSink sink;
  const RepairReport report = archive_repair(in, sink);
  EXPECT_EQ(report.fields_dropped, 1u);
  EXPECT_EQ(report.tiles_patched, 2u);
  EXPECT_EQ(report.tiles_salvaged, 16u);  // 8 rho + 8 zeta, verbatim
  ASSERT_EQ(report.fields.size(), 3u);
  for (const RepairFieldOutcome& f : report.fields) {
    if (f.name == "rho" || f.name == "zeta") {
      EXPECT_EQ(f.action, RepairFieldOutcome::Action::kPatched);
      ASSERT_EQ(f.patched_tiles.size(), 1u);
      EXPECT_EQ(f.patched_tiles[0], f.name == "rho" ? 4u : 2u);
      EXPECT_EQ(f.tiles_salvaged, 8u);
    } else {
      EXPECT_EQ(f.name, "vx");
      EXPECT_EQ(f.action, RepairFieldOutcome::Action::kDropped);
      EXPECT_FALSE(f.reason.empty());
    }
  }

  const auto repaired_bytes = sink.take();
  const ArchiveReader repaired = ArchiveReader::open_memory(repaired_bytes);
  EXPECT_EQ(repaired.fields().size(), 2u);
  EXPECT_TRUE(repaired.scrub().clean());

  // Every salvaged tile is byte-for-byte the original body.
  const ArchiveReader clean = ArchiveReader::open_memory(a.bytes);
  const ArchiveFieldInfo* r_rho = repaired.find("rho");
  const ArchiveFieldInfo* c_rho = clean.find("rho");
  ASSERT_NE(r_rho, nullptr);
  for (std::size_t t = 0; t < 9; ++t) {
    if (t == 4) continue;
    EXPECT_EQ(repaired.read_tile_bytes(*r_rho, t),
              clean.read_tile_bytes(*c_rho, t))
        << "tile " << t;
    EXPECT_EQ(r_rho->tiles[t].crc, c_rho->tiles[t].crc);
  }

  // Decode: exact outside the patched tile, near-zero fill inside it.
  const Field rr = repaired.read_field("rho");
  const TileGrid grid(r_rho->shape, r_rho->tile);
  const TileBox hole = grid.box(4);
  const double fill_tol = c_rho->abs_eb * 1.01 + 1e-6;
  for (std::size_t i = 0; i < 48; ++i)
    for (std::size_t j = 0; j < 40; ++j) {
      if (in_box(hole, i, j))
        ASSERT_LE(std::abs(static_cast<double>(rr.array()(i, j))), fill_tol);
      else
        ASSERT_EQ(rr.array()(i, j), a.rho_ref.array()(i, j));
    }

  // A target whose *own* tile is damaged is dropped too (cross-field tiles
  // cannot be fill-encoded), while its intact anchor survives verbatim.
  const auto own = with_corrupt_tile(a.bytes, "vx", 3);
  VectorSink sink2;
  const RepairReport rep2 =
      archive_repair(ArchiveReader::open_memory(own), sink2);
  EXPECT_EQ(rep2.fields_dropped, 1u);
  EXPECT_EQ(rep2.tiles_patched, 0u);
  EXPECT_EQ(rep2.tiles_salvaged, 18u);  // rho + zeta fully verbatim
}

TEST(Chaos, RepairOfCleanArchiveIsVerbatim) {
  const ChaosArchive& a = chaos_archive();
  VectorSink sink;
  const RepairReport report =
      archive_repair(ArchiveReader::open_memory(a.bytes), sink);
  EXPECT_EQ(report.fields_dropped, 0u);
  EXPECT_EQ(report.tiles_patched, 0u);
  EXPECT_EQ(report.tiles_salvaged, 27u);
  for (const RepairFieldOutcome& f : report.fields)
    EXPECT_EQ(f.action, RepairFieldOutcome::Action::kIntact);

  const auto repaired_bytes = sink.take();
  const ArchiveReader repaired = ArchiveReader::open_memory(repaired_bytes);
  EXPECT_EQ(repaired.fields().size(), 3u);
  const Field vx = repaired.read_field("vx");  // anchors wired up correctly
  ASSERT_EQ(vx.array(), a.vx_ref.array());
}

// -- Torn writes -------------------------------------------------------------

TEST(Chaos, TornWriteNeverPublishesAnArchive) {
  const ChaosArchive& a = chaos_archive();
  // Per-process name, same reason as the sweep test above.
  const std::string path = ::testing::TempDir() + "xfc_chaos_torn." +
                           std::to_string(::getpid()) + ".xfa";
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());

  {
    FileSink file(path);
    FaultPlan plan;
    plan.fail_after_bytes = 512;  // disk "fills up" mid-write
    auto injector = std::make_shared<FaultInjector>(plan);
    FaultyByteSink sink(file, injector);
    ArchiveWriter writer(sink);
    ArchiveFieldOptions opts;
    opts.eb = ErrorBound::relative(1e-3);
    opts.tile = Shape{16, 16};
    EXPECT_THROW(
        {
          writer.add_field(a.rho_ref, opts);
          writer.add_field(a.zeta_ref, opts);
          writer.finish();
        },
        IoError);
    EXPECT_GE(injector->counters().short_ops, 1u);
  }
  // The uncommitted sink removed its temp file; the final name never
  // existed, so a monitoring `open_file` cannot see a truncated archive.
  EXPECT_FALSE(file_exists(path));
  EXPECT_FALSE(file_exists(path + ".tmp"));

  // The clean path publishes atomically and leaves no temp behind.
  {
    FileSink file(path);
    ArchiveWriter writer(file);
    ArchiveFieldOptions opts;
    opts.eb = ErrorBound::relative(1e-3);
    opts.tile = Shape{16, 16};
    writer.add_field(a.rho_ref, opts);
    writer.finish();
  }
  EXPECT_TRUE(file_exists(path));
  EXPECT_FALSE(file_exists(path + ".tmp"));
  const ArchiveReader reader = ArchiveReader::open_file(path);
  EXPECT_TRUE(reader.scrub().clean());
  std::remove(path.c_str());
}

// -- Epoch appends under power cuts ------------------------------------------

TEST(Chaos, DirFsyncFailureSurfacesButFileStaysPublished) {
  const ChaosArchive& a = chaos_archive();
  const std::string path = ::testing::TempDir() + "xfc_chaos_dirsync." +
                           std::to_string(::getpid()) + ".xfa";
  std::remove(path.c_str());

  detail::g_fail_dir_fsync_for_tests.store(1);
  {
    FileSink file(path);
    ArchiveWriter writer(file);
    ArchiveFieldOptions opts;
    opts.eb = ErrorBound::relative(1e-3);
    opts.tile = Shape{16, 16};
    writer.add_field(a.rho_ref, opts);
    EXPECT_THROW(writer.finish(), IoError);
  }
  EXPECT_EQ(detail::g_fail_dir_fsync_for_tests.load(), 0);  // hook consumed

  // The rename preceded the failed directory fsync, so the archive is
  // already published and intact: the error reports unproven durability of
  // the directory entry, it must not be "handled" by deleting good data.
  ASSERT_TRUE(file_exists(path));
  EXPECT_FALSE(file_exists(path + ".tmp"));
  EXPECT_TRUE(ArchiveReader::open_file(path).scrub().clean());
  std::remove(path.c_str());
}

TEST(Chaos, AppendFileSinkTruncatesTheTornTail) {
  const std::string path = ::testing::TempDir() + "xfc_chaos_appendsink." +
                           std::to_string(::getpid()) + ".bin";
  std::remove(path.c_str());
  std::vector<std::uint8_t> seed(100);
  for (std::size_t i = 0; i < seed.size(); ++i)
    seed[i] = static_cast<std::uint8_t>(i);
  write_file(path, seed);

  // Resuming at 60 declares bytes 60..99 a torn tail; they must be gone
  // before the first fresh byte lands, never interleaved with it.
  {
    AppendFileSink sink(path, 60);
    EXPECT_EQ(sink.size(), 60u);
    const std::vector<std::uint8_t> tail(20, 0xAB);
    sink.append(tail);
    sink.sync();
    EXPECT_EQ(sink.size(), 80u);
  }
  const std::vector<std::uint8_t> after = read_file(path);
  ASSERT_EQ(after.size(), 80u);
  for (std::size_t i = 0; i < 60; ++i) EXPECT_EQ(after[i], seed[i]);
  for (std::size_t i = 60; i < 80; ++i) EXPECT_EQ(after[i], 0xAB);

  // A resume point past EOF means the caller's sealed state never existed
  // in this file — refuse loudly rather than write at a phantom offset.
  EXPECT_THROW(AppendFileSink(path, 200), IoError);
  std::remove(path.c_str());
}

// Satellite: exhaustive prefix-truncation recovery. Every write in the
// epoch protocol is a sequential append, so *any* power-cut image under
// prefix persistence semantics is exactly a byte prefix of the full
// stream. Sweeping every prefix length is therefore a complete crash
// matrix for the in-memory protocol: each one must open to the newest
// fully sealed epoch bit-exactly, or throw a typed error when not even
// epoch 0 is complete. Partial epochs are absent, never wrong.
TEST(Chaos, EveryPrefixRecoversToTheNewestSealedEpoch) {
  const EpochArchive& e = epoch_archive();
  const std::span<const std::uint8_t> all(e.bytes);
  for (std::size_t len = 0; len <= all.size(); ++len) {
    const std::span<const std::uint8_t> prefix = all.first(len);
    if (len < e.sealed[0]) {
      EXPECT_THROW(ArchiveReader::open_memory(prefix), CorruptStream)
          << "prefix " << len;
      continue;
    }
    std::size_t state = 0;
    while (state + 1 < e.sealed.size() && e.sealed[state + 1] <= len) ++state;
    const ArchiveReader reader = ArchiveReader::open_memory(prefix);
    ASSERT_EQ(reader.epoch_count(), state + 1) << "prefix " << len;
    ASSERT_EQ(reader.logical_size(), e.sealed[state]) << "prefix " << len;
    ASSERT_EQ(reader.recovered_bytes_discarded(), len - e.sealed[state])
        << "prefix " << len;
    ASSERT_TRUE(reader.scrub().clean()) << "prefix " << len;
    ASSERT_EQ(reader.fields().size(), state == 0 ? 1u : 2u);
    const Field a = reader.read_field("a");
    ASSERT_EQ(a.array(), state < 2 ? e.a0.array() : e.a2.array())
        << "prefix " << len;
    if (state >= 1) {
      const Field b = reader.read_field("b");
      ASSERT_EQ(b.array(), e.b1.array()) << "prefix " << len;
    }
  }
}

// Tentpole: the file-backed crash-point sweep. Kill one append at every
// injectable point — each data/footer/trailer append and both fsync
// barriers (fail_calls), then a torn-write sweep over byte thresholds
// (fail_after_bytes) — reopen the file, and require recovery to a
// scrub-clean archive holding exactly a sealed epoch set. After every
// recovery the archive must also accept a clean re-append: a crash must
// never brick live ingest.
TEST(Chaos, AppendCrashPointSweepRecoversAndResumes) {
  const EpochArchive& e = epoch_archive();
  const std::string path = ::testing::TempDir() + "xfc_chaos_crashpoint." +
                           std::to_string(::getpid()) + ".xfa";
  const std::span<const std::uint8_t> epoch0 =
      std::span<const std::uint8_t>(e.bytes).first(e.sealed[0]);
  const Field b_field = ArchiveReader::open_memory(
                            std::span<const std::uint8_t>(e.bytes).first(
                                e.sealed[1]))
                            .read_field("b");
  ArchiveFieldOptions zopts = e.opts;
  zopts.codec = CodecId::kZfp;

  // Instrumented clean pass: counts the injectable call indices and pins
  // the exact byte growth of one appended epoch.
  std::uint64_t total_calls = 0;
  {
    write_file(path, epoch0);
    const ArchiveReader r = ArchiveReader::open_file(path);
    AppendFileSink file(path, r.logical_size());
    auto injector = std::make_shared<FaultInjector>(FaultPlan{});
    FaultyByteSink sink(file, injector);
    ArchiveWriter epoch_writer(sink, r);
    epoch_writer.add_field(b_field, zopts);
    EXPECT_EQ(epoch_writer.finish(), 1u);
    total_calls = injector->counters().calls;
  }
  const std::size_t full_size = file_size(path);
  ASSERT_GT(full_size, e.sealed[0]);
  // At minimum: one body append, barrier, footer append, trailer append,
  // barrier — the protocol's five distinguishable crash neighborhoods.
  ASSERT_GE(total_calls, 5u);

  const auto check_recovery_and_resume = [&](std::uint64_t tag) {
    // Reopen after the kill: the partial epoch must be absent, never wrong.
    const ArchiveReader r = ArchiveReader::open_file(path);
    ASSERT_TRUE(r.scrub().clean()) << "crash point " << tag;
    if (r.epoch_count() == 2) {
      // The kill hit at/after the final barrier with every byte already in
      // the file: epoch 1 is sealed (durability unproven but content
      // valid) — an acceptable post-crash state.
      ASSERT_EQ(r.logical_size(), file_size(path));
      ASSERT_EQ(r.fields().size(), 2u);
      ASSERT_EQ(r.read_field("b").array(), b_field.array());
    } else {
      ASSERT_EQ(r.epoch_count(), 1u) << "crash point " << tag;
      ASSERT_EQ(r.logical_size(), e.sealed[0]);
      ASSERT_EQ(r.fields().size(), 1u);
      ASSERT_EQ(r.find("b"), nullptr);
      ASSERT_EQ(r.recovered_bytes_discarded(), file_size(path) - e.sealed[0]);
    }
    ASSERT_EQ(r.read_field("a").array(), e.a0.array()) << "crash point " << tag;

    // The survivor accepts a clean append (the torn tail, if any, is
    // truncated away by the resume) and seals it.
    {
      AppendFileSink file(path, r.logical_size());
      ArchiveWriter epoch_writer(file, r);
      Field c = e.a0;
      c.set_name("c");
      epoch_writer.add_field(c, e.opts);
      epoch_writer.finish();
    }
    const ArchiveReader again = ArchiveReader::open_file(path);
    ASSERT_TRUE(again.scrub().clean()) << "crash point " << tag;
    ASSERT_EQ(again.recovered_bytes_discarded(), 0u);
    ASSERT_NE(again.find("c"), nullptr);
    ASSERT_EQ(again.read_field("a").array(), e.a0.array());
  };

  // (1) Hard kill at every call index: appends die before any byte lands,
  // barriers die between write-back and fsync completion.
  for (std::uint64_t k = 0; k < total_calls; ++k) {
    write_file(path, epoch0);
    {
      const ArchiveReader r = ArchiveReader::open_file(path);
      AppendFileSink file(path, r.logical_size());
      FaultPlan plan;
      plan.fail_calls = {k};
      auto injector = std::make_shared<FaultInjector>(plan);
      FaultyByteSink sink(file, injector);
      ArchiveWriter epoch_writer(sink, r);
      EXPECT_THROW(
          {
            epoch_writer.add_field(b_field, zopts);
            epoch_writer.finish();
          },
          IoError)
          << "call " << k;
      EXPECT_EQ(injector->counters().injected_errors, 1u);
    }
    check_recovery_and_resume(k);
  }

  // (2) Torn-write sweep: the disk "fills up" at a swept byte threshold,
  // so some append lands only a prefix. Budgeted by XFC_CHAOS_SEEDS.
  const std::size_t span = full_size - 1;
  const std::size_t budget =
      std::min<std::size_t>(static_cast<std::size_t>(chaos_seeds()), span);
  for (std::size_t i = 0; i < budget; ++i) {
    const std::size_t threshold = 1 + (i * span) / budget;
    write_file(path, epoch0);
    bool threw = false;
    {
      const ArchiveReader r = ArchiveReader::open_file(path);
      AppendFileSink file(path, r.logical_size());
      FaultPlan plan;
      plan.fail_after_bytes = threshold;
      auto injector = std::make_shared<FaultInjector>(plan);
      FaultyByteSink sink(file, injector);
      ArchiveWriter epoch_writer(sink, r);
      try {
        epoch_writer.add_field(b_field, zopts);
        epoch_writer.finish();
      } catch (const IoError&) {
        threw = true;
      }
    }
    if (!threw) {
      // The threshold fell beyond the last append: the epoch sealed whole.
      const ArchiveReader r = ArchiveReader::open_file(path);
      ASSERT_EQ(r.epoch_count(), 2u) << "threshold " << threshold;
      ASSERT_TRUE(r.scrub().clean());
      continue;
    }
    check_recovery_and_resume(threshold);
  }
  std::remove(path.c_str());
}

// -- Negative caching --------------------------------------------------------

TEST(Chaos, NegativeCacheBacksOffPoisonedTile) {
  const ChaosArchive& a = chaos_archive();
  static const auto damaged = with_corrupt_tile(a.bytes, "rho", 4);
  auto reader = std::make_shared<const ArchiveReader>(
      ArchiveReader::open_memory(damaged));

  TileCacheConfig config;
  config.negative_ttl_ms = 500;
  config.negative_ttl_max_ms = 8000;
  TileCache cache(config);
  const std::uint64_t id = cache.add_archive(reader);

  // First request decodes and fails; everything inside the TTL window is
  // served the cached typed error without a decode.
  EXPECT_THROW(cache.get(id, "rho", 4), CorruptStream);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().decode_errors, 1u);
  for (int i = 0; i < 4; ++i) EXPECT_THROW(cache.get(id, "rho", 4), CorruptStream);
  EXPECT_EQ(cache.stats().misses, 1u);  // exactly one decode attempt
  EXPECT_EQ(cache.stats().negative_hits, 4u);
  EXPECT_EQ(cache.stats().negative_entries, 1u);

  // A stampede of threads also costs zero further decodes.
  std::vector<std::thread> threads;
  std::atomic<int> typed{0};
  for (int i = 0; i < 8; ++i)
    threads.emplace_back([&] {
      try {
        (void)cache.get(id, "rho", 4);
      } catch (const CorruptStream&) {
        typed.fetch_add(1);
      }
    });
  for (auto& t : threads) t.join();
  EXPECT_EQ(typed.load(), 8);
  EXPECT_EQ(cache.stats().misses, 1u);

  // After the TTL expires the decode is retried once (the backoff window
  // doubles), and the fresh failure is negatively cached again.
  std::this_thread::sleep_for(std::chrono::milliseconds(700));
  EXPECT_THROW(cache.get(id, "rho", 4), CorruptStream);
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_THROW(cache.get(id, "rho", 4), CorruptStream);
  EXPECT_EQ(cache.stats().misses, 2u);  // negative hit, window now 1000ms

  // Healthy tiles are unaffected.
  const auto tile = cache.get(id, "rho", 0);
  ASSERT_NE(tile, nullptr);
  EXPECT_EQ(tile->shape(), (Shape{16, 16}));
}

TEST(Chaos, NegativeCacheDisabledRetriesEveryRequest) {
  const ChaosArchive& a = chaos_archive();
  static const auto damaged = with_corrupt_tile(a.bytes, "zeta", 1);
  auto reader = std::make_shared<const ArchiveReader>(
      ArchiveReader::open_memory(damaged));
  TileCacheConfig config;
  config.negative_ttl_ms = 0;
  TileCache cache(config);
  const std::uint64_t id = cache.add_archive(reader);
  EXPECT_THROW(cache.get(id, "zeta", 1), CorruptStream);
  EXPECT_THROW(cache.get(id, "zeta", 1), CorruptStream);
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.stats().negative_hits, 0u);
}

// -- HTTP chaos --------------------------------------------------------------

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

TEST(ChaosHttp, SurvivesMidResponseClientDeath) {
  const ChaosArchive& a = chaos_archive();
  auto reader = std::make_shared<const ArchiveReader>(
      ArchiveReader::open_memory(a.bytes));
  ArchiveService service(reader);
  HttpConfig config;
  config.idle_timeout_ms = 200;  // stalled half-requests go away fast
  HttpServer http(config, [&service](const HttpRequest& r) {
    return service.handle(r);
  });
  http.start();

  // Clients that request a large region and vanish — before, during and
  // after the response — must not take the server down or leak slots.
  const std::string req =
      "GET /field/rho/region?lo=0,0&hi=48,40 HTTP/1.1\r\nHost: x\r\n\r\n";
  for (int i = 0; i < 12; ++i) {
    const int fd = connect_loopback(http.port());
    ASSERT_GE(fd, 0);
    // Never block the chaos loop itself: a connection that gets no
    // response (half a request sent, or none) is abandoned after 100ms.
    timeval tv{};
    tv.tv_usec = 100'000;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    if (i % 3 != 0)
      (void)::send(fd, req.data(), i % 3 == 1 ? req.size() : req.size() / 2,
                   MSG_NOSIGNAL);
    if (i % 2 == 0) {
      char tiny[64];
      (void)::recv(fd, tiny, sizeof tiny, 0);  // read a little, then die
    }
    ::close(fd);
  }

  HttpClient client("127.0.0.1", http.port());
  const auto resp = client.get("/field/rho/region?lo=0,0&hi=16,16");
  EXPECT_EQ(resp.status, 200);
  EXPECT_EQ(resp.body.size(), 16u * 16u * sizeof(float));
  http.stop();
}

TEST(ChaosHttp, SlowLorisConnectionsAreReaped) {
  HttpConfig config;
  config.idle_timeout_ms = 200;
  HttpServer http(config, [](const HttpRequest&) {
    return HttpResponse::text(200, "ok\n");
  });
  http.start();

  std::vector<int> fds;
  for (int i = 0; i < 6; ++i) {
    const int fd = connect_loopback(http.port());
    ASSERT_GE(fd, 0);
    (void)::send(fd, "G", 1, MSG_NOSIGNAL);  // drip one byte, then stall
    fds.push_back(fd);
  }
  // The event loop wakes at least once a second; past the idle timeout the
  // stalled connections are gone and their slots are free again.
  std::this_thread::sleep_for(std::chrono::milliseconds(1500));
  EXPECT_EQ(http.stats().open_connections, 0u);

  HttpClient client("127.0.0.1", http.port());
  EXPECT_EQ(client.get("/x").status, 200);
  for (const int fd : fds) ::close(fd);
  http.stop();
}

TEST(ChaosHttp, DrainFinishesInFlightAndRefusesNew) {
  HttpConfig config;
  config.drain_deadline_ms = 5000;
  HttpServer http(config, [](const HttpRequest&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    return HttpResponse::text(200, "slow ok\n");
  });
  http.start();
  const std::uint16_t port = http.port();

  std::atomic<int> ok{0}, closed_marked{0}, refused{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < 3; ++i)
    threads.emplace_back([&] {
      try {
        HttpClientConfig cc;
        cc.max_retries = 0;  // a refused connect is a real signal here
        HttpClient client("127.0.0.1", port, cc);
        const auto resp = client.get("/work");
        if (resp.status == 200) ok.fetch_add(1);
        const std::string* conn = resp.header("Connection");
        if (conn != nullptr && *conn == "close") closed_marked.fetch_add(1);
      } catch (const IoError&) {
        refused.fetch_add(1);  // connected after the listener closed
      }
    });

  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const bool drained = http.drain();
  for (auto& t : threads) t.join();

  EXPECT_TRUE(drained);
  EXPECT_GE(ok.load(), 1);  // in-flight requests finished with real answers
  EXPECT_EQ(ok.load() + refused.load(), 3);
  // Every response served during the drain told the client to hang up.
  EXPECT_EQ(closed_marked.load(), ok.load());

  // The listener is gone: new connections are refused at the TCP level.
  EXPECT_LT(connect_loopback(port), 0);
}

TEST(ChaosHttp, OverloadShedsWithRetryAfter) {
  // The global shed counter is process-wide, so work from deltas.
  const std::uint64_t shed_before = obs::http_shed_total().value();
  HttpConfig config;
  config.max_pending_requests = 1;
  HttpServer http(config, [](const HttpRequest&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
    return HttpResponse::text(200, "ok\n");
  });
  http.start();
  const std::uint16_t port = http.port();

  std::atomic<int> served{0}, shed{0}, other{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < 8; ++i)
    threads.emplace_back([&] {
      HttpClient client("127.0.0.1", port);
      for (int k = 0; k < 3; ++k) {
        const auto resp = client.get("/x");
        if (resp.status == 200) {
          served.fetch_add(1);
        } else if (resp.status == 503) {
          shed.fetch_add(1);
          EXPECT_NE(resp.header("Retry-After"), nullptr);
        } else {
          other.fetch_add(1);
        }
      }
    });
  for (auto& t : threads) t.join();

  EXPECT_EQ(served.load() + shed.load(), 24);  // every request got an answer
  EXPECT_EQ(other.load(), 0);
  EXPECT_GT(served.load(), 0);
  EXPECT_EQ(http.stats().shed_requests, static_cast<std::uint64_t>(shed.load()));
#ifndef XFC_NO_METRICS
  // The registry's xfs_http_shed_total mirrors the server's own tally —
  // the /metrics view and the /stats view must never disagree.
  EXPECT_EQ(obs::http_shed_total().value() - shed_before,
            static_cast<std::uint64_t>(shed.load()));
#endif
  http.stop();
}

TEST(ChaosHttp, AllowPartialServesDegradedRegions) {
  const ChaosArchive& a = chaos_archive();
  static const auto damaged = with_corrupt_tile(a.bytes, "rho", 4);
  auto reader = std::make_shared<const ArchiveReader>(
      ArchiveReader::open_memory(damaged));
  ArchiveService service(reader);
  HttpServer http(HttpConfig{}, [&service](const HttpRequest& r) {
    return service.handle(r);
  });
  http.start();
  HttpClient client("127.0.0.1", http.port());

  // Default: the damaged tile fails the whole region with a named culprit.
  const auto strict = client.get("/field/rho/region?lo=0,0&hi=48,40");
  EXPECT_EQ(strict.status, 502);
  EXPECT_NE(strict.body.find("rho"), std::string::npos);
  EXPECT_NE(strict.body.find("allow_partial"), std::string::npos);

  // Opt-in degraded mode: 200 with a tile-error manifest and no ETag (a
  // degraded body must never validate a later 304).
  const auto part =
      client.get("/field/rho/region?lo=0,0&hi=48,40&allow_partial=1");
  EXPECT_EQ(part.status, 200);
  ASSERT_EQ(part.body.size(), 48u * 40u * sizeof(float));
  ASSERT_NE(part.header("X-Xfc-Bad-Tiles"), nullptr);
  EXPECT_EQ(*part.header("X-Xfc-Bad-Tiles"), "4");
  EXPECT_EQ(part.header("ETag"), nullptr);

  std::vector<float> vals(48 * 40);
  std::memcpy(vals.data(), part.body.data(), part.body.size());
  const TileGrid grid(Shape{48, 40}, Shape{16, 16});
  const TileBox hole = grid.box(4);
  for (std::size_t i = 0; i < 48; ++i)
    for (std::size_t j = 0; j < 40; ++j) {
      if (in_box(hole, i, j))
        ASSERT_EQ(vals[i * 40 + j], 0.0f);
      else
        ASSERT_EQ(vals[i * 40 + j], a.rho_ref.array()(i, j));
    }

  // JSON flavor: NaN fill serializes as null, errors land in the body.
  const auto json = client.get(
      "/field/rho/region?lo=16,16&hi=32,32&fmt=json&allow_partial=1&fill=nan");
  EXPECT_EQ(json.status, 200);
  EXPECT_NE(json.body.find("tile_errors"), std::string::npos);
  EXPECT_NE(json.body.find("null"), std::string::npos);
  EXPECT_EQ(json.header("ETag"), nullptr);

  // An undamaged region still validates and carries its ETag.
  const auto fine = client.get("/field/zeta/region?lo=0,0&hi=16,16");
  EXPECT_EQ(fine.status, 200);
  EXPECT_NE(fine.header("ETag"), nullptr);

  // Readiness flips independently of liveness.
  EXPECT_EQ(client.get("/readyz").status, 200);
  service.set_ready(false);
  const auto notready = client.get("/readyz");
  EXPECT_EQ(notready.status, 503);
  EXPECT_NE(notready.header("Retry-After"), nullptr);
  EXPECT_EQ(client.get("/healthz").status, 200);
  service.set_ready(true);
  http.stop();
}

TEST(ChaosHttp, ClientRetriesTransportFailures) {
  // A hand-rolled listener that kills the first connection outright, then
  // speaks just enough HTTP on the second: the client's transport retry
  // must bridge the gap without surfacing an error.
  const int lfd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(lfd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  ASSERT_EQ(::bind(lfd, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  ASSERT_EQ(::listen(lfd, 4), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(lfd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  const std::uint16_t port = ntohs(addr.sin_port);

  std::thread srv([lfd] {
    const int c1 = ::accept(lfd, nullptr, nullptr);
    if (c1 >= 0) ::close(c1);  // die before answering
    const int c2 = ::accept(lfd, nullptr, nullptr);
    if (c2 < 0) return;
    std::string in;
    char buf[512];
    while (in.find("\r\n\r\n") == std::string::npos) {
      const ssize_t n = ::recv(c2, buf, sizeof buf, 0);
      if (n <= 0) break;
      in.append(buf, static_cast<std::size_t>(n));
    }
    const char resp[] =
        "HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\n"
        "Content-Length: 2\r\nConnection: close\r\n\r\nok";
    (void)::send(c2, resp, sizeof resp - 1, MSG_NOSIGNAL);
    ::close(c2);
  });

  HttpClientConfig config;
  config.max_retries = 3;
  config.backoff_base_ms = 1;
  config.backoff_max_ms = 5;
  HttpClient client("127.0.0.1", port, config);
  const auto resp = client.get("/retry-me");
  EXPECT_EQ(resp.status, 200);
  EXPECT_EQ(resp.body, "ok");
  srv.join();
  ::close(lfd);

  // Exhausted retries surface as a typed IoError, and retrying can be
  // disabled outright.
  HttpClientConfig none;
  none.max_retries = 0;
  HttpClient dead("127.0.0.1", port, none);  // nothing listens here anymore
  EXPECT_THROW(dead.get("/gone"), IoError);
}

}  // namespace
}  // namespace xfc
