// Observability tests: the striped metrics core (concurrent counter /
// histogram mutation, bucket edges, quantile interpolation, Prometheus
// exposition), the registry's duplicate-name guard, the span tree + its
// Server-Timing / JSON renderings, the JSON writer's two layouts, the
// access-log line format + SIGHUP-style rotation, the serving endpoints
// (`/metrics`, `/stats?format=v2`, `?trace=1`, Server-Timing over real
// loopback HTTP, `/debug/cache`, `/debug/prof`), the sampling CPU
// profiler, the tile-access heatmap, and the bench-regression gate logic.
//
// The concurrency tests double as the TSan proof for the lock-free hot
// path: 8 threads hammering one counter/histogram must be clean and exact.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "archive/archive_reader.hpp"
#include "archive/archive_writer.hpp"
#include "bench_compare.hpp"
#include "core/error.hpp"
#include "core/rng.hpp"
#include "obs/access_log.hpp"
#include "obs/json_writer.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"
#include "server/http.hpp"
#include "server/service.hpp"
#include "server/tile_cache.hpp"

#ifndef XFC_NO_METRICS

namespace xfc {
namespace {

using obs::Counter;
using obs::Gauge;
using obs::Histogram;
using obs::JsonWriter;
using obs::Registry;
using obs::SpanScope;
using obs::Trace;
using obs::TraceActivation;

// -- metrics core ------------------------------------------------------------

TEST(Metrics, CounterConcurrentAddsAreExact) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 20'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&c] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) c.add();
    });
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), kThreads * kPerThread);
}

TEST(Metrics, HistogramBucketIndexEdges) {
  const Histogram h({1.0, 2.0, 5.0});
  // Upper edges are inclusive (Prometheus `le` semantics).
  EXPECT_EQ(h.bucket_index(0.0), 0u);
  EXPECT_EQ(h.bucket_index(1.0), 0u);
  EXPECT_EQ(h.bucket_index(1.0000001), 1u);
  EXPECT_EQ(h.bucket_index(2.0), 1u);
  EXPECT_EQ(h.bucket_index(5.0), 2u);
  EXPECT_EQ(h.bucket_index(5.1), 3u);  // +Inf tail
}

TEST(Metrics, HistogramConcurrentObservesAreExact) {
  Histogram h({1.0, 10.0, 100.0});
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&h] {
      for (int i = 0; i < kPerThread; ++i) h.observe(3.0);
    });
  for (auto& t : threads) t.join();
  const Histogram::Snapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(snap.counts[1], snap.count);  // all land in (1, 10]
  EXPECT_NEAR(snap.sum, 3.0 * kThreads * kPerThread, 1e-6 * snap.count);
}

TEST(Metrics, HistogramQuantileInterpolates) {
  Histogram h({10.0, 20.0, 30.0});
  for (int i = 0; i < 10; ++i) h.observe(15.0);
  const auto snap = h.snapshot();
  // All mass in (10, 20]: the median interpolates to the bucket midpoint.
  EXPECT_NEAR(obs::histogram_quantile(snap, 0.5), 15.0, 1e-9);
  EXPECT_NEAR(obs::histogram_quantile(snap, 1.0), 20.0, 1e-9);

  Histogram tail({10.0, 20.0, 30.0});
  tail.observe(1e6);  // +Inf bucket clamps to the highest finite edge
  EXPECT_NEAR(obs::histogram_quantile(tail.snapshot(), 0.99), 30.0, 1e-9);

  const Histogram empty({1.0});
  EXPECT_EQ(obs::histogram_quantile(empty.snapshot(), 0.5), 0.0);
}

TEST(Metrics, LogBucketsAreAscendingAndCoverHi) {
  const std::vector<double> edges = obs::log_buckets(10.0, 1000.0, 2.0);
  ASSERT_GE(edges.size(), 2u);
  EXPECT_DOUBLE_EQ(edges.front(), 10.0);
  EXPECT_GE(edges.back(), 1000.0);
  for (std::size_t i = 1; i < edges.size(); ++i)
    EXPECT_GT(edges[i], edges[i - 1]);
  EXPECT_THROW(obs::log_buckets(0.0, 10.0, 2.0), InvalidArgument);
}

TEST(Metrics, RegistryRejectsDuplicateNames) {
  Registry r;
  r.counter("t_total", "a counter");
  EXPECT_THROW(r.counter("t_total", "again"), InvalidArgument);
  EXPECT_THROW(r.gauge("t_total", "as a gauge"), InvalidArgument);
  EXPECT_THROW(r.histogram("t_total", "as a histogram"), InvalidArgument);
  EXPECT_THROW(r.counter_fn("t_total", "as a callback", [] { return 0.0; }),
               InvalidArgument);
}

TEST(Metrics, ExpositionGolden) {
  Registry r;
  Counter& c = r.counter("t_total", "c");
  Gauge& g = r.gauge("t_gauge", "g");
  Histogram& h = r.histogram("t_us", "h", {1.0, 2.0});
  c.add(3);
  g.set(2.5);
  h.observe(0.5);
  h.observe(1.5);
  h.observe(99.0);
  EXPECT_EQ(r.exposition(),
            "# HELP t_gauge g\n"
            "# TYPE t_gauge gauge\n"
            "t_gauge 2.5\n"
            "# HELP t_total c\n"
            "# TYPE t_total counter\n"
            "t_total 3\n"
            "# HELP t_us h\n"
            "# TYPE t_us histogram\n"
            "t_us_bucket{le=\"1\"} 1\n"
            "t_us_bucket{le=\"2\"} 2\n"
            "t_us_bucket{le=\"+Inf\"} 3\n"
            "t_us_sum 101\n"
            "t_us_count 3\n");
}

TEST(Metrics, SetEnabledGatesMutation) {
  Counter c;
  obs::set_enabled(false);
  c.add(7);
  obs::set_enabled(true);  // restore for every other test
  EXPECT_EQ(c.value(), 0u);
  c.add(7);
  EXPECT_EQ(c.value(), 7u);
}

// -- tracing -----------------------------------------------------------------

TEST(TraceTest, SpanTreeRecordsNestingAndParents) {
  Trace trace;
  {
    const TraceActivation activate(&trace);
    ASSERT_EQ(Trace::current(), &trace);
    const SpanScope root("request");
    {
      const SpanScope child("tiles");
      const SpanScope grand("decode");
      (void)grand;
    }
    const SpanScope sibling("encode");
    (void)sibling;
  }
  EXPECT_EQ(Trace::current(), nullptr);
  ASSERT_EQ(trace.spans().size(), 4u);
  EXPECT_STREQ(trace.spans()[0].name, "request");
  EXPECT_EQ(trace.spans()[0].parent, -1);
  EXPECT_EQ(trace.spans()[1].parent, 0);  // tiles under request
  EXPECT_EQ(trace.spans()[2].parent, 1);  // decode under tiles
  EXPECT_EQ(trace.spans()[3].parent, 0);  // encode under request
  for (const obs::Span& s : trace.spans())
    EXPECT_NE(s.dur_ns, obs::Span::kOpen);

  // Server-Timing reports the depth-1 stages, in first-seen order.
  const std::string st = trace.server_timing();
  EXPECT_NE(st.find("tiles;dur="), std::string::npos);
  EXPECT_NE(st.find("encode;dur="), std::string::npos);
  EXPECT_LT(st.find("tiles"), st.find("encode"));
  EXPECT_EQ(st.find("decode"), std::string::npos);  // depth 2: not a stage

  const std::string json = trace.spans_json();
  EXPECT_NE(json.find("\"name\":\"decode\""), std::string::npos);
  EXPECT_NE(json.find("\"parent\":1"), std::string::npos);
}

TEST(TraceTest, SpanScopeFeedsHistogramWithoutActiveTrace) {
  ASSERT_EQ(Trace::current(), nullptr);
  Histogram h({1e12});
  {
    const SpanScope s("orphan", &h);
    (void)s;
  }
  EXPECT_EQ(h.snapshot().count, 1u);
}

TEST(TraceTest, SpanBufferCapsAndCountsDrops) {
  Trace trace;
  {
    const TraceActivation activate(&trace);
    for (std::size_t i = 0; i < Trace::kMaxSpans + 40; ++i) {
      const SpanScope s("s");
      (void)s;
    }
  }
  EXPECT_EQ(trace.spans().size(), Trace::kMaxSpans);
  EXPECT_EQ(trace.dropped_spans(), 40u);
}

// -- JSON writer -------------------------------------------------------------

TEST(JsonWriterTest, CompactLayout) {
  JsonWriter w;
  w.begin_object();
  w.field("a", std::uint64_t{1});
  w.begin_object("b");
  w.field("c", std::string("x\"y"));
  w.end_object();
  w.begin_array("arr");
  w.element(std::uint64_t{1});
  w.element(2.5);
  w.end_array();
  w.field("ok", true);
  w.end_object();
  EXPECT_EQ(w.take(), "{\"a\":1,\"b\":{\"c\":\"x\\\"y\"},"
                      "\"arr\":[1,2.5],\"ok\":true}");
}

TEST(JsonWriterTest, PrettyLayoutMatchesLegacyStatsShape) {
  JsonWriter w(/*pretty=*/true);
  w.begin_object();
  w.field("requests", std::uint64_t{3});
  w.begin_object("cache");
  w.field("hits", std::uint64_t{1});
  w.end_object();
  w.end_object();
  EXPECT_EQ(w.take(),
            "{\n"
            "  \"requests\": 3,\n"
            "  \"cache\": {\n"
            "    \"hits\": 1\n"
            "  }\n"
            "}\n");
}

// -- access log --------------------------------------------------------------

TEST(AccessLogTest, FormatsEntryCompactly) {
  obs::AccessEntry e;
  e.unix_ms = 1700000000123;
  e.method = "GET";
  e.path = "/field/f/region";
  e.query = "lo=0,0&hi=8,8";
  e.status = 200;
  e.bytes = 256;
  e.wall_us = 1234;
  e.cache_hits = 4;
  e.cache_misses = 0;
  e.bad_tiles = "3,17";
  e.slow = true;
  EXPECT_EQ(obs::format_access_entry(e),
            "{\"ts_ms\":1700000000123,\"method\":\"GET\","
            "\"path\":\"/field/f/region\",\"query\":\"lo=0,0&hi=8,8\","
            "\"status\":200,\"bytes\":256,\"wall_us\":1234,"
            "\"cache_hits\":4,\"cache_misses\":0,\"bad_tiles\":\"3,17\","
            "\"slow\":true}");

  // Optional fields vanish rather than emitting zero/empty values.
  obs::AccessEntry quick;
  quick.method = "GET";
  quick.path = "/healthz";
  quick.status = 200;
  const std::string line = obs::format_access_entry(quick);
  EXPECT_EQ(line.find("query"), std::string::npos);
  EXPECT_EQ(line.find("bad_tiles"), std::string::npos);
  EXPECT_EQ(line.find("slow"), std::string::npos);
  EXPECT_EQ(line.find("spans"), std::string::npos);
}

TEST(AccessLogTest, WritesOneLinePerEntry) {
  const std::string path = testing::TempDir() + "xfc_obs_access_test.log";
  std::remove(path.c_str());
  {
    const auto log = obs::AccessLog::open(path);
    log->write_line("{\"a\":1}");
    log->write_line("{\"b\":2}");
    EXPECT_EQ(log->lines_written(), 2u);
  }
  std::ifstream in(path);
  std::string l1, l2;
  ASSERT_TRUE(std::getline(in, l1));
  ASSERT_TRUE(std::getline(in, l2));
  EXPECT_EQ(l1, "{\"a\":1}");
  EXPECT_EQ(l2, "{\"b\":2}");
  std::remove(path.c_str());
  EXPECT_THROW(obs::AccessLog::open("/nonexistent-dir/x/y.log"), IoError);
}

// -- serving endpoints over real HTTP ----------------------------------------

std::shared_ptr<const ArchiveReader> make_archive(
    std::vector<std::uint8_t>& storage) {
  Rng rng(7);
  F32Array a(Shape{70, 90});
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double x = static_cast<double>(i % 90) / 7.0;
    const double y = static_cast<double>(i / 90) / 11.0;
    a[i] = static_cast<float>(std::sin(x) * std::cos(y) * 20.0 +
                              rng.normal(0, 0.1));
  }
  VectorSink sink;
  ArchiveWriter writer(sink);
  ArchiveFieldOptions opts;
  opts.eb = ErrorBound::relative(1e-3);
  opts.tile = Shape{32, 32};
  writer.add_field(Field("f", std::move(a)), opts);
  writer.finish();
  storage = sink.take();
  return std::make_shared<const ArchiveReader>(
      ArchiveReader::open_memory(storage));
}

TEST(ObsHttp, ServerTimingCarriesPipelineStages) {
  std::vector<std::uint8_t> storage;
  server::ArchiveService service(make_archive(storage));
  server::HttpServer http(server::HttpConfig{}, [&](const auto& r) {
    return service.handle(r);
  });
  http.start();
  server::HttpClient client("127.0.0.1", http.port());

  const auto resp = client.get("/field/f/region?lo=0,0&hi=64,64");
  ASSERT_EQ(resp.status, 200);
  const std::string* st = resp.header("Server-Timing");
  ASSERT_NE(st, nullptr);
  // At least the etag / tiles / encode stages of the region pipeline.
  std::size_t stages = 1;
  for (const char c : *st) stages += c == ',' ? 1 : 0;
  EXPECT_GE(stages, 3u);
  EXPECT_NE(st->find("etag;dur="), std::string::npos);
  EXPECT_NE(st->find("tiles;dur="), std::string::npos);
  EXPECT_NE(st->find("encode;dur="), std::string::npos);
  http.stop();
}

TEST(ObsHttp, MetricsEndpointExposesCountersAndHistograms) {
  std::vector<std::uint8_t> storage;
  server::ArchiveService service(make_archive(storage));
  server::HttpServer http(server::HttpConfig{}, [&](const auto& r) {
    return service.handle(r);
  });
  http.start();
  server::HttpClient client("127.0.0.1", http.port());
  ASSERT_EQ(client.get("/field/f/region?lo=0,0&hi=64,64").status, 200);

  const auto resp = client.get("/metrics");
  ASSERT_EQ(resp.status, 200);
  EXPECT_NE(resp.content_type.find("text/plain"), std::string::npos);
  const std::string& body = resp.body;
  // Service-registry counters carry real traffic...
  EXPECT_NE(body.find("# TYPE xfs_requests_total counter"),
            std::string::npos);
  EXPECT_NE(body.find("# TYPE xfs_cache_misses_total counter"),
            std::string::npos);
  // ...and the process registry contributes the stage histograms.
  std::size_t histograms = 0;
  for (std::size_t pos = 0;
       (pos = body.find(" histogram\n", pos)) != std::string::npos; ++pos)
    ++histograms;
  EXPECT_GE(histograms, 4u);
  EXPECT_NE(body.find("xfc_tile_decode_us_bucket{le=\"1\"}"),
            std::string::npos);
  EXPECT_NE(body.find("xfc_tile_decode_us_count"), std::string::npos);
  http.stop();
}

TEST(ObsHttp, StatsV2AndTraceDebugView) {
  std::vector<std::uint8_t> storage;
  server::ArchiveService service(make_archive(storage));

  const auto v2 = [&] {
    server::HttpRequest req;
    req.method = "GET";
    req.path = "/stats";
    req.query = "format=v2";
    return service.handle(req);
  }();
  ASSERT_EQ(v2.status, 200);
  EXPECT_NE(v2.body.find("\"service\":"), std::string::npos);
  EXPECT_NE(v2.body.find("\"process\":"), std::string::npos);
  EXPECT_NE(v2.body.find("\"xfs_requests_total\""), std::string::npos);

  server::HttpRequest req;
  req.method = "GET";
  req.path = "/field/f/region";
  req.query = "lo=0,0&hi=64,64&trace=1";
  const auto traced = service.handle(req);
  ASSERT_EQ(traced.status, 200);
  EXPECT_NE(traced.body.find("\"field\":\"f\""), std::string::npos);
  EXPECT_NE(traced.body.find("\"spans\":["), std::string::npos);
  EXPECT_NE(traced.body.find("\"name\":\"tiles\""), std::string::npos);
  EXPECT_NE(traced.body.find("\"cache_hits\":"), std::string::npos);
}

// -- histogram_quantile edge cases -------------------------------------------

TEST(Metrics, HistogramQuantileEmptyAndSingleBucket) {
  // No observations: 0, not NaN or a crash.
  Histogram::Snapshot empty;
  EXPECT_EQ(obs::histogram_quantile(empty, 0.5), 0.0);

  // count > 0 with no finite bounds used to dereference bounds.back() on an
  // empty vector — pinned to 0 (there is no finite edge to interpolate).
  Histogram::Snapshot inf_only;
  inf_only.counts = {7};
  inf_only.count = 7;
  EXPECT_EQ(obs::histogram_quantile(inf_only, 0.99), 0.0);

  // Single finite bucket: interpolation stays inside [0, edge], and the
  // +Inf tail clamps to the finite edge.
  Histogram one({10.0});
  one.observe(5.0);
  one.observe(5.0);
  const auto snap = one.snapshot();
  EXPECT_GT(obs::histogram_quantile(snap, 0.5), 0.0);
  EXPECT_LE(obs::histogram_quantile(snap, 1.0), 10.0);
  one.observe(50.0);
  EXPECT_EQ(obs::histogram_quantile(one.snapshot(), 0.999), 10.0);
}

// -- process gauges ----------------------------------------------------------

TEST(Metrics, ProcessGaugesReadFromProcAtScrapeTime) {
  obs::ensure_process_metrics();
  std::vector<obs::MetricValue> values;
  std::vector<obs::HistogramValue> histograms;
  obs::registry().snapshot(values, histograms);
  double rss = -1.0, fds = -1.0, threads = -1.0, uptime = -1.0;
  for (const auto& v : values) {
    if (v.name == "xfc_process_resident_bytes") rss = v.value;
    if (v.name == "xfc_process_open_fds") fds = v.value;
    if (v.name == "xfc_process_threads") threads = v.value;
    if (v.name == "xfc_process_uptime_seconds") uptime = v.value;
  }
  // All four registered...
  ASSERT_GE(rss, 0.0);
  ASSERT_GE(fds, 0.0);
  ASSERT_GE(threads, 0.0);
  ASSERT_GE(uptime, 0.0);
#if defined(__linux__)
  // ...and carrying plausible live values where /proc exists.
  EXPECT_GT(rss, 1.0e6);     // a running gtest binary is >1 MB resident
  EXPECT_GE(fds, 3.0);       // stdin/stdout/stderr at minimum
  EXPECT_GE(threads, 1.0);
#endif
}

// -- sampling CPU profiler ---------------------------------------------------

/// Spins real CPU: ITIMER_PROF counts process CPU time, so sleeping would
/// produce zero samples no matter how long the wall window.
void burn_cpu_ms(double ms) {
  const std::clock_t start = std::clock();
  volatile double acc = 0.0;
  while ((static_cast<double>(std::clock() - start) * 1000.0 /
          CLOCKS_PER_SEC) < ms)
    for (int i = 0; i < 1000; ++i) acc = acc + std::sin(i);
}

TEST(Profiler, ArmBurnDisarmProducesFoldedStacks) {
  ASSERT_FALSE(obs::profiler_armed());
  obs::ProfilerOptions opt;
  opt.hz = 499.0;
  ASSERT_TRUE(obs::profiler_arm(opt));
  EXPECT_TRUE(obs::profiler_armed());
  EXPECT_FALSE(obs::profiler_arm(opt));  // second arm refused, first intact
  burn_cpu_ms(300.0);
  const obs::ProfileReport rep = obs::profiler_disarm();
  EXPECT_FALSE(obs::profiler_armed());
  EXPECT_GT(rep.samples, 0u);
  EXPECT_GE(rep.threads, 1u);
  ASSERT_FALSE(rep.folded.empty());
  // Folded format: every line is "frame[;frame...] count\n".
  EXPECT_NE(rep.folded.find(' '), std::string::npos);
  EXPECT_EQ(rep.folded.back(), '\n');

  // Disarming an unarmed profiler is an empty no-op, not an error.
  const obs::ProfileReport idle = obs::profiler_disarm();
  EXPECT_EQ(idle.samples, 0u);
  EXPECT_TRUE(idle.folded.empty());
}

// -- tile-access heatmap -----------------------------------------------------

TEST(TileCacheHeat, MirrorsStatsAndDecaysAcrossEpochs) {
  std::vector<std::uint8_t> storage;
  const auto reader = make_archive(storage);  // "f": 70x90, 3x3 tile grid
  server::TileCache cache(server::TileCacheConfig{8u << 20, 2});
  const std::uint64_t id = cache.add_archive(reader);

  // Scripted pattern: tile 0 three times, tile 1 once, tile 4 twice.
  for (int i = 0; i < 3; ++i) (void)cache.get(id, std::size_t{0}, 0);
  (void)cache.get(id, std::size_t{0}, 1);
  (void)cache.get(id, std::size_t{0}, 4);
  (void)cache.get(id, std::size_t{0}, 4);

  const std::vector<server::TileHeat> heat = cache.field_heat(id, 0);
  ASSERT_EQ(heat.size(), 9u);
  EXPECT_EQ(heat[0].misses, 1u);
  EXPECT_EQ(heat[0].hits, 2u);
  EXPECT_EQ(heat[1].misses, 1u);
  EXPECT_EQ(heat[1].hits, 0u);
  EXPECT_EQ(heat[4].misses, 1u);
  EXPECT_EQ(heat[4].hits, 1u);
  EXPECT_EQ(heat[2].hits + heat[2].misses, 0u);  // untouched tile

  // Per-tile totals mirror the cache's own counters exactly.
  const server::TileCacheStats stats = cache.stats();
  std::uint64_t hits = 0, misses = 0;
  for (const auto& t : heat) {
    hits += t.hits;
    misses += t.misses;
  }
  EXPECT_EQ(hits, stats.hits);
  EXPECT_EQ(misses, stats.misses);

  // Shard occupancy snapshots add up to the cache totals.
  std::uint64_t shard_entries = 0, shard_bytes = 0;
  for (std::size_t s = 0; s < cache.shard_count(); ++s) {
    const server::TileShardStats ss = cache.shard_stats(s);
    shard_entries += ss.entries;
    shard_bytes += ss.bytes;
  }
  EXPECT_EQ(shard_entries, stats.entries);
  EXPECT_EQ(shard_bytes, stats.bytes);

  // The popularity score halves per idle epoch, then re-bumps on touch:
  // hot=3 after three same-epoch touches, (3>>1)+1 == 2 one epoch later.
  EXPECT_EQ(heat[0].hot, 3u);
  EXPECT_EQ(heat[0].last_epoch, cache.access_epoch());
  cache.advance_access_epoch();
  (void)cache.get(id, std::size_t{0}, 0);
  EXPECT_EQ(cache.field_heat(id, 0)[0].hot, 2u);

  // Unknown archive/field answer empty, not UB.
  EXPECT_TRUE(cache.field_heat(id + 999, 0).empty());
  EXPECT_TRUE(cache.field_heat(id, 99).empty());
}

// -- /debug/cache + /debug/prof endpoints ------------------------------------

const std::string* find_header(const server::HttpResponse& resp,
                               const std::string& name) {
  for (const auto& [n, v] : resp.headers)
    if (n == name) return &v;
  return nullptr;
}

TEST(ObsHttp, DebugCacheHeatmapAndShardGauges) {
  std::vector<std::uint8_t> storage;
  server::ArchiveService service(make_archive(storage));
  server::HttpRequest req;
  req.method = "GET";
  req.path = "/field/f/region";
  req.query = "lo=0,0&hi=64,64";  // 4 of the 9 tiles
  ASSERT_EQ(service.handle(req).status, 200);
  ASSERT_EQ(service.handle(req).status, 200);  // warm repeat: 4 hits
  EXPECT_EQ(service.cache().stats().misses, 4u);
  EXPECT_EQ(service.cache().stats().hits, 4u);

  server::HttpRequest dbg;
  dbg.method = "GET";
  dbg.path = "/debug/cache";
  const server::HttpResponse resp = service.handle(dbg);
  ASSERT_EQ(resp.status, 200);
  EXPECT_NE(resp.body.find("\"epoch\":"), std::string::npos);
  EXPECT_NE(resp.body.find("\"shards\":["), std::string::npos);
  EXPECT_NE(resp.body.find("\"name\":\"f\""), std::string::npos);
  EXPECT_NE(resp.body.find("\"tiles\":9"), std::string::npos);
  // The four touched tiles: ordinals 0,1 (row 0) and 3,4 (row 1) of the
  // 3x3 grid — one miss each, one hit each, untouched tiles zero.
  EXPECT_NE(resp.body.find("\"misses\":[1,1,0,1,1,0,0,0,0]"),
            std::string::npos);
  EXPECT_NE(resp.body.find("\"hits\":[1,1,0,1,1,0,0,0,0]"),
            std::string::npos);

  // /metrics carries the per-shard occupancy gauges.
  server::HttpRequest m;
  m.method = "GET";
  m.path = "/metrics";
  const server::HttpResponse metrics = service.handle(m);
  ASSERT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.body.find("xfs_cache_shard0_entries"),
            std::string::npos);
  EXPECT_NE(metrics.body.find("xfs_cache_shard0_oldest_age_seconds"),
            std::string::npos);
}

TEST(ObsHttp, DebugProfProfilesAndRejectsConcurrentArm) {
  std::vector<std::uint8_t> storage;
  server::ArchiveService service(make_archive(storage));
  server::HttpRequest req;
  req.method = "GET";
  req.path = "/debug/prof";
  req.query = "seconds=0.05&hz=199";

  // Keep a core busy so the (CPU-time) PROF timer ticks during the window.
  std::atomic<bool> stop{false};
  std::thread burner([&stop] {
    while (!stop.load(std::memory_order_relaxed)) burn_cpu_ms(10.0);
  });

  const server::HttpResponse resp = service.handle(req);
  EXPECT_EQ(resp.status, 200);
  EXPECT_NE(resp.content_type.find("text/plain"), std::string::npos);
  EXPECT_NE(find_header(resp, "X-Xfc-Prof-Samples"), nullptr);
  EXPECT_NE(find_header(resp, "X-Xfc-Prof-Dropped"), nullptr);
  EXPECT_NE(find_header(resp, "X-Xfc-Prof-Threads"), nullptr);

  // While someone else holds the profiler, the endpoint answers 409 with a
  // retry hint instead of queueing behind a 30s cap.
  ASSERT_TRUE(obs::profiler_arm({}));
  const server::HttpResponse busy = service.handle(req);
  EXPECT_EQ(busy.status, 409);
  EXPECT_NE(find_header(busy, "Retry-After"), nullptr);
  (void)obs::profiler_disarm();

  stop.store(true, std::memory_order_relaxed);
  burner.join();

  server::HttpRequest bad = req;
  bad.query = "seconds=banana";
  EXPECT_EQ(service.handle(bad).status, 400);
}

// -- trace-drop accounting ---------------------------------------------------

TEST(ObsHttp, TraceDropCounterAccountsTruncatedSpanTrees) {
  // 4x4 tiles over 70x90 -> 414 tile spans, far past Trace::kMaxSpans.
  Rng rng(7);
  F32Array a(Shape{70, 90});
  for (std::size_t i = 0; i < a.size(); ++i)
    a[i] = static_cast<float>(std::sin(static_cast<double>(i % 90) / 7.0) *
                              20.0 + rng.normal(0, 0.1));
  VectorSink sink;
  ArchiveWriter writer(sink);
  ArchiveFieldOptions opts;
  opts.eb = ErrorBound::relative(1e-3);
  opts.tile = Shape{4, 4};
  writer.add_field(Field("f", std::move(a)), opts);
  writer.finish();
  std::vector<std::uint8_t> storage = sink.take();
  server::ArchiveService service(std::make_shared<const ArchiveReader>(
      ArchiveReader::open_memory(storage)));

  const std::uint64_t before = obs::trace_dropped_spans_total().value();
  server::HttpRequest req;
  req.method = "GET";
  req.path = "/field/f/region";
  req.query = "lo=0,0&hi=70,90&trace=1";
  const server::HttpResponse resp = service.handle(req);
  ASSERT_EQ(resp.status, 200);
  const std::size_t pos = resp.body.find("\"dropped_spans\":");
  ASSERT_NE(pos, std::string::npos);
  const long dropped =
      std::strtol(resp.body.c_str() + pos + 16, nullptr, 10);
  EXPECT_GT(dropped, 0);
  EXPECT_EQ(obs::trace_dropped_spans_total().value(),
            before + static_cast<std::uint64_t>(dropped));

  // A trace that fits still reports the field — explicitly zero, so a
  // consumer can tell "complete" from "truncated" without guessing.
  req.query = "lo=0,0&hi=4,4&trace=1";
  const server::HttpResponse small = service.handle(req);
  ASSERT_EQ(small.status, 200);
  EXPECT_NE(small.body.find("\"dropped_spans\":0"), std::string::npos);
}

// -- access-log rotation -----------------------------------------------------

TEST(AccessLogTest, ReopenFollowsLogrotateRename) {
  const std::string path = testing::TempDir() + "xfc_obs_rotate_test.log";
  const std::string rotated = path + ".1";
  std::remove(path.c_str());
  std::remove(rotated.c_str());
  {
    const auto log = obs::AccessLog::open(path);
    log->write_line("{\"seq\":1}");
    // logrotate convention: rename the live file, signal the process.
    ASSERT_EQ(std::rename(path.c_str(), rotated.c_str()), 0);
    ASSERT_TRUE(log->reopen());
    log->write_line("{\"seq\":2}");
    EXPECT_EQ(log->lines_written(), 2u);
  }
  std::ifstream oldf(rotated), newf(path);
  std::string line;
  ASSERT_TRUE(std::getline(oldf, line));
  EXPECT_EQ(line, "{\"seq\":1}");
  EXPECT_FALSE(std::getline(oldf, line));  // old lines stay in the rename
  ASSERT_TRUE(std::getline(newf, line));
  EXPECT_EQ(line, "{\"seq\":2}");
  std::remove(path.c_str());
  std::remove(rotated.c_str());

  // stdout sink: rotation is a successful no-op.
  EXPECT_TRUE(obs::AccessLog::open("-")->reopen());
}

// -- bench-regression gate ---------------------------------------------------

TEST(BenchCompare, ParsesRawAndTrajectoryFormats) {
  const auto raw = bench::parse_bench_records(
      "[{\"name\":\"a\",\"wall_ms\":1.5,\"bytes_per_sec\":10},"
      "{\"name\":\"b\",\"wall_ms\":2.0}]");
  ASSERT_EQ(raw.size(), 2u);
  EXPECT_EQ(raw[0].name, "a");
  EXPECT_DOUBLE_EQ(raw[0].wall_ms, 1.5);
  EXPECT_EQ(raw[1].name, "b");

  // Trajectory format: after_wall_ms is the baseline; objects without a
  // name ("machine") and value-only records are skipped, not mis-parsed.
  const auto traj = bench::parse_bench_records(
      "{\"pr\":9,\"machine\":{\"cpu_count\":1},\"benches\":["
      "{\"name\":\"a\",\"before_wall_ms\":2.0,\"after_wall_ms\":1.0,"
      "\"speedup\":2.0,\"note\":\"x\"}]}");
  ASSERT_EQ(traj.size(), 1u);
  EXPECT_EQ(traj[0].name, "a");
  EXPECT_DOUBLE_EQ(traj[0].wall_ms, 1.0);

  EXPECT_TRUE(bench::parse_bench_records("not json").empty());
}

TEST(BenchCompare, GateBaselineWinsWhateverItsPosition) {
  // The gate's tripwire values sit in "gate_baseline"; a document that
  // lists "benches" first must still gate on them, not on the first
  // same-named record it meets.
  const auto records = bench::parse_bench_records(
      "{\"benches\":[{\"name\":\"a\",\"before_wall_ms\":2.0,"
      "\"after_wall_ms\":4.0},{\"name\":\"b\",\"after_wall_ms\":3.0}],"
      "\"note\":\"gate_baseline\",\"gate_baseline\": [{\"name\":\"a\","
      "\"after_wall_ms\":1.0,\"from\":\"pr\"}],\"tail\":[{\"name\":\"c\","
      "\"wall_ms\":5.0}]}");
  ASSERT_EQ(records.size(), 4u);
  EXPECT_EQ(records[0].name, "a");
  EXPECT_DOUBLE_EQ(records[0].wall_ms, 1.0);

  const std::vector<bench::CompareRecord> fresh = {{"a", 2.0}, {"b", 3.0}};
  const bench::CompareResult r = bench::compare_benches(records, fresh, 1.25);
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_DOUBLE_EQ(r.rows[0].base_ms, 1.0);  // the gate value, not 4.0
  EXPECT_TRUE(r.rows[0].regressed);
  EXPECT_DOUBLE_EQ(r.rows[1].base_ms, 3.0);
}

TEST(BenchCompare, FlagsRegressionsPastThresholdOnly) {
  const std::vector<bench::CompareRecord> base = {
      {"a", 1.0}, {"b", 1.0}, {"tiny", 0.01}};
  const std::vector<bench::CompareRecord> fresh = {
      {"a", 1.3}, {"b", 1.2}, {"tiny", 0.05}, {"new", 9.0}};
  const bench::CompareResult r =
      bench::compare_benches(base, fresh, 1.25, 0.05);
  ASSERT_EQ(r.rows.size(), 2u);  // "tiny" sits under the min-ms noise floor
  EXPECT_EQ(r.fresh_only, 1u);   // "new" has no baseline: informational
  EXPECT_EQ(r.regressions, 1u);  // 1.3x > 1.25 fails, 1.2x passes
  EXPECT_EQ(r.rows[0].name, "a");
  EXPECT_TRUE(r.rows[0].regressed);
  EXPECT_FALSE(r.rows[1].regressed);

  // At threshold 3.0 (the smoke-run gate) the same data is clean.
  EXPECT_EQ(bench::compare_benches(base, fresh, 3.0, 0.05).regressions, 0u);
}

}  // namespace
}  // namespace xfc

#else  // XFC_NO_METRICS

// The compile-out build keeps the endpoints but freezes every value; the
// behavioral suite above would legitimately observe zeros, so it only runs
// in instrumented builds.
TEST(Metrics, CompiledOut) { EXPECT_FALSE(xfc::obs::enabled()); }

#endif  // XFC_NO_METRICS
