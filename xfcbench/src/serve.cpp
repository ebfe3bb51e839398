// serve_warm and serve_mixed: a closed loop of region GETs over loopback
// HTTP against an XFS ArchiveService serving the CESM-like snapshot, one
// keep-alive connection per client thread.
//
//   serve_warm   default 256 MiB tile cache, warmed with every tile, so
//                every GET is a cache hit; no writes.
//   serve_mixed  cache at a quarter of the decoded bytes, so most GETs
//                decode tiles; one PUT ingest epoch of the LIVE field per
//                put_every GETs, beside the reads.

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <thread>
#include <unistd.h>

#include "archive/archive_writer.hpp"
#include "server/http.hpp"
#include "server/service.hpp"
#include "trace.hpp"
#include "workload.hpp"

namespace xfcbench {

namespace {

using xfc::server::HttpClient;
using xfc::server::HttpRequest;
using xfc::server::HttpResponse;

constexpr std::size_t kTile = 128;
/// Edge of every GET's square region (see README.md, "Traffic").
constexpr std::size_t kRegion = 64;
constexpr const char* kLive = "LIVE";
constexpr std::size_t kLiveVersions = 8;
constexpr int kSetups = 3;

struct ServeConfig {
  std::size_t connections = 1;           // client threads, one each
  std::size_t cache_bytes = 256u << 20;  // ServiceConfig default
  /// GETs per PUT of the LIVE field. 0: no LIVE field, no ingest, no writes.
  std::size_t put_every = 0;
};

std::size_t online_cpus() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<std::size_t>(n) : 1;
}

/// Deterministic per-thread stream (splitmix64), so a seed fixes the
/// sequence of region positions every connection asks for.
struct SplitMix {
  std::uint64_t s;
  std::uint64_t next() {
    std::uint64_t z = (s += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  std::size_t below(std::size_t n) {
    return static_cast<std::size_t>(next() % n);
  }
};

/// Contents of the ingested field: version v is base + (v mod 8) * shift,
/// so every version has the same range and a body the checker can
/// recompute from (v, index) alone.
struct LiveField {
  xfc::Field base;
  float shift = 0;
  std::array<double, kLiveVersions> abs_eb{};

  float value(std::size_t i, std::uint64_t v) const {
    return base.data()[i] + static_cast<float>(v % kLiveVersions) * shift;
  }
  xfc::Field version(std::uint64_t v) const {
    xfc::Field f(kLive, base.shape());
    for (std::size_t i = 0; i < f.size(); ++i) f.data()[i] = value(i, v);
    return f;
  }
};

/// One complete set-up: dataset, trained models, archive file, service and
/// HTTP server, warm-up.
struct Served {
  Snapshot snap;
  LiveField live;
  std::map<std::string, xfc::CfnnModel> models;
  double train_s = 0, write_s = 0;  // write_s includes training
  double archive_bytes = 0;
  std::string path;
  std::uint64_t live_version = 0;  // LIVE version the archive holds
  std::unique_ptr<xfc::ArchiveReader> own;  // the benchmark's reader
  std::unique_ptr<xfc::server::ArchiveService> service;
  std::unique_ptr<xfc::server::HttpServer> http;

  ~Served() {
    if (http) http->stop();
  }
};

/// The handler handed to HttpServer. While tracing, it records a span per
/// request (parented on the client's span id from X-Bench-Id) and reports
/// its own time in X-Bench-Handle-Ns, so the client can split its
/// round trip into handler time and HTTP overhead.
xfc::server::HttpHandler make_handler(xfc::server::ArchiveService& service) {
  return [&service](const HttpRequest& req) -> HttpResponse {
    if (!Tracer::instance().on()) return service.handle(req);
    std::uint64_t parent = 0;
    if (const std::string* id = req.header("X-Bench-Id"))
      parent = std::strtoull(id->c_str(), nullptr, 10);
    const std::int64_t t0 = now_ns();
    HttpResponse resp;
    {
      const Scope scope(req.method == "PUT" ? "server.service.put"
                                            : "server.service.handle",
                        parent);
      resp = service.handle(req);
    }
    resp.headers.emplace_back("X-Bench-Handle-Ns",
                              std::to_string(now_ns() - t0));
    return resp;
  };
}

std::unique_ptr<Served> set_up(const Options& opt, const ServeConfig& cfg) {
  auto s = std::make_unique<Served>();
  s->snap = make_snapshot(opt.seed);
  const bool ingest = cfg.put_every != 0;
  if (ingest) {
    // LIVE is a plain, unanchored field, so ingest may replace it.
    s->live.base = s->snap.field("FLUTC");
    s->live.base.set_name(kLive);
    s->live.shift = s->live.base.value_range() / kLiveVersions;
    for (std::size_t v = 0; v < kLiveVersions; ++v)
      s->live.abs_eb[v] = xfc::ErrorBound::relative(kRelEb).absolute_for(
          s->live.version(v).value_range());
    s->snap.fields.push_back(s->live.version(0));
  }
  s->path = opt.workdir + "/" + opt.workload + ".xfa";
  const std::int64_t w0 = now_ns();
  {
    xfc::FileSink sink(s->path);
    xfc::ArchiveWriter writer(sink);
    xfc::ArchiveFieldOptions opts;
    opts.eb = xfc::ErrorBound::relative(kRelEb);
    opts.tile = xfc::Shape{kTile, kTile};
    s->train_s =
        write_fields(writer, s->snap, opts, serving_training(), s->models);
    writer.finish();
  }
  s->write_s = ns_to_s(now_ns() - w0);
  s->own = std::make_unique<xfc::ArchiveReader>(
      xfc::ArchiveReader::open_file(s->path));
  s->archive_bytes = static_cast<double>(s->own->logical_size());

  xfc::server::ServiceConfig scfg;
  scfg.cache_bytes = cfg.cache_bytes;
  if (ingest) scfg.archive_path = s->path;
  s->service = std::make_unique<xfc::server::ArchiveService>(
      std::make_shared<const xfc::ArchiveReader>(
          xfc::ArchiveReader::open_file(s->path)),
      scfg);
  xfc::server::HttpConfig hcfg;
  hcfg.max_request_bytes = 16u << 20;  // PUT bodies carry a whole field
  // The slow-request log would print a span tree to stderr for a large
  // share of serve_mixed requests; the benchmark keeps its own spans.
  hcfg.slow_ms = -1;
  s->http = std::make_unique<xfc::server::HttpServer>(
      hcfg, make_handler(*s->service));
  s->http->start();
  return s;
}

struct Sample {
  std::size_t field;
  std::size_t lo0, lo1;
  std::string body;
};

/// Everything one closed-loop run measured.
struct LoopStats {
  std::uint64_t gets = 0, puts = 0, failed = 0;
  std::uint64_t get_bytes = 0, put_bytes = 0;
  double wall_s = 0, cpu_s = 0;
  double thread_wall_s = 0, check_s = 0;
  std::vector<double> get_us, put_us;
  double peak_rss_mb = 0;  // at the end of the loop
  // End-to-end figures (see summarize()).
  double mbps = 0, read_mbps = 0, mb_per_cpu_s = 0, p50_us = 0, p99_us = 0;
  bool calm = false;  // figures over the calmer half of the windows
  // Tracing only: handler time and RTT minus handler time.
  std::vector<double> handle_us, overhead_us, put_handle_us, put_overhead_us;
  double overlap_frac = 0;
  std::vector<ErrorAccumulator> acc;  // per served field
  std::vector<Sample> samples;
  xfc::server::TileCacheStats cache0, cache1;
  std::uint64_t shed = 0;
};

constexpr std::int64_t kWindowNs = 1'000'000'000;
constexpr std::size_t kMinGets = 1000;  // p99 with ten samples beyond it
constexpr std::size_t kMaxGetsPerThread = std::size_t{1} << 20;

double quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  return quantile_sorted(v, q);
}

/// Process CPU time, bytes served and host steal, read at the start of the
/// loop and at every window boundary.
struct WindowMark {
  std::int64_t cpu;
  std::uint64_t get, put;
  double steal;
};

/// End-to-end figures of a loop. The one-second windows are ranked by host
/// steal; when the calmer half holds at least kMinGets GETs, the figures
/// pool the GETs, bytes and CPU time of those windows. Otherwise (too few
/// GETs for a p99) they pool the whole run.
void summarize(LoopStats& st, const std::vector<WindowMark>& marks,
               const std::vector<std::int64_t>& get_end_ns) {
  std::vector<double> steal_rate;
  for (std::size_t w = 0; w + 1 < marks.size(); ++w)
    steal_rate.push_back((marks[w + 1].steal - marks[w].steal) /
                         ns_to_s(kWindowNs));
  std::vector<bool> keep(steal_rate.size(), false);
  for (const std::size_t w : calmer_half(steal_rate)) keep[w] = true;
  std::vector<double> lat;
  for (std::size_t i = 0; i < st.get_us.size(); ++i) {
    const auto w = static_cast<std::size_t>(get_end_ns[i] / kWindowNs);
    if (w < keep.size() && keep[w]) lat.push_back(st.get_us[i]);
  }
  st.calm = lat.size() >= kMinGets;
  double get_mb = static_cast<double>(st.get_bytes) / 1e6;
  double put_mb = static_cast<double>(st.put_bytes) / 1e6;
  double wall_s = st.wall_s, cpu_s = st.cpu_s;
  if (st.calm) {
    get_mb = put_mb = wall_s = cpu_s = 0;
    for (std::size_t w = 0; w < keep.size(); ++w) {
      if (!keep[w]) continue;
      get_mb += static_cast<double>(marks[w + 1].get - marks[w].get) / 1e6;
      put_mb += static_cast<double>(marks[w + 1].put - marks[w].put) / 1e6;
      wall_s += ns_to_s(kWindowNs);
      cpu_s += ns_to_s(marks[w + 1].cpu - marks[w].cpu);
    }
  } else {
    lat = st.get_us;
  }
  st.mbps = (get_mb + put_mb) / wall_s;
  st.read_mbps = get_mb / wall_s;
  st.mb_per_cpu_s = (get_mb + put_mb) / cpu_s;
  st.p50_us = quantile(lat, 0.5);
  st.p99_us = quantile(lat, 0.99);
}

/// Closed loop: every connection sends its next request when the previous
/// answer has been checked, until `seconds` have passed. With put_every,
/// the client whose GET completes a multiple of put_every sends one PUT of
/// the next LIVE version (PUTs are serialized, so the server's LIVE
/// version is always one the checker knows about).
LoopStats run_loop(Served& s, const ServeConfig& cfg, double seconds,
                   std::uint64_t seed, bool traced) {
  const std::vector<xfc::Field>& fields = s.snap.fields;
  const std::size_t nf = fields.size();
  const std::size_t H = kDatasetShape[0], W = kDatasetShape[1], r = kRegion;
  const std::size_t n_conn = cfg.connections;

  std::atomic<std::uint64_t> get_counter{0};
  std::atomic<std::uint64_t> get_bytes{0}, put_bytes{0};  // for windows
  std::atomic<std::uint64_t> put_issued{s.live_version};
  std::atomic<std::uint64_t> put_acked{s.live_version};
  std::mutex put_mutex;
  std::vector<std::pair<std::int64_t, std::int64_t>> put_iv;
  // GET samples go to buffers allocated and touched before the clock
  // starts, so the process's peak RSS does not grow with the GET count.
  struct PerThread {
    LoopStats st;
    std::vector<float> lat_us;
    std::vector<std::uint32_t> end_us;  // completion, from loop start
    std::size_t n = 0;
    std::vector<std::pair<std::int64_t, std::int64_t>> get_iv;
  };
  std::vector<PerThread> per(n_conn);
  for (PerThread& p : per) {
    p.lat_us.assign(kMaxGetsPerThread, 0.0f);
    p.end_us.assign(kMaxGetsPerThread, 0);
  }

  LoopStats total;
  total.cache0 = s.service->cache().stats();
  const std::uint64_t shed0 = s.http->stats().shed_requests;
  const double steal0 = host_steal_s();
  const std::int64_t c0 = cpu_ns(), t0 = now_ns();
  const std::int64_t deadline = t0 + static_cast<std::int64_t>(seconds * 1e9);
  const std::uint16_t port = s.http->port();

  const auto client = [&](std::size_t ti) {
    PerThread& me = per[ti];
    LoopStats& st = me.st;
    st.acc.assign(nf, {});
    SplitMix rng{seed * 1000003 + ti};
    xfc::server::HttpClientConfig ccfg;
    ccfg.max_retries = 0;  // a transport error is a failed request
    HttpClient http("127.0.0.1", port, ccfg);
    std::vector<float> got(r * r), want(r * r);
    const std::int64_t start = now_ns();
    std::int64_t check_ns = 0;
    const auto handler_ns = [](const xfc::server::HttpClientResponse& resp) {
      const std::string* h = resp.header("X-Bench-Handle-Ns");
      return h == nullptr ? std::int64_t{0}
                          : static_cast<std::int64_t>(std::stoll(*h));
    };

    while (now_ns() < deadline) {
      // Fields round-robin (each connection from its own offset), so every
      // run reads every field equally often; positions are random.
      const std::size_t fi = (ti + st.gets) % nf;
      const std::size_t lo0 = rng.below(H - r + 1), lo1 = rng.below(W - r + 1);
      const xfc::Field& f = fields[fi];
      const std::string target =
          "/field/" + f.name() + "/region?lo=" + std::to_string(lo0) + "," +
          std::to_string(lo1) + "&hi=" + std::to_string(lo0 + r) + "," +
          std::to_string(lo1 + r);
      const bool live = f.name() == kLive;
      const std::uint64_t v_lo = put_acked.load();

      bool ok = false;
      xfc::server::HttpClientResponse resp;
      std::int64_t g0 = now_ns(), g1 = 0;
      try {
        const Scope span("client.get", std::uint64_t{0});
        std::vector<std::pair<std::string, std::string>> hdr;
        if (traced) hdr.emplace_back("X-Bench-Id", std::to_string(span.id()));
        g0 = now_ns();
        resp = http.get(target, hdr);
        g1 = now_ns();
        ok = resp.status == 200 && resp.body.size() == r * r * sizeof(float);
      } catch (const xfc::XfcError&) {
        g1 = now_ns();
      }
      const std::uint64_t v_hi = put_issued.load();
      ++st.gets;
      if (me.n < kMaxGetsPerThread) {
        me.lat_us[me.n] = static_cast<float>(ns_to_s(g1 - g0) * 1e6);
        me.end_us[me.n++] = static_cast<std::uint32_t>((g1 - t0) / 1000);
      }
      if (traced) {
        me.get_iv.emplace_back(g0, g1);
        const std::int64_t h = handler_ns(resp);
        st.handle_us.push_back(ns_to_s(h) * 1e6);
        st.overhead_us.push_back(ns_to_s(g1 - g0 - h) * 1e6);
      }

      const std::int64_t k0 = now_ns();
      if (ok) {
        st.get_bytes += resp.body.size();
        get_bytes += resp.body.size();
        std::memcpy(got.data(), resp.body.data(), resp.body.size());
        if (!live) {
          const double eb = s.own->find(f.name())->abs_eb;
          for (std::size_t y = 0; y < r; ++y)
            if (st.acc[fi].add(f.data() + (lo0 + y) * W + lo1,
                               got.data() + y * r, r, eb) != 0)
              ok = false;
          if (st.gets % 16 == 0 && st.samples.size() < 64)
            st.samples.push_back({fi, lo0, lo1, resp.body});
        } else {
          // Any version sealed while this GET was in flight may answer.
          ok = false;
          for (std::uint64_t v = v_lo; v <= v_hi && !ok; ++v) {
            for (std::size_t y = 0; y < r; ++y)
              for (std::size_t x = 0; x < r; ++x)
                want[y * r + x] = s.live.value((lo0 + y) * W + lo1 + x, v);
            ErrorAccumulator acc;
            if (acc.add(want.data(), got.data(), r * r,
                        s.live.abs_eb[v % kLiveVersions]) == 0) {
              st.acc[fi].merge(acc);
              ok = true;
            }
          }
        }
      }
      if (!ok) ++st.failed;
      check_ns += now_ns() - k0;

      if (cfg.put_every == 0 ||
          (get_counter.fetch_add(1) + 1) % cfg.put_every != 0)
        continue;
      const std::lock_guard<std::mutex> lock(put_mutex);
      const std::uint64_t v = put_issued.load() + 1;
      const xfc::Field body_field = s.live.version(v);
      const std::string body(reinterpret_cast<const char*>(body_field.data()),
                             body_field.size() * sizeof(float));
      put_issued = v;
      bool put_ok = false;
      std::int64_t p0 = now_ns(), p1 = 0;
      try {
        const Scope span("client.put", std::uint64_t{0});
        std::vector<std::pair<std::string, std::string>> hdr;
        if (traced) hdr.emplace_back("X-Bench-Id", std::to_string(span.id()));
        p0 = now_ns();
        const auto presp = http.put(
            std::string("/field/") + kLive + "?shape=" + std::to_string(H) +
                "," + std::to_string(W) + "&eb=" + std::to_string(kRelEb) +
                "&tile=" + std::to_string(kTile) + "," + std::to_string(kTile),
            body, "application/octet-stream", hdr);
        p1 = now_ns();
        put_ok = presp.status == 200 || presp.status == 201;
        if (traced) {
          const std::int64_t h = handler_ns(presp);
          st.put_handle_us.push_back(ns_to_s(h) * 1e6);
          st.put_overhead_us.push_back(ns_to_s(p1 - p0 - h) * 1e6);
          put_iv.emplace_back(p0, p1);
        }
      } catch (const xfc::XfcError&) {
        p1 = now_ns();
      }
      ++st.puts;
      st.put_us.push_back(ns_to_s(p1 - p0) * 1e6);
      if (put_ok) {
        st.put_bytes += body.size();
        put_bytes += body.size();
        put_acked = v;
      } else {
        ++st.failed;
      }
    }
    st.thread_wall_s = ns_to_s(now_ns() - start);
    st.check_s = ns_to_s(check_ns);
  };

  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < n_conn; ++i) threads.emplace_back(client, i);
  std::vector<WindowMark> marks{{c0, 0, 0, steal0}};
  for (std::int64_t w = 1; t0 + w * kWindowNs <= deadline; ++w) {
    std::this_thread::sleep_for(
        std::chrono::nanoseconds(t0 + w * kWindowNs - now_ns()));
    marks.push_back(
        {cpu_ns(), get_bytes.load(), put_bytes.load(), host_steal_s()});
  }
  for (std::thread& t : threads) t.join();
  total.wall_s = ns_to_s(now_ns() - t0);
  total.peak_rss_mb = peak_rss_mb();  // before the merge below allocates
  s.live_version = put_acked.load();
  total.cpu_s = ns_to_s(cpu_ns() - c0);
  total.cache1 = s.service->cache().stats();
  total.shed = s.http->stats().shed_requests - shed0;

  total.acc.assign(nf, {});
  std::vector<std::pair<std::int64_t, std::int64_t>> get_iv;
  std::vector<std::int64_t> get_end_ns;
  for (PerThread& p : per) {
    LoopStats& st = p.st;
    total.gets += st.gets;
    total.puts += st.puts;
    total.failed += st.failed;
    total.get_bytes += st.get_bytes;
    total.put_bytes += st.put_bytes;
    total.thread_wall_s += st.thread_wall_s;
    total.check_s += st.check_s;
    for (std::size_t i = 0; i < p.n; ++i) {
      total.get_us.push_back(p.lat_us[i]);
      get_end_ns.push_back(std::int64_t{p.end_us[i]} * 1000);
    }
    for (std::vector<double> LoopStats::*v :
         {&LoopStats::put_us, &LoopStats::handle_us,
          &LoopStats::overhead_us, &LoopStats::put_handle_us,
          &LoopStats::put_overhead_us})
      (total.*v).insert((total.*v).end(), (st.*v).begin(), (st.*v).end());
    for (std::size_t i = 0; i < nf; ++i) total.acc[i].merge(st.acc[i]);
    for (Sample& smp : st.samples) total.samples.push_back(std::move(smp));
    get_iv.insert(get_iv.end(), p.get_iv.begin(), p.get_iv.end());
  }
  if (total.get_us.size() < total.gets)
    std::fprintf(stderr, "warning: latency of %llu GETs past the per-thread "
                 "sample cap not recorded\n",
                 static_cast<unsigned long long>(total.gets -
                                                 total.get_us.size()));
  summarize(total, marks, get_end_ns);
  if (!get_iv.empty()) {
    std::size_t overlapped = 0;
    for (const auto& [a, b] : get_iv)
      for (const auto& [pa, pb] : put_iv)
        if (a < pb && pa < b) {
          ++overlapped;
          break;
        }
    total.overlap_frac =
        static_cast<double>(overlapped) / static_cast<double>(get_iv.size());
  }
  return total;
}

/// Bit-identity of the sampled GET bodies against ArchiveReader::read_region
/// on the benchmark's own reader; returns the number of mismatches.
std::uint64_t verify_samples(const Served& s, const LoopStats& st) {
  std::uint64_t bad = 0;
  for (const Sample& smp : st.samples) {
    const std::size_t lo[2] = {smp.lo0, smp.lo1};
    const std::size_t hi[2] = {smp.lo0 + kRegion, smp.lo1 + kRegion};
    const xfc::Field want =
        s.own->read_region(s.snap.fields[smp.field].name(), lo, hi);
    if (smp.body.size() != want.size() * sizeof(float) ||
        std::memcmp(smp.body.data(), want.data(), smp.body.size()) != 0)
      ++bad;
  }
  return bad;
}

ServeConfig reads_only(ServeConfig cfg) {
  cfg.put_every = 0;
  return cfg;
}

/// GETs every tile of every served field once, over `connections` client
/// threads; throws if any answer is not 200.
void warm_every_tile(const Served& s, std::size_t connections) {
  std::vector<std::string> targets;
  for (const xfc::Field& f : s.snap.fields)
    for (std::size_t y = 0; y < kDatasetShape[0]; y += kTile)
      for (std::size_t x = 0; x < kDatasetShape[1]; x += kTile)
        targets.push_back("/field/" + f.name() + "/region?lo=" +
                          std::to_string(y) + "," + std::to_string(x) +
                          "&hi=" + std::to_string(y + kTile) + "," +
                          std::to_string(x + kTile));
  std::atomic<std::size_t> next{0}, bad{0};
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < connections; ++i)
    threads.emplace_back([&] {
      HttpClient http("127.0.0.1", s.http->port());
      for (std::size_t k; (k = next.fetch_add(1)) < targets.size();) {
        try {
          if (http.get(targets[k]).status != 200) ++bad;
        } catch (const xfc::XfcError&) {
          ++bad;
        }
      }
    });
  for (std::thread& t : threads) t.join();
  if (bad != 0) throw xfc::IoError("warm-up GETs failed");
}

Result run_serve(const Options& opt, const ServeConfig& cfg) {
  std::vector<double> setup_s;
  std::unique_ptr<Served> s;
  for (int i = 0; i < kSetups; ++i) {
    s.reset();
    const std::int64_t t0 = now_ns();
    s = set_up(opt, cfg);
    // Warm-up. A cache that holds the whole archive gets every tile of
    // every field, one tile-sized GET each, spread over the connections, so
    // every later GET is a hit. A smaller cache is brought to its steady
    // state by a short read-only loop.
    if (cfg.cache_bytes >= raw_bytes(s->snap.fields))
      warm_every_tile(*s, cfg.connections);
    else
      run_loop(*s, reads_only(cfg), 1.0, opt.seed + 7777, false);
    setup_s.push_back(ns_to_s(now_ns() - t0));
  }
  std::printf("# set-up (last of %d): archive write %.2f s (CFNN training "
              "%.2f s), total %.2f s\n",
              kSetups, s->write_s, s->train_s, setup_s.back());

  const double untraced_s = opt.trace ? opt.seconds / 2 : opt.seconds;
  const LoopStats plain = run_loop(*s, cfg, untraced_s, opt.seed, false);
  const double p50 = plain.p50_us;
  std::printf("# %s: %zu connections, %llu GETs of %zux%zu, %llu PUTs, "
              "%.1f s\n",
              opt.workload.c_str(), cfg.connections,
              static_cast<unsigned long long>(plain.gets), kRegion, kRegion,
              static_cast<unsigned long long>(plain.puts),
              plain.wall_s);
  std::printf("# GET latency us: p10 %.0f  p25 %.0f  p50 %.0f  p75 %.0f  "
              "p90 %.0f  p99 %.0f  (n = %zu)\n",
              quantile(plain.get_us, 0.1), quantile(plain.get_us, 0.25), p50,
              quantile(plain.get_us, 0.75), quantile(plain.get_us, 0.9),
              quantile(plain.get_us, 0.99), plain.get_us.size());
  std::printf("# figures: %s\n",
              plain.calm ? "over the calmer half of the one-second windows"
                         : "pooled over the run");
  if (plain.gets < kMinGets)
    std::fprintf(stderr, "warning: %llu GETs; p99 has fewer than ten "
                 "samples beyond it\n",
                 static_cast<unsigned long long>(plain.gets));

  Result res;
  if (!opt.trace) {
    res.attempted = plain.gets + plain.puts;
    res.failed = plain.failed + verify_samples(*s, plain);
    double psnr = 1e300;
    for (std::size_t i = 0; i < plain.acc.size(); ++i)
      if (plain.acc[i].count > 0)
        psnr = std::min(psnr, plain.acc[i].psnr_db(
                                  s->snap.fields[i].value_range()));
    res.add("setup_s", median(setup_s), "s");
    res.add("MBps", plain.mbps, "MB/s");
    res.add("MB_per_cpu_s", plain.mb_per_cpu_s, "MB/cpu-s");
    res.add("read_MBps", plain.read_mbps, "MB/s");
    res.add("p50_us", p50, "us");
    res.add("tail_us", plain.p99_us, "us");
    res.add("ratio", raw_bytes(s->snap.fields) / s->archive_bytes, "x");
    res.add("psnr_min_db", psnr, "dB");
    res.add("peak_rss_mb", plain.peak_rss_mb, "MB");
    res.add("ok_frac",
            1.0 - static_cast<double>(res.failed) /
                      static_cast<double>(res.attempted),
            "fraction");
    res.correct = res.failed == 0;
    return res;
  }

  Tracer& tracer = Tracer::instance();
  tracer.clear();
  tracer.set_on(true);
  const LoopStats tr = run_loop(*s, cfg, untraced_s, opt.seed + 1, true);
  tracer.set_on(false);

  res.attempted = tr.gets + tr.puts;
  res.failed = tr.failed + verify_samples(*s, tr);
  res.correct = res.failed == 0 && plain.failed == 0 &&
                verify_samples(*s, plain) == 0;
  const double ops = static_cast<double>(tr.gets + tr.puts);
  const double gets = static_cast<double>(tr.gets);

  // Ledger per operation: client-thread wall = handler time + HTTP
  // overhead (RTT minus handler time) + the benchmark's checks + the rest.
  double handle_s = 0, put_s = 0, overhead_s = 0;
  for (double v : tr.handle_us) handle_s += v * 1e-6;
  for (double v : tr.put_handle_us) put_s += v * 1e-6;
  for (double v : tr.overhead_us) overhead_s += v * 1e-6;
  for (double v : tr.put_overhead_us) overhead_s += v * 1e-6;
  const double e2e = tr.thread_wall_s;
  const double unattributed = e2e - handle_s - put_s - overhead_s - tr.check_s;

  std::map<std::string, xfc::Field> decoded;
  for (xfc::Field& f : s->own->read_all())
    decoded.emplace(f.name(), std::move(f));
  const TileProbe probe = probe_tiles(*s->own, decoded, s->models, 8);
  double cross_bytes = 0, plain_bytes = 0;
  for (const xfc::ArchiveFieldInfo& info : s->own->fields())
    (info.cross_field ? cross_bytes : plain_bytes) +=
        static_cast<double>(info.compressed_bytes());
  const auto delta = [&](std::uint64_t xfc::server::TileCacheStats::*m) {
    return static_cast<double>(tr.cache1.*m - tr.cache0.*m);
  };
  const double hits = delta(&xfc::server::TileCacheStats::hits);
  const double misses = delta(&xfc::server::TileCacheStats::misses);

  res.add("ledger.e2e_s", e2e / ops, "s");
  res.add("unattributed_s", unattributed / ops, "s");
  res.add("cfnn.train_s", s->train_s, "s");
  res.add("server.service.handle_s", handle_s / ops, "s");
  res.add("server.service.put_s", put_s / ops, "s");
  res.add("server.http.overhead_s", overhead_s / ops, "s");
  res.add("bench.check_s", tr.check_s / ops, "s");
  res.add("crossfield.bytes", cross_bytes, "bytes");
  res.add("sz.bytes", plain_bytes, "bytes");
  res.add("cfnn.infer_flops_per_tile", probe.flops_per_tile, "flop");
  res.add("server.http.body_bytes_per_get",
          static_cast<double>(tr.get_bytes) / gets, "bytes");
  res.add("server.tile_cache.misses_per_get", misses / gets, "count");
  res.add("cfnn.infer_tile_us", probe.infer_us, "us");
  res.add("archive.tile_decode_plain_us", probe.plain_us, "us");
  res.add("archive.tile_decode_cross_us", probe.cross_us, "us");
  res.add("server.service.handle_p50_us", quantile(tr.handle_us, 0.5), "us");
  res.add("server.service.handle_p99_us", quantile(tr.handle_us, 0.99), "us");
  res.add("server.http.overhead_p50_us", quantile(tr.overhead_us, 0.5), "us");
  res.add("server.http.overhead_p99_us", quantile(tr.overhead_us, 0.99), "us");
  res.add("server.service.put_p50_us", quantile(tr.put_handle_us, 0.5), "us");
  res.add("server.service.put_wall_frac", put_s / e2e, "fraction");
  res.add("client.put_p50_us", quantile(tr.put_us, 0.5), "us");
  res.add("server.put.overlap_get_frac", tr.overlap_frac, "fraction");
  res.add("server.tile_cache.hit_ratio",
          hits + misses > 0 ? hits / (hits + misses) : 0.0, "fraction");
  res.add("server.tile_cache.evictions_per_get",
          delta(&xfc::server::TileCacheStats::evictions) / gets, "count");
  res.add("server.tile_cache.inflight_waits",
          delta(&xfc::server::TileCacheStats::inflight_waits), "count");
  res.add("server.http.shed_requests", static_cast<double>(tr.shed), "count");
  res.add("ops", ops, "count");
  res.add("failed_frac", static_cast<double>(res.failed) / ops, "fraction");
  res.add("trace.spans", static_cast<double>(tracer.recorded()), "count");
  res.add("trace.overhead_p50_us", tr.p50_us - p50, "us");
  res.add("trace.overhead_MBps", tr.mbps - plain.mbps, "MB/s");
  return res;
}

}  // namespace

Result run_serve_warm(const Options& opt) {
  ServeConfig cfg;
  // One CPU is left to the server's event loop: with a client per CPU the
  // loop competes with its own clients for cores and the p99 of a
  // microsecond-scale hit measures the scheduler.
  cfg.connections = std::max<std::size_t>(online_cpus() - 1, 1);
  return run_serve(opt, cfg);
}

Result run_serve_mixed(const Options& opt) {
  ServeConfig cfg;
  // A client per CPU: the server is busy decoding, and with this many
  // connections most GETs wait on a decode, so p50 lies inside the decode
  // mode rather than on the edge between hits and misses.
  cfg.connections = online_cpus();
  // A quarter of the decoded bytes of the nine snapshot fields.
  cfg.cache_bytes = kDatasetShape.size() * sizeof(float) * 9 / 4;
  // About half of all GETs are in flight while a PUT is, so p50 as well as
  // p99 carries the interaction of writes with reads (see README.md).
  cfg.put_every = 20;
  return run_serve(opt, cfg);
}

}  // namespace xfcbench
