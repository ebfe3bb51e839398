// snapshot: write the CESM-like snapshot to a file-backed XFA1 archive
// (CFNN training, cross-field and plain encode, fsync on commit), read it
// all back, check every field against its bound. Never touches server/.

#include <algorithm>
#include <cstdio>
#include <map>

#include "archive/archive_writer.hpp"
#include "archive/tile.hpp"
#include "core/utils.hpp"
#include "crossfield/multifield.hpp"
#include "trace.hpp"
#include "workload.hpp"

namespace xfcbench {

namespace {

/// Library path: a fresh MultiFieldCompressor (its model cache would skip
/// training on a second call), write_archive, finish.
struct LibraryWrite {
  xfc::MultiFieldCompressor mfc;

  explicit LibraryWrite(const Snapshot& s) {
    for (const xfc::Field& f : s.fields) mfc.add_field(f);
    for (const xfc::TargetSpec& t : s.targets)
      mfc.configure_target(t.target,
                           xfc::AnchorConfig{t.anchors, t.cfnn,
                                             snapshot_training()});
  }
  void run(const std::string& path) {
    xfc::FileSink sink(path);
    xfc::ArchiveWriter writer(sink);
    mfc.write_archive(writer, xfc::ErrorBound::relative(kRelEb));
    writer.finish();
  }
};

/// Traced path: write_archive's calls spelled out (write_fields), into a
/// span-recording sink. Returns the bytes written.
std::uint64_t write_traced(const Snapshot& s, const std::string& path,
                           std::map<std::string, xfc::CfnnModel>& models) {
  xfc::FileSink file(path);
  TracedSink sink(file);
  xfc::ArchiveWriter writer(sink);
  xfc::ArchiveFieldOptions opts;
  opts.eb = xfc::ErrorBound::relative(kRelEb);
  write_fields(writer, s, opts, snapshot_training(), models);
  const Scope scope("archive.finish", true);
  writer.finish();
  return sink.bytes();
}

/// Traced read-back: read_all's per-field, tile-parallel decode in archive
/// order, spelled out with read_tile so plain and cross-field fields get
/// their own spans. Anchor tiles come from the fields already decoded, as
/// read_all's shared anchor cache provides them.
std::vector<xfc::Field> read_traced(const std::string& path,
                                    std::uint64_t& bytes_read) {
  auto counter = std::make_shared<std::atomic<std::uint64_t>>(0);
  std::unique_ptr<xfc::ArchiveReader> reader;
  {
    const Scope scope("archive.open", true);
    reader = std::make_unique<xfc::ArchiveReader>(
        std::make_unique<TracedSource>(
            std::make_unique<xfc::FileSource>(path), counter));
  }
  std::map<std::string, xfc::Field> decoded;
  std::vector<xfc::Field> out;
  for (const xfc::ArchiveFieldInfo& info : reader->fields()) {
    const Scope scope(
        info.cross_field ? "archive.decode_cross" : "archive.decode_plain",
        true);
    const xfc::TileGrid grid(info.shape, info.tile);
    xfc::F32Array values(info.shape);
    const xfc::TileFetch fetch =
        [&](const xfc::ArchiveFieldInfo& a,
            std::size_t ordinal) -> std::shared_ptr<const xfc::Field> {
      const xfc::TileGrid agrid(a.shape, a.tile);
      return std::make_shared<const xfc::Field>(
          a.name,
          xfc::extract_tile(decoded.at(a.name).array(), agrid.box(ordinal)));
    };
    xfc::parallel_for_chunked(
        0, grid.num_tiles(), 1, [&](std::size_t lo, std::size_t hi) {
          for (std::size_t t = lo; t < hi; ++t) {
            const xfc::Field tile = reader->read_tile(info, t, fetch);
            xfc::insert_tile(values, grid.box(t), tile.array());
          }
        });
    out.emplace_back(info.name, values);
    decoded.emplace(info.name, xfc::Field(info.name, std::move(values)));
  }
  bytes_read = counter->load();
  return out;
}

struct RoundTrip {
  double write_s = 0, read_s = 0, write_cpu_s = 0, read_cpu_s = 0;
  double check_s = 0;
  double steal_s = 0;  // host steal during write + read
  bool ok = false;
  double psnr_min_db = 0;
  double ratio = 0;
};

/// Times `write()` then `read()` (wall and process CPU) into `rt` and
/// returns what `read()` decoded.
template <typename Write, typename Read>
std::vector<xfc::Field> timed(RoundTrip& rt, Write&& write, Read&& read) {
  const double s0 = host_steal_s();
  const std::int64_t c0 = cpu_ns(), t0 = now_ns();
  write();
  const std::int64_t c1 = cpu_ns(), t1 = now_ns();
  std::vector<xfc::Field> out = read();
  const std::int64_t c2 = cpu_ns(), t2 = now_ns();
  rt.steal_s = host_steal_s() - s0;
  rt.write_s = ns_to_s(t1 - t0);
  rt.read_s = ns_to_s(t2 - t1);
  rt.write_cpu_s = ns_to_s(c1 - c0);
  rt.read_cpu_s = ns_to_s(c2 - c1);
  return out;
}

/// Bound check and quality of a read-back, against the originals and the
/// absolute bounds the archive index records.
void check(const Snapshot& s, const std::string& path,
           const std::vector<xfc::Field>& out, RoundTrip& rt) {
  const std::int64_t t0 = now_ns();
  const xfc::ArchiveReader index = xfc::ArchiveReader::open_file(path);
  rt.ok = out.size() == s.fields.size();
  rt.psnr_min_db = 1e300;
  for (const xfc::Field& f : out) {
    const xfc::ArchiveFieldInfo* info = index.find(f.name());
    const xfc::Field& orig = s.field(f.name());
    if (info == nullptr || f.size() != orig.size()) {
      rt.ok = false;
      continue;
    }
    ErrorAccumulator acc;
    if (acc.add(orig.data(), f.data(), f.size(), info->abs_eb) != 0)
      rt.ok = false;
    rt.psnr_min_db = std::min(rt.psnr_min_db, acc.psnr_db(orig.value_range()));
  }
  rt.ratio = raw_bytes(s.fields) / static_cast<double>(index.logical_size());
  rt.check_s = ns_to_s(now_ns() - t0);
}

/// End-to-end figures of a run, over the calmer half of its round trips by
/// host steal: the write (compress) figures from the median write, the read
/// figure from the median read-back, and latency from the round trip (write
/// + read-back) at its median and upper quartile. A run holds too few round
/// trips for a higher percentile.
struct Figures {
  double mbps = 0, mb_per_cpu_s = 0, read_mbps = 0, p50_us = 0, tail_us = 0;
};

Figures figures(const std::vector<RoundTrip>& runs, double raw_mb) {
  std::vector<double> steal_rate;
  for (const RoundTrip& r : runs)
    steal_rate.push_back(r.steal_s / (r.write_s + r.read_s));
  std::vector<double> rt_s, write_s, cpu_s, read_s;
  for (const std::size_t i : calmer_half(steal_rate)) {
    const RoundTrip& r = runs[i];
    rt_s.push_back(r.write_s + r.read_s);
    write_s.push_back(r.write_s);
    cpu_s.push_back(r.write_cpu_s);
    read_s.push_back(r.read_s);
  }
  std::sort(rt_s.begin(), rt_s.end());
  Figures f;
  f.mbps = raw_mb / median(write_s);
  f.mb_per_cpu_s = raw_mb / median(cpu_s);
  f.read_mbps = raw_mb / median(read_s);
  f.p50_us = quantile_sorted(rt_s, 0.5) * 1e6;
  f.tail_us = quantile_sorted(rt_s, 0.75) * 1e6;
  return f;
}

}  // namespace

Result run_snapshot(const Options& opt) {
  // Set-up is only the dataset, about 0.1 s, so a short burst of outside
  // load moves a single generation a lot: take the median of many.
  constexpr int kSetups = 15;
  std::vector<double> setup_s, setup_steal;
  Snapshot snap;
  for (int i = 0; i < kSetups; ++i) {
    const double s0 = host_steal_s();
    const std::int64_t t0 = now_ns();
    snap = make_snapshot(opt.seed);
    setup_s.push_back(ns_to_s(now_ns() - t0));
    setup_steal.push_back((host_steal_s() - s0) / setup_s.back());
  }
  std::vector<double> calm_setup_s;
  for (const std::size_t i : calmer_half(setup_steal))
    calm_setup_s.push_back(setup_s[i]);
  const double raw_mb = raw_bytes(snap.fields) / 1e6;
  const std::string path = opt.workdir + "/snapshot.xfa";
  const auto phase_ns = static_cast<std::int64_t>(
      (opt.trace ? opt.seconds / 2 : opt.seconds) * 1e9);

  // Untraced round trips: the whole run, or its first half when tracing.
  std::vector<RoundTrip> plain_runs;
  for (const std::int64_t end = now_ns() + phase_ns;
       plain_runs.empty() || now_ns() < end;) {
    RoundTrip rt;
    LibraryWrite lib(snap);
    const auto out = timed(
        rt, [&] { lib.run(path); },
        [&] { return xfc::ArchiveReader::open_file(path).read_all(); });
    check(snap, path, out, rt);
    plain_runs.push_back(rt);
  }
  const Figures plain = figures(plain_runs, raw_mb);
  std::printf("# snapshot: %zu round trips of %.1f MB (write + read_all)\n",
              plain_runs.size(), raw_mb);
  for (const RoundTrip& r : plain_runs)
    std::printf("#   write %.3f s (cpu %.3f s)  read %.3f s (cpu %.3f s)  "
                "host steal %.2f CPU-s\n",
                r.write_s, r.write_cpu_s, r.read_s, r.read_cpu_s, r.steal_s);

  Result res;
  const auto count = [&res](const std::vector<RoundTrip>& runs) {
    res.attempted = res.failed = 0;
    for (const RoundTrip& r : runs) {
      ++res.attempted;
      if (!r.ok) ++res.failed;
    }
  };
  count(plain_runs);
  res.correct = res.failed == 0;
  if (!opt.trace) {
    res.add("setup_s", median(calm_setup_s), "s");
    res.add("MBps", plain.mbps, "MB/s");
    res.add("MB_per_cpu_s", plain.mb_per_cpu_s, "MB/cpu-s");
    res.add("read_MBps", plain.read_mbps, "MB/s");
    res.add("p50_us", plain.p50_us, "us");
    res.add("tail_us", plain.tail_us, "us");
    res.add("ratio", plain_runs.back().ratio, "x");
    res.add("psnr_min_db", plain_runs.back().psnr_min_db, "dB");
    res.add("peak_rss_mb", peak_rss_mb(), "MB");
    res.add("ok_frac",
            1.0 - static_cast<double>(res.failed) /
                      static_cast<double>(res.attempted),
            "fraction");
    return res;
  }

  // Traced round trips: the same work through the span-wrapped calls.
  Tracer& tracer = Tracer::instance();
  tracer.clear();
  std::vector<RoundTrip> traced_runs;
  std::map<std::string, xfc::CfnnModel> models;
  std::map<std::string, xfc::Field> decoded;
  std::uint64_t write_bytes = 0, read_bytes = 0;
  for (const std::int64_t end = now_ns() + phase_ns;
       traced_runs.empty() || now_ns() < end;) {
    RoundTrip rt;
    tracer.set_on(true);
    std::vector<xfc::Field> out;
    {
      const Scope root("snapshot.roundtrip", true);
      out = timed(
          rt, [&] { write_bytes = write_traced(snap, path, models); },
          [&] { return read_traced(path, read_bytes); });
    }
    tracer.set_on(false);
    check(snap, path, out, rt);
    traced_runs.push_back(rt);
    decoded.clear();
    for (xfc::Field& f : out) decoded.emplace(f.name(), std::move(f));
  }
  const Figures traced = figures(traced_runs, raw_mb);
  const bool plain_ok = res.correct;
  count(traced_runs);
  res.correct = plain_ok && res.failed == 0;

  const double n = static_cast<double>(traced_runs.size());
  const std::vector<Span> spans = tracer.snapshot();
  const auto layers = ledger_self_seconds(spans, "unattributed");
  const auto layer = [&](const char* name) {
    const auto it = layers.find(name);
    return it == layers.end() ? 0.0 : it->second / n;
  };
  const xfc::ArchiveReader index = xfc::ArchiveReader::open_file(path);
  double cross_bytes = 0, plain_bytes = 0;
  for (const xfc::ArchiveFieldInfo& info : index.fields())
    (info.cross_field ? cross_bytes : plain_bytes) +=
        static_cast<double>(info.compressed_bytes());
  const TileProbe probe = probe_tiles(index, decoded, models, 4);
  double check_s = 0;
  for (const RoundTrip& r : traced_runs) check_s += r.check_s;

  res.add("ledger.e2e_s", ledger_root_seconds(spans) / n, "s");
  res.add("unattributed_s", layer("unattributed"), "s");
  for (const char* name :
       {"cfnn.train", "sz.encode", "crossfield.encode", "io.write", "io.sync",
        "archive.finish", "archive.open", "archive.decode_plain",
        "archive.decode_cross", "io.read"})
    res.add(std::string(name) + "_s", layer(name), "s");
  res.add("bench.check_s", check_s / n, "s");
  res.add("io.write_bytes", static_cast<double>(write_bytes), "bytes");
  res.add("io.read_bytes", static_cast<double>(read_bytes), "bytes");
  res.add("crossfield.bytes", cross_bytes, "bytes");
  res.add("sz.bytes", plain_bytes, "bytes");
  res.add("cfnn.infer_flops_per_tile", probe.flops_per_tile, "flop");
  res.add("cfnn.infer_tile_us", probe.infer_us, "us");
  res.add("archive.tile_decode_plain_us", probe.plain_us, "us");
  res.add("archive.tile_decode_cross_us", probe.cross_us, "us");
  res.add("ops", n, "count");
  res.add("failed_frac",
          static_cast<double>(res.failed) / static_cast<double>(res.attempted),
          "fraction");
  res.add("trace.spans", static_cast<double>(tracer.recorded()), "count");
  res.add("trace.overhead_p50_us", traced.p50_us - plain.p50_us, "us");
  res.add("trace.overhead_MBps", traced.mbps - plain.mbps, "MB/s");
  return res;
}

}  // namespace xfcbench
