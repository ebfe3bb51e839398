#include "workload.hpp"

#include <algorithm>

#include "archive/tile.hpp"
#include "cfnn/difference.hpp"
#include "crossfield/crossfield.hpp"
#include "trace.hpp"

namespace xfcbench {

std::vector<xfc::TargetSpec> cesm_targets() {
  return xfc::table3_targets(xfc::DatasetKind::kCesm, /*paper_scale=*/false);
}

xfc::CfnnTrainOptions snapshot_training() {
  xfc::CfnnTrainOptions t;
  t.epochs = 10;
  t.patches_per_epoch = 96;
  return t;
}

xfc::CfnnTrainOptions serving_training() {
  xfc::CfnnTrainOptions t;
  t.epochs = 2;
  t.patches_per_epoch = 32;
  return t;
}

double raw_bytes(const std::vector<xfc::Field>& fields) {
  double total = 0;
  for (const xfc::Field& f : fields)
    total += static_cast<double>(f.size() * sizeof(float));
  return total;
}

const xfc::Field& Snapshot::field(const std::string& name) const {
  for (const xfc::Field& f : fields)
    if (f.name() == name) return f;
  throw xfc::InvalidArgument("snapshot: no field " + name);
}

bool Snapshot::anchored(const std::string& name) const {
  for (const xfc::TargetSpec& t : targets)
    for (const std::string& a : t.anchors)
      if (a == name) return true;
  return false;
}

const xfc::TargetSpec* Snapshot::target(const std::string& name) const {
  for (const xfc::TargetSpec& t : targets)
    if (t.target == name) return &t;
  return nullptr;
}

Snapshot make_snapshot(std::uint64_t seed) {
  xfc::Dataset ds =
      xfc::make_dataset(xfc::DatasetKind::kCesm, kDatasetShape, seed);
  return {std::move(ds.fields), cesm_targets()};
}

double write_fields(xfc::ArchiveWriter& writer, const Snapshot& snap,
                    xfc::ArchiveFieldOptions opts,
                    const xfc::CfnnTrainOptions& training,
                    std::map<std::string, xfc::CfnnModel>& models) {
  for (const xfc::Field& f : snap.fields) {
    if (snap.target(f.name()) != nullptr) continue;
    opts.keep_reconstruction = snap.anchored(f.name());
    const Scope scope("sz.encode", true);
    writer.add_field(f, opts);
  }
  std::vector<const xfc::TargetSpec*> pending;
  for (const xfc::Field& f : snap.fields)
    if (const xfc::TargetSpec* t = snap.target(f.name())) pending.push_back(t);
  models.clear();
  std::int64_t train_ns = 0;
  while (!pending.empty()) {
    std::vector<const xfc::TargetSpec*> next;
    for (const xfc::TargetSpec* t : pending) {
      bool ready = true;
      for (const std::string& a : t->anchors)
        if (writer.reconstruction(a) == nullptr) ready = false;
      if (!ready) {
        next.push_back(t);
        continue;
      }
      std::vector<const xfc::Field*> originals;
      for (const std::string& a : t->anchors)
        originals.push_back(&snap.field(a));
      const xfc::Field& target = snap.field(t->target);
      const std::int64_t t0 = now_ns();
      auto model = [&] {
        const Scope scope("cfnn.train", true);
        return xfc::train_cross_field_model(target, originals, t->cfnn,
                                            training);
      }();
      train_ns += now_ns() - t0;
      opts.keep_reconstruction = snap.anchored(t->target);
      {
        const Scope scope("crossfield.encode", true);
        writer.add_cross_field(target, t->anchors, model, opts);
      }
      models.emplace(t->target, std::move(model));
    }
    if (next.size() == pending.size())
      throw xfc::InvalidArgument("snapshot: unresolvable anchors");
    pending = std::move(next);
  }
  return ns_to_s(train_ns);
}

double cfnn_infer_flops(const xfc::CfnnConfig& cfg, std::size_t in_channels,
                        std::size_t out_channels, std::size_t h,
                        std::size_t w) {
  // Mirrors the CfnnModel layer stack (cfnn.hpp): 3x3 conv, depthwise 3x3,
  // pointwise 1x1, channel attention, 3x3 conv; bias adds and ReLUs are
  // one flop per output value.
  const double px = static_cast<double>(h * w);
  const double k2 = static_cast<double>(cfg.kernel * cfg.kernel);
  const double c = static_cast<double>(cfg.hidden_channels);
  const double r = c / static_cast<double>(cfg.attention_reduction);
  const double cin = static_cast<double>(in_channels);
  const double cout = static_cast<double>(out_channels);
  double f = 0;
  f += px * c * (2 * cin * k2 + 2);   // conv + bias + ReLU
  f += px * c * (2 * k2 + 1);         // depthwise + bias
  f += px * c * (2 * c + 2);          // pointwise + bias + ReLU
  f += px * c * 3;                    // avg + max pooling, per-channel scale
  f += 2 * (2 * c * r + 2 * r * c);   // shared MLP on both pooled vectors
  f += px * cout * (2 * c * k2 + 1);  // final conv + bias
  return f;
}

TileProbe probe_tiles(const xfc::ArchiveReader& reader,
                      const std::map<std::string, xfc::Field>& decoded,
                      const std::map<std::string, xfc::CfnnModel>& models,
                      std::size_t max_tiles) {
  std::vector<double> plain, cross, infer, flops;
  for (const xfc::ArchiveFieldInfo& info : reader.fields()) {
    const xfc::TileGrid grid(info.shape, info.tile);
    const std::size_t n = std::min(max_tiles, grid.num_tiles());
    const auto model = models.find(info.name);
    if (info.cross_field && model != models.end())
      flops.push_back(cfnn_infer_flops(
          model->second.config(), model->second.in_channels(),
          model->second.out_channels(), info.tile[0], info.tile[1]));
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t t = i * grid.num_tiles() / n;
      // Anchor tiles are cut out before the clock starts, so the timing is
      // the tile's own decode.
      std::map<std::string, std::shared_ptr<const xfc::Field>> anchor_tiles;
      std::vector<const xfc::Field*> anchor_ptrs;
      for (const std::string& a : info.anchors) {
        auto tile = std::make_shared<const xfc::Field>(
            a, xfc::extract_tile(decoded.at(a).array(), grid.box(t)));
        anchor_ptrs.push_back(tile.get());
        anchor_tiles.emplace(a, std::move(tile));
      }
      const xfc::TileFetch fetch =
          [&](const xfc::ArchiveFieldInfo& a,
              std::size_t) -> std::shared_ptr<const xfc::Field> {
        return anchor_tiles.at(a.name);
      };
      const std::int64_t t0 = now_ns();
      const xfc::Field out = reader.read_tile(info, t, fetch);
      const std::int64_t t1 = now_ns();
      (info.cross_field ? cross : plain).push_back(ns_to_s(t1 - t0) * 1e6);
      if (info.cross_field && model != models.end()) {
        const auto diffs = xfc::fields_to_difference_tensor(anchor_ptrs);
        const std::int64_t i0 = now_ns();
        const auto pred = model->second.infer(diffs);
        infer.push_back(ns_to_s(now_ns() - i0) * 1e6);
      }
    }
  }
  TileProbe p;
  p.plain_us = median(plain);
  p.cross_us = median(cross);
  p.infer_us = median(infer);
  double sum = 0;
  for (double f : flops) sum += f;
  p.flops_per_tile =
      flops.empty() ? 0 : sum / static_cast<double>(flops.size());
  return p;
}

const std::vector<std::pair<std::string, std::string>>& end_to_end_catalog() {
  static const std::vector<std::pair<std::string, std::string>> c = {
      {"setup_s", "s"},
      {"MBps", "MB/s"},
      {"MB_per_cpu_s", "MB/cpu-s"},
      {"read_MBps", "MB/s"},
      {"p50_us", "us"},
      {"tail_us", "us"},
      {"ratio", "x"},
      {"psnr_min_db", "dB"},
      {"peak_rss_mb", "MB"},
      {"ok_frac", "fraction"},
  };
  return c;
}

const std::vector<std::pair<std::string, std::string>>& per_layer_catalog() {
  static const std::vector<std::pair<std::string, std::string>> c = {
      // Ledger of one end-to-end operation (parts sum to ledger.e2e_s).
      {"ledger.e2e_s", "s"},
      {"unattributed_s", "s"},
      {"cfnn.train_s", "s"},
      {"sz.encode_s", "s"},
      {"crossfield.encode_s", "s"},
      {"io.write_s", "s"},
      {"io.sync_s", "s"},
      {"archive.finish_s", "s"},
      {"archive.open_s", "s"},
      {"archive.decode_plain_s", "s"},
      {"archive.decode_cross_s", "s"},
      {"io.read_s", "s"},
      {"server.service.handle_s", "s"},
      {"server.service.put_s", "s"},
      {"server.http.overhead_s", "s"},
      {"bench.check_s", "s"},
      // Exact counts.
      {"io.write_bytes", "bytes"},
      {"io.read_bytes", "bytes"},
      {"crossfield.bytes", "bytes"},
      {"sz.bytes", "bytes"},
      {"cfnn.infer_flops_per_tile", "flop"},
      {"server.http.body_bytes_per_get", "bytes"},
      {"server.tile_cache.misses_per_get", "count"},
      // Per-call probes.
      {"cfnn.infer_tile_us", "us"},
      {"archive.tile_decode_plain_us", "us"},
      {"archive.tile_decode_cross_us", "us"},
      // Serving layers.
      {"server.service.handle_p50_us", "us"},
      {"server.service.handle_p99_us", "us"},
      {"server.http.overhead_p50_us", "us"},
      {"server.http.overhead_p99_us", "us"},
      {"server.service.put_p50_us", "us"},
      {"server.service.put_wall_frac", "fraction"},
      {"client.put_p50_us", "us"},
      {"server.put.overlap_get_frac", "fraction"},
      {"server.tile_cache.hit_ratio", "fraction"},
      {"server.tile_cache.evictions_per_get", "count"},
      {"server.tile_cache.inflight_waits", "count"},
      {"server.http.shed_requests", "count"},
      // Run health and tracing cost.
      {"ops", "count"},
      {"failed_frac", "fraction"},
      {"trace.spans", "count"},
      {"trace.overhead_p50_us", "us"},
      {"trace.overhead_MBps", "MB/s"},
  };
  return c;
}

}  // namespace xfcbench
