#ifndef XFCBENCH_WORKLOAD_HPP
#define XFCBENCH_WORKLOAD_HPP

/// What the three workloads share: the dataset and its Table III targets,
/// the CFNN training budgets, the metric catalogue every run prints, and
/// the per-tile probes of the traced runs.

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "archive/archive_reader.hpp"
#include "archive/archive_writer.hpp"
#include "bench.hpp"
#include "cfnn/trainer.hpp"
#include "data/dataset.hpp"

namespace xfcbench {

/// CESM-like snapshot: 9 fields of 512 x 1024 float32 (18.9 MB raw).
inline const xfc::Shape kDatasetShape{512, 1024};
inline constexpr double kRelEb = 1e-3;

/// Table III targets (CLDTOT, LWCF, FLUT) with the small CFNN profile.
std::vector<xfc::TargetSpec> cesm_targets();

/// Training budget of the snapshot write: the small profile of the
/// climate_multifield example (960 patches per target).
xfc::CfnnTrainOptions snapshot_training();
/// Small fixed budget for the serving archives built during set-up.
/// Tile-decode cost depends on the model's size, not on how well it is
/// trained.
xfc::CfnnTrainOptions serving_training();

/// Bytes of the fields' raw float32 values.
double raw_bytes(const std::vector<xfc::Field>& fields);

/// The generated snapshot and its cross-field targets.
struct Snapshot {
  std::vector<xfc::Field> fields;
  std::vector<xfc::TargetSpec> targets;

  const xfc::Field& field(const std::string& name) const;
  bool anchored(const std::string& name) const;
  const xfc::TargetSpec* target(const std::string& name) const;
};

Snapshot make_snapshot(std::uint64_t seed);

/// Writes every field of `snap` through `writer` with the public calls
/// MultiFieldCompressor::write_archive makes, in its order: plain fields
/// first (anchors keep their reconstructions), then each target's CFNN
/// training and cross-field encode in dependency order. Each call runs in
/// a span (sz.encode, cfnn.train, crossfield.encode). Trained models land
/// in `models`; returns the seconds spent training.
double write_fields(xfc::ArchiveWriter& writer, const Snapshot& snap,
                    xfc::ArchiveFieldOptions opts,
                    const xfc::CfnnTrainOptions& training,
                    std::map<std::string, xfc::CfnnModel>& models);

/// Multiply-adds of one CfnnModel::infer call on an h x w input, counted
/// as two flops each, plus the attention pooling and scaling passes.
double cfnn_infer_flops(const xfc::CfnnConfig& cfg, std::size_t in_channels,
                        std::size_t out_channels, std::size_t h,
                        std::size_t w);

/// Timings of single-tile calls on an archive, from the traced runs.
struct TileProbe {
  double plain_us = 0;        // median ArchiveReader::read_tile, plain tiles
  double cross_us = 0;        // ... cross-field tiles, anchors pre-decoded
  double infer_us = 0;        // median CfnnModel::infer on one tile's input
  double flops_per_tile = 0;  // mean over cross-field targets
};

/// Times read_tile on up to `max_tiles` tiles of every field (anchor tiles
/// come from `decoded`, the full decoded fields) and, for targets found in
/// `models`, CfnnModel::infer on the same cross-field tiles' inputs.
TileProbe probe_tiles(const xfc::ArchiveReader& reader,
                      const std::map<std::string, xfc::Field>& decoded,
                      const std::map<std::string, xfc::CfnnModel>& models,
                      std::size_t max_tiles);

/// Every metric a run prints, in order, with its unit. A run prints all of
/// them; a layer a workload does not exercise reads 0.
const std::vector<std::pair<std::string, std::string>>& end_to_end_catalog();
const std::vector<std::pair<std::string, std::string>>& per_layer_catalog();

}  // namespace xfcbench

#endif  // XFCBENCH_WORKLOAD_HPP
