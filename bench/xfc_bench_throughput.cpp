// Pipeline-stage throughput benchmarks. The paper's §III-D motivates dual
// quantization with compression-side parallelism; these benches quantify
// each stage, the end-to-end codecs, and the CFNN compute core that
// dominates cross-field compression. Results are printed as a table and
// written as machine-readable JSON ({name, wall_ms, bytes_per_sec}) to
// <outdir>/throughput.json so the perf trajectory is diffable across PRs
// (see BENCH_pr1.json at the repo root).

#include <cstdio>

#include "archive/archive_reader.hpp"
#include "archive/archive_writer.hpp"
#include "bench_json.hpp"
#include "bench_util.hpp"
#include "cfnn/cfnn.hpp"
#include "cfnn/trainer.hpp"
#include "core/rng.hpp"
#include "data/dataset.hpp"
#include "encode/huffman.hpp"
#include "encode/miniflate.hpp"
#include "nn/autodiff.hpp"
#include "nn/graph.hpp"
#include "nn/optimizer.hpp"
#include "predict/lorenzo.hpp"
#include "quant/dual_quant.hpp"
#include "sz/compressor.hpp"
#include "sz/delta_codec.hpp"
#include "sz/fused_encode.hpp"
#include "sz/interpolation.hpp"
#include "zfp/zfp_codec.hpp"

namespace {

using namespace xfc;
using namespace xfc::bench;

const Field& bench_field() {
  static const Field field = [] {
    auto ds = make_dataset(DatasetKind::kCesm, Shape{512, 512}, 7);
    for (auto& f : ds.fields)
      if (f.name() == "FLUT") return f;
    return ds.fields[0];
  }();
  return field;
}

}  // namespace

int main(int argc, char** argv) {
  const BenchOptions opt = parse_args(argc, argv);
  BenchJson json;
  const Field& f = bench_field();
  const double field_bytes = static_cast<double>(f.size()) * sizeof(float);

  print_header("pipeline-stage throughput  [CESM-like FLUT 512x512]");

  {
    const double eb = 1e-3 * f.value_range();
    json.add("prequantize",
             time_ms([&] { prequantize(f.array(), eb); }), field_bytes);
  }
  const I32Array codes = prequantize(f.array(), 1e-3 * f.value_range());
  json.add("lorenzo_predict_all",
           time_ms([&] { lorenzo_predict_all(codes, LorenzoOrder::kOne); }),
           field_bytes);
  {
    const I64Array preds = lorenzo_predict_all(codes, LorenzoOrder::kOne);
    json.add("delta_encode",
             time_ms([&] {
               encode_deltas(codes.span(), preds.span(), kDefaultQuantRadius);
             }),
             field_bytes);
  }
  json.add("fused_quant_predict_encode",
           time_ms([&] {
             fused_lorenzo_encode(f.array(), 1e-3 * f.value_range(),
                                  LorenzoOrder::kOne, kDefaultQuantRadius);
           }),
           field_bytes);
  json.add("sz_compress", time_ms([&] { sz_compress(f, SzOptions{}); }),
           field_bytes);
  {
    const auto stream = sz_compress(f, SzOptions{});
    json.add("sz_decompress", time_ms([&] { sz_decompress(stream); }),
             field_bytes);
  }
  json.add("interp_compress",
           time_ms([&] { interp_compress(f, InterpOptions{}); }), field_bytes);
  {
    ZfpOptions zopt;
    zopt.tolerance = 1e-3 * f.value_range();
    json.add("zfp_compress", time_ms([&] { zfp_compress(f, zopt); }),
             field_bytes);
  }
  {
    Rng rng(3);
    std::vector<std::uint8_t> data(1 << 20);
    for (std::size_t i = 0; i < data.size(); ++i)
      data[i] = static_cast<std::uint8_t>(
          (i % 251) ^ (rng.uniform() < 0.05 ? rng.next_u64() : 0));
    // Compress-only: the hash-chain matcher — the dominant cost of
    // archive_write and of every payload the kAuto gate deflates.
    json.add("miniflate_compress",
             time_ms([&] { miniflate_compress(data); }),
             static_cast<double>(data.size()));
    json.add("miniflate_compress_fast",
             time_ms([&] {
               miniflate_compress(data, MiniflateLevel::kFast);
             }),
             static_cast<double>(data.size()));
    json.add("miniflate_compress_best",
             time_ms([&] {
               miniflate_compress(data, MiniflateLevel::kBest);
             }),
             static_cast<double>(data.size()));
    json.add("miniflate_roundtrip",
             time_ms([&] {
               auto c = miniflate_compress(data);
               miniflate_decompress(c);
             }),
             static_cast<double>(data.size()));
    // Decompress-only: the match-copy hot loop, isolated from the
    // hash-chain matcher that dominates the roundtrip number.
    const auto compressed = miniflate_compress(data);
    json.add("miniflate_decompress",
             time_ms([&] { miniflate_decompress(compressed); }),
             static_cast<double>(data.size()));
  }
  {
    Rng rng(4);
    std::vector<std::uint64_t> freqs(65537, 0);
    for (int i = 0; i < 100000; ++i)
      ++freqs[32768 + static_cast<int>(rng.normal(0, 40))];
    json.add("huffman_build",
             time_ms([&] { HuffmanCode::from_frequencies(freqs); }));
  }

  print_header("XFA1 tiled archive  [same 512x512 field; tile-count scaling]");

  {
    // Monolithic decode is the "before" column for the tiled entries: same
    // field, same codec, one sequential stream vs an indexed tile grid.
    // Tile sizes 128^2 and 64^2 give 16 and 64 independent tiles; decode
    // parallelism scales with XFC_THREADS (set XFC_THREADS=4 to reproduce
    // BENCH_pr3.json).
    for (const std::size_t edge : {std::size_t{128}, std::size_t{64}}) {
      ArchiveFieldOptions opts;
      opts.tile = Shape{edge, edge};
      const std::string tag = "_t" + std::to_string(edge);

      VectorSink sink;
      ArchiveWriter writer(sink);
      writer.add_field(f, opts);
      writer.finish();
      const auto archive = sink.take();

      json.add("archive_write" + tag,
               time_ms([&] {
                 VectorSink s;
                 ArchiveWriter w(s);
                 w.add_field(f, opts);
                 w.finish();
               }),
               field_bytes);

      // Open once, query many times — the random-access serving pattern.
      const ArchiveReader reader = ArchiveReader::open_memory(archive);
      json.add("archive_decode_full" + tag,
               time_ms([&] { reader.read_field(f.name()); }), field_bytes);
      if (edge == 128) {
        // 1/16th-of-the-field regions (a 128^2 box). Tile-aligned touches
        // exactly one tile; the offset variant straddles four — the
        // worst-case read amplification for a region of this size.
        const std::size_t alo[] = {128, 128}, ahi[] = {256, 256};
        json.add("archive_read_region_16th" + tag,
                 time_ms([&] { reader.read_region(f.name(), alo, ahi); }),
                 field_bytes / 16.0);
        const std::size_t slo[] = {192, 192}, shi[] = {320, 320};
        json.add("archive_region_straddle" + tag,
                 time_ms([&] { reader.read_region(f.name(), slo, shi); }),
                 field_bytes / 16.0);
      }
    }
  }

  print_header("CFNN compute core  [4->3 ch, hidden 8, k3, 256x256 slice]");

  {
    // ChannelAttention in isolation, at the paper-scale channel width (96
    // channels, reduction 8): per-plane avg/max pooling + shared MLP +
    // sigmoid rescale — the reduction-bound stage of CFNN forward.
    Rng arng(6);
    const std::size_t c = 96, mid = c / 8;
    nn::Model attn;
    auto& w1 = attn.add_xavier(mid * c, c, mid, arng);
    auto& b1 = attn.add(mid);
    auto& w2 = attn.add_xavier(c * mid, mid, c, arng);
    auto& b2 = attn.add(c);
    nn::Tensor ax(1, c, 128, 128);
    for (auto& v : ax.vec()) v = static_cast<float>(arng.normal());
    nn::Graph ag(nn::Graph::Mode::kInfer);
    const nn::NodeRef ain = ag.input({1, c, 128, 128});
    const nn::NodeRef aw1 = ag.param(w1, {mid, c, 1, 1});
    const nn::NodeRef ab1 = ag.param(b1, {1, mid, 1, 1});
    const nn::NodeRef aw2 = ag.param(w2, {c, mid, 1, 1});
    const nn::NodeRef ab2 = ag.param(b2, {1, c, 1, 1});
    ag.channel_attention(ain, aw1, ab1, aw2, ab2, 8);
    nn::GraphExec aexec(ag, nn::tls_workspace());
    aexec.bind(ain, ax.data());
    json.add("channel_attention",
             time_ms([&] { aexec.forward(); }),
             static_cast<double>(ax.size()) * sizeof(float));
  }

  {
    // Inference geometry mirroring a Hurricane Wf <- {Uf,Vf,Pf} target on a
    // bench-scale slice: the per-slice forward pass inside CfnnModel::infer.
    CfnnModel model(4, 3, CfnnConfig{8, 8, 3}, 99);
    nn::Tensor x(1, 4, 256, 256);
    Rng rng(5);
    for (auto& v : x.vec()) v = static_cast<float>(rng.normal());
    const double slice_bytes =
        static_cast<double>(x.size()) * sizeof(float);
    json.add("cfnn_forward_256",
             time_ms([&] { model.infer(x); }), slice_bytes);

    // One training step (forward + backward + Adam) on a 16x32x32 batch —
    // the unit of work that dominates xfc_bench_fig5_training. Graph and
    // executor are built once outside the timer, like cfnn::train_cfnn.
    nn::Tensor xb(16, 4, 32, 32), tb(16, 3, 32, 32);
    for (auto& v : xb.vec()) v = static_cast<float>(rng.normal());
    for (auto& v : tb.vec()) v = static_cast<float>(rng.normal());
    nn::Graph tg(nn::Graph::Mode::kTrain);
    const nn::NodeRef tin = tg.input({16, 4, 32, 32});
    const nn::NodeRef ttgt = tg.input({16, 3, 32, 32});
    tg.mse_loss(model.append(tg, tin), ttgt);
    nn::GraphExec texec(tg, nn::tls_workspace());
    texec.bind(tin, xb.data());
    texec.bind(ttgt, tb.data());
    nn::Adam adam(tg.params(), {.lr = 1e-3});
    json.add("cfnn_train_step_b16",
             time_ms([&] {
               tg.zero_grad();
               texec.forward();
               texec.backward();
               adam.step();
             }),
             static_cast<double>(xb.size()) * sizeof(float));
  }

  const std::string out = opt.outdir + "/throughput.json";
  if (json.write(out))
    std::printf("\nwrote %s\n", out.c_str());
  else
    std::printf("\nwarning: could not write %s\n", out.c_str());
  return 0;
}
