#include "nn/model_io.h"

#include <cstdint>
#include <fstream>
#include <string>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/ops.h"
#include "tensor/tensor_io.h"

namespace apds {

namespace {
constexpr char kMagic[8] = {'A', 'P', 'D', 'S', '0', '0', '0', '1'};

void write_u64(std::ostream& os, std::uint64_t v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

std::uint64_t read_u64(std::istream& is) {
  std::uint64_t v = 0;
  is.read(reinterpret_cast<char*>(&v), sizeof(v));
  if (!is) throw IoError("model file: truncated");
  return v;
}

void write_string(std::ostream& os, const std::string& s) {
  write_u64(os, s.size());
  os.write(s.data(), static_cast<std::streamsize>(s.size()));
}

std::string read_string(std::istream& is) {
  const std::uint64_t n = read_u64(is);
  if (n > 4096) throw IoError("model file: implausible string length");
  std::string s(n, '\0');
  is.read(s.data(), static_cast<std::streamsize>(n));
  if (!is) throw IoError("model file: truncated string");
  return s;
}
}  // namespace

void save_model(const Mlp& mlp, const std::string& path) {
  TraceSpan span("io.save_model", "io");
  if (span.active())
    span.set_args("\"path\":\"" + json_escape(path) + "\"");
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  if (!os) throw IoError("cannot open for writing: " + path);
  os.write(kMagic, sizeof(kMagic));
  write_u64(os, mlp.num_layers());
  for (std::size_t l = 0; l < mlp.num_layers(); ++l) {
    const DenseLayer& layer = mlp.layer(l);
    write_string(os, activation_name(layer.act));
    const double kp = layer.keep_prob;
    os.write(reinterpret_cast<const char*>(&kp), sizeof(kp));
    write_matrix(os, layer.weight);
    write_matrix(os, layer.bias);
  }
  if (!os) throw IoError("write failure: " + path);
  MetricsRegistry::instance().counter("io.model_bytes_written").add(
      static_cast<std::int64_t>(os.tellp()));
}

Mlp load_model(const std::string& path) {
  TraceSpan span("io.load_model", "io");
  if (span.active())
    span.set_args("\"path\":\"" + json_escape(path) + "\"");
  std::ifstream is(path, std::ios::binary);
  if (!is) throw IoError("cannot open for reading: " + path);
  char magic[8];
  is.read(magic, sizeof(magic));
  if (!is || !std::equal(magic, magic + 8, kMagic))
    throw IoError("not an apds model file: " + path);
  const std::uint64_t num_layers = read_u64(is);
  if (num_layers == 0 || num_layers > 1024)
    throw IoError("model file: implausible layer count");
  std::vector<DenseLayer> layers;
  layers.reserve(num_layers);
  for (std::uint64_t l = 0; l < num_layers; ++l) {
    DenseLayer layer;
    layer.act = parse_activation(read_string(is));
    is.read(reinterpret_cast<char*>(&layer.keep_prob),
            sizeof(layer.keep_prob));
    if (!is) throw IoError("model file: truncated keep_prob");
    // Negated so NaN is rejected too.
    if (!(layer.keep_prob > 0.0 && layer.keep_prob <= 1.0))
      throw IoError("model file: keep_prob outside (0, 1]");
    layer.weight = read_matrix(is);
    layer.bias = read_matrix(is);
    if (layer.bias.rows() != 1 || layer.bias.cols() != layer.weight.cols())
      throw IoError("model file: inconsistent layer shapes");
    // The f64 moment tile has no zero-input skip: a non-finite weight
    // facing a dropped (zero) input would turn its output column into NaN.
    if (!all_finite(layer.weight) || !all_finite(layer.bias))
      throw IoError("model file: layer " + std::to_string(l) +
                    " has a non-finite weight or bias");
    layers.push_back(std::move(layer));
  }
  MetricsRegistry::instance().counter("io.model_bytes_read").add(
      static_cast<std::int64_t>(is.tellg()));
  return Mlp::from_layers(std::move(layers));
}

bool is_model_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) return false;
  char magic[8];
  is.read(magic, sizeof(magic));
  return is && std::equal(magic, magic + 8, kMagic);
}

}  // namespace apds
