#include "conv/conv_io.h"

#include <cstdint>
#include <fstream>
#include <string>

#include "common/error.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/ops.h"
#include "tensor/tensor_io.h"

namespace apds {

namespace {
constexpr char kMagic[8] = {'A', 'P', 'D', 'S', 'C', 'N', 'V', '1'};

void write_u64(std::ostream& os, std::uint64_t v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

std::uint64_t read_u64(std::istream& is) {
  std::uint64_t v = 0;
  is.read(reinterpret_cast<char*>(&v), sizeof(v));
  if (!is) throw IoError("conv net file: truncated");
  return v;
}

void write_string(std::ostream& os, const std::string& s) {
  write_u64(os, s.size());
  os.write(s.data(), static_cast<std::streamsize>(s.size()));
}

std::string read_string(std::istream& is) {
  const std::uint64_t n = read_u64(is);
  if (n > 4096) throw IoError("conv net file: implausible string length");
  std::string s(n, '\0');
  is.read(s.data(), static_cast<std::streamsize>(n));
  if (!is) throw IoError("conv net file: truncated string");
  return s;
}

void write_f64(std::ostream& os, double v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

double read_f64(std::istream& is) {
  double v = 0.0;
  is.read(reinterpret_cast<char*>(&v), sizeof(v));
  if (!is) throw IoError("conv net file: truncated double");
  return v;
}

// The f64 moment tile has no zero-input skip: a non-finite weight facing
// a dropped (zero) input would turn its whole output column into NaN.
void check_finite(const char* kind, std::uint64_t l, const Matrix& weight,
                  const Matrix& bias) {
  if (!all_finite(weight) || !all_finite(bias))
    throw IoError(std::string("conv net file: ") + kind + " " +
                  std::to_string(l) + " has a non-finite weight or bias");
}
}  // namespace

void save_conv_net(const ConvNet& net, const std::string& path) {
  TraceSpan span("io.save_conv_net", "io");
  if (span.active())
    span.set_args("\"path\":\"" + json_escape(path) + "\"");
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  if (!os) throw IoError("cannot open for writing: " + path);
  os.write(kMagic, sizeof(kMagic));
  write_u64(os, net.input_len());
  write_u64(os, net.input_channels());
  write_u64(os, net.num_conv_layers());
  for (std::size_t l = 0; l < net.num_conv_layers(); ++l) {
    const Conv1dLayer& layer = net.conv(l);
    write_u64(os, layer.kernel);
    write_u64(os, layer.in_channels);
    write_u64(os, layer.out_channels);
    write_u64(os, layer.stride);
    write_string(os, activation_name(layer.act));
    write_f64(os, layer.channel_keep_prob);
    write_matrix(os, layer.weight);
    write_matrix(os, layer.bias);
  }
  const Mlp& head = net.head();
  write_u64(os, head.num_layers());
  for (std::size_t l = 0; l < head.num_layers(); ++l) {
    const DenseLayer& layer = head.layer(l);
    write_string(os, activation_name(layer.act));
    write_f64(os, layer.keep_prob);
    write_matrix(os, layer.weight);
    write_matrix(os, layer.bias);
  }
  if (!os) throw IoError("write failure: " + path);
  MetricsRegistry::instance().counter("io.conv_net_bytes_written").add(
      static_cast<std::int64_t>(os.tellp()));
}

ConvNet load_conv_net(const std::string& path) {
  TraceSpan span("io.load_conv_net", "io");
  if (span.active())
    span.set_args("\"path\":\"" + json_escape(path) + "\"");
  std::ifstream is(path, std::ios::binary);
  if (!is) throw IoError("cannot open for reading: " + path);
  char magic[8];
  is.read(magic, sizeof(magic));
  if (!is || !std::equal(magic, magic + 8, kMagic))
    throw IoError("not an apds conv net file: " + path);

  const std::uint64_t input_len = read_u64(is);
  const std::uint64_t input_channels = read_u64(is);
  const std::uint64_t conv_count = read_u64(is);
  if (conv_count > 1024) throw IoError("conv net file: implausible layers");

  std::vector<Conv1dLayer> convs;
  convs.reserve(conv_count);
  for (std::uint64_t l = 0; l < conv_count; ++l) {
    Conv1dLayer layer;
    layer.kernel = read_u64(is);
    layer.in_channels = read_u64(is);
    layer.out_channels = read_u64(is);
    layer.stride = read_u64(is);
    layer.act = parse_activation(read_string(is));
    layer.channel_keep_prob = read_f64(is);
    layer.weight = read_matrix(is);
    layer.bias = read_matrix(is);
    check_finite("conv layer", l, layer.weight, layer.bias);
    try {
      layer.check();
    } catch (const InvalidArgument& e) {
      throw IoError("conv net file: conv layer " + std::to_string(l) + ": " +
                    e.what());
    }
    convs.push_back(std::move(layer));
  }

  const std::uint64_t head_count = read_u64(is);
  if (head_count == 0 || head_count > 1024)
    throw IoError("conv net file: implausible head layer count");
  std::vector<DenseLayer> head_layers;
  head_layers.reserve(head_count);
  for (std::uint64_t l = 0; l < head_count; ++l) {
    DenseLayer layer;
    layer.act = parse_activation(read_string(is));
    layer.keep_prob = read_f64(is);
    layer.weight = read_matrix(is);
    layer.bias = read_matrix(is);
    check_finite("head layer", l, layer.weight, layer.bias);
    head_layers.push_back(std::move(layer));
  }
  MetricsRegistry::instance().counter("io.conv_net_bytes_read").add(
      static_cast<std::int64_t>(is.tellg()));
  Mlp head;
  try {
    // from_layers names the offending layer in its message.
    head = Mlp::from_layers(std::move(head_layers));
  } catch (const InvalidArgument& e) {
    throw IoError(std::string("conv net file: head ") + e.what());
  }
  return ConvNet(input_len, input_channels, std::move(convs),
                 std::move(head));
}

bool is_conv_net_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) return false;
  char magic[8];
  is.read(magic, sizeof(magic));
  return is && std::equal(magic, magic + 8, kMagic);
}

}  // namespace apds
