#include "conv/conv_io.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "tensor/ops.h"

namespace apds {
namespace {

class ConvIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Per-pid dir: parallel ctest runs each case in its own process, and a
    // shared dir races one case's TearDown against another's files.
    dir_ = std::filesystem::temp_directory_path() /
           ("apds_conv_io_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string path(const std::string& n) const { return (dir_ / n).string(); }
  std::filesystem::path dir_;
};

ConvNet make_net(Rng& rng) {
  std::vector<Conv1dLayer> convs;
  convs.push_back(make_conv1d(3, 2, 4, 1, Activation::kRelu, 0.9, rng));
  convs.push_back(make_conv1d(2, 4, 3, 2, Activation::kTanh, 0.8, rng));
  // len 10 -> 8 -> 4 steps x 3 = 12 features.
  MlpSpec head;
  head.dims = {12, 6, 2};
  head.hidden_keep_prob = 0.85;
  return ConvNet(10, 2, std::move(convs), Mlp::make(head, rng));
}

TEST_F(ConvIoTest, RoundTripPreservesBehavior) {
  Rng rng(1);
  const ConvNet original = make_net(rng);
  save_conv_net(original, path("net.apdscnv"));
  const ConvNet loaded = load_conv_net(path("net.apdscnv"));

  EXPECT_EQ(loaded.input_len(), 10u);
  EXPECT_EQ(loaded.input_channels(), 2u);
  EXPECT_EQ(loaded.num_conv_layers(), 2u);
  EXPECT_EQ(loaded.conv(1).act, Activation::kTanh);
  EXPECT_EQ(loaded.conv(1).stride, 2u);
  EXPECT_EQ(loaded.conv(0).weight, original.conv(0).weight);

  Matrix x(3, 20);
  for (double& v : x.flat()) v = rng.normal();
  EXPECT_LT(max_abs_diff(loaded.forward_deterministic(x),
                         original.forward_deterministic(x)),
            1e-15);
}

TEST_F(ConvIoTest, MagicDistinguishesFormats) {
  Rng rng(2);
  save_conv_net(make_net(rng), path("net.apdscnv"));
  EXPECT_TRUE(is_conv_net_file(path("net.apdscnv")));
  std::ofstream os(path("junk.bin"), std::ios::binary);
  os << "APDS0001 but actually not a conv net";
  os.close();
  EXPECT_FALSE(is_conv_net_file(path("junk.bin")));
  EXPECT_THROW(load_conv_net(path("junk.bin")), IoError);
}

TEST_F(ConvIoTest, MissingAndTruncatedFilesThrow) {
  EXPECT_THROW(load_conv_net(path("missing")), IoError);
  Rng rng(3);
  save_conv_net(make_net(rng), path("full.apdscnv"));
  std::ifstream in(path("full.apdscnv"), std::ios::binary);
  std::string data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  data.resize(data.size() / 2);
  std::ofstream out(path("half.apdscnv"), std::ios::binary);
  out << data;
  out.close();
  EXPECT_THROW(load_conv_net(path("half.apdscnv")), IoError);
}

// The parts of a one-conv net (len 10 -> 8 steps x 4 channels = 32
// features), for tests that corrupt them before ConvNet, which checks only
// shapes, bundles them for save_conv_net.
struct NetParts {
  std::vector<Conv1dLayer> convs;
  Mlp head;
};

NetParts small_net_parts(Rng& rng) {
  NetParts parts;
  parts.convs.push_back(
      make_conv1d(3, 2, 4, 1, Activation::kRelu, 0.9, rng));
  MlpSpec spec;
  spec.dims = {32, 6, 2};
  spec.hidden_keep_prob = 0.85;
  parts.head = Mlp::make(spec, rng);
  return parts;
}

void save_parts(NetParts parts, const std::string& p) {
  save_conv_net(
      ConvNet(10, 2, std::move(parts.convs), std::move(parts.head)), p);
}

// load_conv_net rejects NaN and +-Inf parameters in conv and head layers:
// the f64 moment tile has no zero-input skip, so one non-finite weight
// facing a dropped input would poison its output column.
TEST_F(ConvIoTest, NonFiniteParametersRejected) {
  for (const bool in_head : {false, true}) {
    SCOPED_TRACE(in_head ? "head" : "conv");
    Rng rng(4);
    NetParts parts = small_net_parts(rng);
    if (in_head)
      parts.head.mutable_layer(1).bias(0, 1) =
          std::numeric_limits<double>::infinity();
    else
      parts.convs[0].weight(2, 3) = std::numeric_limits<double>::quiet_NaN();
    save_parts(std::move(parts), path("non_finite.apdscnv"));
    EXPECT_THROW(load_conv_net(path("non_finite.apdscnv")), IoError);
  }
}

std::string read_file(const std::string& p) {
  std::ifstream in(p, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

// A conv layer that fails Conv1dLayer::check() is a corrupt file, so it
// surfaces as IoError naming the layer, not as InvalidArgument.
TEST_F(ConvIoTest, InvalidConvLayerIsIoError) {
  Rng rng(5);
  save_conv_net(make_net(rng), path("net.apdscnv"));
  std::string data = read_file(path("net.apdscnv"));
  // magic, input_len, input_channels, conv_count, then conv 0's kernel,
  // in_channels, out_channels and stride: zero that stride.
  const std::size_t stride_at = 8 + 3 * 8 + 3 * 8;
  std::fill(data.begin() + static_cast<std::ptrdiff_t>(stride_at),
            data.begin() + static_cast<std::ptrdiff_t>(stride_at + 8), '\0');
  std::ofstream(path("bad.apdscnv"), std::ios::binary) << data;
  try {
    (void)load_conv_net(path("bad.apdscnv"));
    ADD_FAILURE() << "a zero stride loaded";
  } catch (const IoError& e) {
    EXPECT_NE(std::string(e.what()).find("conv layer 0"), std::string::npos)
        << e.what();
  }
}

// A head layer that Mlp::from_layers rejects (here keep_prob 1.5) is a
// corrupt file too: IoError, naming the head layer.
TEST_F(ConvIoTest, InvalidHeadLayerIsIoError) {
  Rng rng(6);
  NetParts parts = small_net_parts(rng);
  parts.head.mutable_layer(1).keep_prob = 1.5;
  save_parts(std::move(parts), path("bad_head.apdscnv"));
  try {
    (void)load_conv_net(path("bad_head.apdscnv"));
    ADD_FAILURE() << "keep_prob 1.5 loaded";
  } catch (const IoError& e) {
    EXPECT_NE(std::string(e.what()).find("layer 1"), std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace apds
