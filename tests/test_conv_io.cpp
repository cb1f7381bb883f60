#include "conv/conv_io.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>

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

}  // namespace
}  // namespace apds
