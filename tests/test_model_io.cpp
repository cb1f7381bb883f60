#include "nn/model_io.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>

#include "common/rng.h"
#include "tensor/ops.h"

namespace apds {
namespace {

class ModelIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Per-pid dir: parallel ctest runs each case in its own process, and a
    // shared dir races one case's TearDown against another's save/load.
    dir_ = std::filesystem::temp_directory_path() /
           ("apds_model_io_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  std::filesystem::path dir_;
};

Mlp make_model(Rng& rng) {
  MlpSpec spec;
  spec.dims = {4, 6, 3};
  spec.hidden_act = Activation::kTanh;
  spec.hidden_keep_prob = 0.85;
  return Mlp::make(spec, rng);
}

TEST_F(ModelIoTest, RoundTripPreservesEverything) {
  Rng rng(1);
  const Mlp original = make_model(rng);
  save_model(original, path("m.apds"));
  const Mlp loaded = load_model(path("m.apds"));

  ASSERT_EQ(loaded.num_layers(), original.num_layers());
  for (std::size_t l = 0; l < original.num_layers(); ++l) {
    EXPECT_EQ(loaded.layer(l).act, original.layer(l).act);
    EXPECT_EQ(loaded.layer(l).keep_prob, original.layer(l).keep_prob);
    EXPECT_EQ(loaded.layer(l).weight, original.layer(l).weight);
    EXPECT_EQ(loaded.layer(l).bias, original.layer(l).bias);
  }

  // Behavioral equality.
  Matrix x(3, 4);
  for (double& v : x.flat()) v = rng.normal();
  EXPECT_LT(max_abs_diff(loaded.forward_deterministic(x),
                         original.forward_deterministic(x)),
            1e-15);
}

TEST_F(ModelIoTest, MissingFileThrows) {
  EXPECT_THROW(load_model(path("missing.apds")), IoError);
}

TEST_F(ModelIoTest, WrongMagicRejected) {
  std::ofstream os(path("junk.apds"), std::ios::binary);
  os << "NOTAMODELFILE_____________";
  os.close();
  EXPECT_THROW(load_model(path("junk.apds")), IoError);
  EXPECT_FALSE(is_model_file(path("junk.apds")));
}

TEST_F(ModelIoTest, TruncatedFileThrows) {
  Rng rng(2);
  save_model(make_model(rng), path("full.apds"));
  // Copy all but the last 100 bytes.
  std::ifstream in(path("full.apds"), std::ios::binary);
  std::string data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  data.resize(data.size() - 100);
  std::ofstream out(path("trunc.apds"), std::ios::binary);
  out << data;
  out.close();
  EXPECT_THROW(load_model(path("trunc.apds")), IoError);
}

// save_model writes whatever keep_prob the Mlp holds; load_model must not
// hand a session a keep-probability outside (0, 1], NaN included.
TEST_F(ModelIoTest, KeepProbOutsideUnitIntervalRejected) {
  for (const double keep_prob :
       {0.0, -0.25, 1.25, std::numeric_limits<double>::quiet_NaN()}) {
    SCOPED_TRACE(keep_prob);
    Rng rng(4);
    Mlp mlp = make_model(rng);
    mlp.mutable_layer(1).keep_prob = keep_prob;
    save_model(mlp, path("bad_keep.apds"));
    EXPECT_THROW(load_model(path("bad_keep.apds")), IoError);
  }
}

// The f64 moment tile has no zero-input skip, so a non-finite weight
// facing a dropped input would poison its output column: load_model
// rejects NaN and +-Inf in any weight or bias.
TEST_F(ModelIoTest, NonFiniteParametersRejected) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const bool in_bias : {false, true}) {
    for (const double bad : {nan, inf, -inf}) {
      SCOPED_TRACE(::testing::Message() << (in_bias ? "bias " : "weight ")
                                        << bad);
      Rng rng(5);
      Mlp mlp = make_model(rng);
      if (in_bias)
        mlp.mutable_layer(1).bias(0, 2) = bad;
      else
        mlp.mutable_layer(0).weight(3, 1) = bad;
      save_model(mlp, path("non_finite.apds"));
      EXPECT_THROW(load_model(path("non_finite.apds")), IoError);
    }
  }
}

TEST_F(ModelIoTest, IsModelFileRecognizesGoodFiles) {
  Rng rng(3);
  save_model(make_model(rng), path("good.apds"));
  EXPECT_TRUE(is_model_file(path("good.apds")));
  EXPECT_FALSE(is_model_file(path("nope.apds")));
}

TEST_F(ModelIoTest, OverwriteReplacesOldModel) {
  Rng rng(4);
  const Mlp first = make_model(rng);
  Mlp second = make_model(rng);
  second.mutable_layer(0).weight(0, 0) = 123.0;
  save_model(first, path("m.apds"));
  save_model(second, path("m.apds"));
  const Mlp loaded = load_model(path("m.apds"));
  EXPECT_EQ(loaded.layer(0).weight(0, 0), 123.0);
}

}  // namespace
}  // namespace apds
