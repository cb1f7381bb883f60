#include "data/csv.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>

#include "tensor/ops.h"

namespace apds {
namespace {

class CsvTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Per-pid dir: parallel ctest runs each case in its own process, and a
    // shared dir races one case's TearDown against another's files.
    dir_ = std::filesystem::temp_directory_path() /
           ("apds_csv_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string path(const std::string& n) const { return (dir_ / n).string(); }
  std::filesystem::path dir_;
};

TEST_F(CsvTest, RoundTripWithoutHeader) {
  Matrix m{{1.5, -2.0}, {3.25, 4.0}};
  write_csv(path("a.csv"), m);
  const Matrix back = read_csv(path("a.csv"));
  EXPECT_LT(max_abs_diff(back, m), 1e-9);
}

TEST_F(CsvTest, RoundTripWithHeader) {
  Matrix m{{1.0, 2.0}};
  const std::string header[] = {"alpha", "beta"};
  write_csv(path("b.csv"), m, header);
  const Matrix back = read_csv(path("b.csv"), /*skip_header=*/true);
  EXPECT_EQ(back.rows(), 1u);
  EXPECT_EQ(back.cols(), 2u);
}

TEST_F(CsvTest, HeaderWidthValidated) {
  const std::string header[] = {"only_one"};
  EXPECT_THROW(write_csv(path("c.csv"), Matrix(1, 2), header),
               InvalidArgument);
}

TEST_F(CsvTest, MissingFileThrows) {
  EXPECT_THROW(read_csv(path("nope.csv")), IoError);
}

TEST_F(CsvTest, RaggedRowsRejected) {
  std::ofstream os(path("ragged.csv"));
  os << "1,2,3\n4,5\n";
  os.close();
  EXPECT_THROW(read_csv(path("ragged.csv")), IoError);
}

TEST_F(CsvTest, NonNumericCellRejected) {
  std::ofstream os(path("text.csv"));
  os << "1,banana\n";
  os.close();
  EXPECT_THROW(read_csv(path("text.csv")), IoError);
}

TEST_F(CsvTest, BlankLinesSkipped) {
  std::ofstream os(path("blank.csv"));
  os << "1,2\n\n3,4\n  \n";
  os.close();
  const Matrix m = read_csv(path("blank.csv"));
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m(1, 1), 4.0);
}

TEST_F(CsvTest, WhitespaceAroundNumbersTolerated) {
  std::ofstream os(path("ws.csv"));
  os << " 1 , 2.5\n";
  os.close();
  const Matrix m = read_csv(path("ws.csv"));
  EXPECT_EQ(m(0, 1), 2.5);
}

TEST_F(CsvTest, PreservesPrecision) {
  Matrix m{{1.23456789012, -9.87654321098}};
  write_csv(path("prec.csv"), m);
  const Matrix back = read_csv(path("prec.csv"));
  EXPECT_LT(max_abs_diff(back, m), 1e-10);
}

}  // namespace
}  // namespace apds
