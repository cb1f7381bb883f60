// Flight recorder unit tests: ring wrap/ordering, seqlock snapshot
// consistency under concurrent writers, JSON dump validity, the
// RequestScope producer path (record contents, latency exemplar,
// counters) and the SIGUSR1 dump request.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "json_check.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"

namespace apds {
namespace {

obs::RequestRecord make_record(std::uint64_t id) {
  obs::RequestRecord r;
  r.request_id = id;
  r.dur_ms = static_cast<double>(id) * 0.5;
  r.n_layers = 2;
  r.layer_ms[0] = 0.25f;
  r.layer_ms[1] = 0.75f;
  r.input_mean = 1.5;
  r.input_absmax = 3.0;
  r.pred_mean = 0.25;
  r.pred_var = 0.04;
  return r;
}

std::string read_file(const std::string& path) {
  std::ifstream is(path);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

TEST(FlightRecorder, RingKeepsNewestAndReportsNewestFirst) {
  obs::FlightRecorder recorder(4);
  for (std::uint64_t id = 1; id <= 10; ++id) recorder.record(make_record(id));
  EXPECT_EQ(recorder.completed(), 10u);

  const std::vector<obs::RequestRecord> snap = recorder.snapshot();
  ASSERT_EQ(snap.size(), 4u);
  EXPECT_EQ(snap[0].request_id, 10u);
  EXPECT_EQ(snap[1].request_id, 9u);
  EXPECT_EQ(snap[2].request_id, 8u);
  EXPECT_EQ(snap[3].request_id, 7u);
}

TEST(FlightRecorder, UnderfilledRingReturnsOnlyPublishedSlots) {
  obs::FlightRecorder recorder(8);
  recorder.record(make_record(1));
  recorder.record(make_record(2));
  const std::vector<obs::RequestRecord> snap = recorder.snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].request_id, 2u);
  EXPECT_EQ(snap[1].request_id, 1u);
  EXPECT_FLOAT_EQ(snap[1].layer_ms[0], 0.25f);
  EXPECT_FLOAT_EQ(snap[1].layer_ms[1], 0.75f);
  EXPECT_DOUBLE_EQ(snap[1].input_absmax, 3.0);
}

TEST(FlightRecorder, SnapshotIsConsistentUnderConcurrentWriters) {
  obs::FlightRecorder recorder(16);
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t)
    writers.emplace_back([&recorder, t] {
      for (std::uint64_t i = 0; i < 2000; ++i)
        recorder.record(
            make_record(static_cast<std::uint64_t>(t) * 10000 + i + 1));
    });
  // Reader races the writers: every record it returns must be untorn,
  // which make_record() lets us verify (dur_ms is a function of the id).
  for (int i = 0; i < 200; ++i)
    for (const obs::RequestRecord& r : recorder.snapshot()) {
      EXPECT_NE(r.request_id, 0u);
      EXPECT_DOUBLE_EQ(r.dur_ms, static_cast<double>(r.request_id) * 0.5);
    }
  for (std::thread& w : writers) w.join();
  EXPECT_EQ(recorder.completed(), 8000u);
}

TEST(FlightRecorder, JsonDumpIsValidAndNewestFirst) {
  obs::FlightRecorder recorder(4);
  recorder.record(make_record(11));
  recorder.record(make_record(12));

  const std::string json = recorder.to_json();
  EXPECT_TRUE(testing::json_valid(json)) << json;
  EXPECT_NE(json.find("\"capacity\":4"), std::string::npos);
  EXPECT_NE(json.find("\"completed\":2"), std::string::npos);
  EXPECT_NE(json.find("\"layers_ms\":[0.25,0.75]"), std::string::npos);
  // Newest first in the requests array.
  EXPECT_LT(json.find("\"request_id\":12"), json.find("\"request_id\":11"));
}

TEST(FlightRecorder, RequestScopePublishesAnnotatedRecord) {
  obs::FlightRecorder::instance().clear();
  MetricsRegistry::instance().reset();

  std::uint64_t id = 0;
  {
    obs::RequestScope request;
    id = request.request_id();
    ASSERT_NE(id, 0u);
    ASSERT_EQ(obs::RequestScope::current(), &request);
    const std::vector<double> input = {1.0, -3.0, 2.0};
    request.set_input_stats(input);
    request.add_layer_ms(0.5);
    request.add_layer_ms(1.5);
    request.set_prediction(0.7, 0.01);
  }
  EXPECT_EQ(obs::RequestScope::current(), nullptr);

  const std::vector<obs::RequestRecord> snap =
      obs::FlightRecorder::instance().snapshot();
  ASSERT_EQ(snap.size(), 1u);
  const obs::RequestRecord& r = snap[0];
  EXPECT_EQ(r.request_id, id);
  EXPECT_EQ(r.n_layers, 2u);
  EXPECT_FLOAT_EQ(r.layer_ms[0], 0.5f);
  EXPECT_FLOAT_EQ(r.layer_ms[1], 1.5f);
  EXPECT_DOUBLE_EQ(r.input_mean, 0.0);
  EXPECT_DOUBLE_EQ(r.input_absmax, 3.0);
  EXPECT_DOUBLE_EQ(r.pred_mean, 0.7);
  EXPECT_DOUBLE_EQ(r.pred_var, 0.01);
  EXPECT_GE(r.dur_ms, 0.0);

  // The scope also fed the serving metrics: count plus an exemplar that
  // carries this request's id in the latency histogram's bucket.
  EXPECT_EQ(MetricsRegistry::instance().counter("request.count").value(), 1);
  const auto exemplars =
      MetricsRegistry::instance().histogram("request.latency_ms").exemplars();
  bool found = false;
  for (const auto& ex : exemplars) found = found || ex.request_id == id;
  EXPECT_TRUE(found);
}

TEST(FlightRecorder, RequestedDumpIsServicedByNextRecord) {
  // ObsSession creates the --obs-dir directory; here the test does.
  const std::string dir = "flight_sigusr1_service_test";
  const std::string path = dir + "/flight.json";
  std::filesystem::create_directories(dir);
  std::remove(path.c_str());
  obs::FlightRecorder::instance().clear();
  obs::FlightRecorder::instance().set_dump_dir(dir);

  obs::FlightRecorder::request_dump();  // what the SIGUSR1 handler does
  obs::FlightRecorder::instance().record(make_record(77));

  const std::string json = read_file(path);
  ASSERT_FALSE(json.empty()) << "dump was not serviced";
  EXPECT_TRUE(testing::json_valid(json));
  EXPECT_NE(json.find("\"request_id\":77"), std::string::npos);

  obs::FlightRecorder::instance().set_dump_dir("");
  obs::FlightRecorder::instance().clear();
  std::remove(path.c_str());
}

TEST(FlightRecorder, HistogramExemplarLandsInItsBucketAndInJsonExport) {
  MetricsRegistry::instance().reset();
  // The request-latency layout: 32 log-spaced buckets over 1 us-100 ms,
  // log10(ms) + 3 in steps of 5/32, so 5 ms lands in bucket 23 and 95 ms in
  // bucket 31.
  auto& hist = MetricsRegistry::instance().histogram("exemplar.test_ms");
  hist.observe(5.0, 42);
  hist.observe(95.0, 43);

  const auto exemplars = hist.exemplars();
  bool low = false;
  bool high = false;
  for (const auto& ex : exemplars) {
    if (ex.request_id == 42) low = ex.value_ms == 5.0;
    if (ex.request_id == 43) high = ex.value_ms == 95.0;
  }
  EXPECT_TRUE(low);
  EXPECT_TRUE(high);

  // metrics.json carries each bucket's exemplar, which is how a tail
  // bucket links to a trace apds_report --request can resolve.
  const std::string json = MetricsRegistry::instance().to_json();
  EXPECT_TRUE(testing::json_valid(json)) << json;
  const std::size_t at = json.find("\"exemplar.test_ms\":{");
  ASSERT_NE(at, std::string::npos) << json;
  const std::size_t begin = json.find("\"exemplars\":[", at);
  ASSERT_NE(begin, std::string::npos) << json;
  const std::string listed = json.substr(begin, json.find(']', begin) - begin);
  EXPECT_NE(listed.find("{\"bucket\":23,\"request_id\":42,\"value_ms\":5}"),
            std::string::npos)
      << json;
  EXPECT_NE(listed.find("{\"bucket\":31,\"request_id\":43,\"value_ms\":95}"),
            std::string::npos)
      << json;
}

}  // namespace
}  // namespace apds
