// Exporter goldens: Prometheus text exposition and JSON for a
// deterministic registry, the JsonWriter primitives, BenchReport's
// parse-line/JSON protocol, and the RunReport built from a real (tiny)
// simulation.  The exact strings here are the stable exchange
// format downstream tooling parses — change them deliberately.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>

#include "pcn/obs/bench_report.hpp"
#include "pcn/obs/json.hpp"
#include "pcn/obs/metrics.hpp"
#include "pcn/obs/report.hpp"
#include "pcn/sim/network.hpp"

namespace {

using pcn::obs::BenchReport;
using pcn::obs::JsonWriter;
using pcn::obs::MetricsRegistry;

/// A small fixed registry every golden below is derived from.
MetricsRegistry& golden_registry() {
  static MetricsRegistry* registry = [] {
    auto* r = new MetricsRegistry;
    r->counter("sim.update.count").add(42);
    r->counter("costmodel.solve.miss").add(7);
    r->gauge("sim.fleet.terminals").set(3.5);
    pcn::obs::Histogram histogram =
        r->histogram("sim.page.cycles", {1.0, 2.0, 4.0});
    histogram.observe(1.0);
    histogram.observe(1.0);
    histogram.observe(3.0);
    histogram.observe(9.0);
    return r;
  }();
  return *registry;
}

TEST(Exporters, PrometheusGolden) {
  const std::string text =
      pcn::obs::to_prometheus(golden_registry().snapshot());
  EXPECT_EQ(text,
            "# HELP pcn_costmodel_solve_miss pcn metric costmodel.solve."
            "miss.\n"
            "# TYPE pcn_costmodel_solve_miss counter\n"
            "pcn_costmodel_solve_miss 7\n"
            "# HELP pcn_sim_update_count pcn metric sim.update.count.\n"
            "# TYPE pcn_sim_update_count counter\n"
            "pcn_sim_update_count 42\n"
            "# HELP pcn_sim_fleet_terminals pcn metric sim.fleet."
            "terminals.\n"
            "# TYPE pcn_sim_fleet_terminals gauge\n"
            "pcn_sim_fleet_terminals 3.5\n"
            "# HELP pcn_sim_page_cycles pcn metric sim.page.cycles.\n"
            "# TYPE pcn_sim_page_cycles histogram\n"
            "pcn_sim_page_cycles_bucket{le=\"1\"} 2\n"
            "pcn_sim_page_cycles_bucket{le=\"2\"} 2\n"
            "pcn_sim_page_cycles_bucket{le=\"4\"} 3\n"
            "pcn_sim_page_cycles_bucket{le=\"+Inf\"} 4\n"
            "pcn_sim_page_cycles_sum 14\n"
            "pcn_sim_page_cycles_count 4\n");
}

TEST(Exporters, PrometheusHelpTableCoversDaemonMetrics) {
  // Curated entries do not use the generic fallback text.
  EXPECT_EQ(pcn::obs::prometheus_help("no.such.metric"),
            "pcn metric no.such.metric.");
  EXPECT_EQ(pcn::obs::prometheus_help("daemon.slot.count")
                .find("pcn metric"),
            std::string::npos);
  EXPECT_EQ(pcn::obs::prometheus_help("daemon.phase.ingest_us")
                .find("pcn metric"),
            std::string::npos);
  EXPECT_EQ(pcn::obs::prometheus_help("daemon.socket.decode_errors")
                .find("pcn metric"),
            std::string::npos);
}

TEST(Exporters, PrometheusHelpTableCoversSimPhaseHistograms) {
  for (const char* name :
       {"sim.phase.segment_us", "sim.phase.shard_us", "sim.phase.page_us"}) {
    SCOPED_TRACE(name);
    const std::string help = pcn::obs::prometheus_help(name);
    EXPECT_EQ(help.find("pcn metric"), std::string::npos);
    EXPECT_NE(help.find("microseconds"), std::string::npos);
  }
}

TEST(Exporters, PrometheusLabelValueEscaping) {
  // Exposition-format escapes for label values: backslash, double quote,
  // and newline.  Everything else passes through verbatim.
  EXPECT_EQ(pcn::obs::prometheus_escape_label_value("plain"), "plain");
  EXPECT_EQ(pcn::obs::prometheus_escape_label_value("say \"hi\"\\\n"),
            "say \\\"hi\\\"\\\\\\n");
  EXPECT_EQ(pcn::obs::prometheus_escape_label_value("+Inf"), "+Inf");
}

TEST(Exporters, SnapshotJsonGolden) {
  const std::string json = pcn::obs::to_json(golden_registry().snapshot());
  EXPECT_EQ(json,
            "{\"counters\":{\"costmodel.solve.miss\":7,"
            "\"sim.update.count\":42},"
            "\"gauges\":{\"sim.fleet.terminals\":3.5},"
            "\"histograms\":{\"sim.page.cycles\":{\"bounds\":[1,2,4],"
            "\"counts\":[2,0,1,1],\"count\":4,\"sum\":14}}}");
}

TEST(JsonWriterTest, EscapingAndScalars) {
  JsonWriter json;
  json.begin_object();
  json.member("text", "quote\" slash\\ newline\n tab\t");
  json.member("flag", true);
  json.member("off", false);
  json.member("int", std::int64_t{-5});
  json.member("big", std::uint64_t{18446744073709551615ULL});
  json.end_object();
  EXPECT_EQ(json.take(),
            "{\"text\":\"quote\\\" slash\\\\ newline\\n tab\\t\","
            "\"flag\":true,\"off\":false,\"int\":-5,"
            "\"big\":18446744073709551615}");
}

TEST(JsonWriterTest, NonFiniteDoublesBecomeNull) {
  JsonWriter json;
  json.begin_array();
  json.value(std::numeric_limits<double>::quiet_NaN());
  json.value(std::numeric_limits<double>::infinity());
  json.value(0.5);
  json.end_array();
  EXPECT_EQ(json.take(), "[null,null,0.5]");
}

TEST(BenchReportTest, ParseLineAndJson) {
  BenchReport report("unit_bench");
  report.set("slots", std::int64_t{1000})
      .set("throughput", 2.5)
      .set("verdict", std::string("pass"));
  report.add_row("case/a").set("cost", 1.25).set("evals", 7);
  EXPECT_EQ(report.parse_line(),
            "PCN_BENCH unit_bench slots=1000 throughput=2.5 verdict=pass");
  EXPECT_EQ(report.json(),
            "{\"schema\":\"pcn.bench_report.v1\",\"name\":\"unit_bench\","
            "\"summary\":{\"slots\":1000,\"throughput\":2.5,"
            "\"verdict\":\"pass\"},"
            "\"rows\":[{\"label\":\"case/a\","
            "\"values\":{\"cost\":1.25,\"evals\":7}}]}");
}

TEST(BenchReportTest, OutputPathHonoursBenchDir) {
  BenchReport report("unit_bench");
  // Not set => the git-ignored default output directory.
  unsetenv("PCN_BENCH_DIR");
  EXPECT_EQ(report.output_path(), "bench/out/BENCH_unit_bench.json");
  setenv("PCN_BENCH_DIR", "/tmp/pcn_bench_test", 1);
  EXPECT_EQ(report.output_path(), "/tmp/pcn_bench_test/BENCH_unit_bench.json");
  unsetenv("PCN_BENCH_DIR");
}

TEST(RunReportTest, JsonShapeFromRealRun) {
  pcn::sim::NetworkConfig config{pcn::Dimension::kOneD,
                                 pcn::sim::SlotSemantics::kChainFaithful, 7};
  config.collect_runtime_stats = true;
  pcn::sim::Network network(config, pcn::CostWeights{100.0, 10.0});
  network.add_terminal(pcn::sim::make_distance_terminal(
      pcn::Dimension::kOneD, pcn::MobilityProfile{0.1, 0.05}, 3,
      pcn::DelayBound(2)));
  network.run(5000);

  const pcn::obs::RunReport report = pcn::obs::make_run_report(network);
  EXPECT_EQ(report.terminals, 1);
  EXPECT_EQ(report.slots, 5000);
  EXPECT_TRUE(report.collect_runtime_stats);
  EXPECT_GT(report.calls, 0);
  EXPECT_GT(report.total_cost_per_slot, 0.0);
  EXPECT_GT(report.run_wall_seconds, 0.0);
  EXPECT_GT(report.terminal_slots_per_sec, 0.0);
  EXPECT_EQ(report.metrics.counter_value("sim.terminal.slots"), 5000);

  const std::string json = to_json(report);
  // Stable shape markers downstream tooling keys off.
  EXPECT_NE(json.find("\"schema\":\"pcn.run_report.v1\""), std::string::npos);
  EXPECT_NE(json.find("\"config\":{\"dimension\":\"1-D\""),
            std::string::npos);
  EXPECT_NE(json.find("\"costs\":{\"update_per_slot\":"), std::string::npos);
  EXPECT_NE(json.find("\"breakdown_seconds\":{"), std::string::npos);
  EXPECT_NE(json.find("\"sim.run.wall\":"), std::string::npos);
  // Span histograms contribute their summed seconds, `_us` stripped.
  EXPECT_NE(json.find("\"sim.phase.shard\":"), std::string::npos);
  EXPECT_NE(json.find("\"throughput\":{\"slots_per_sec\":"),
            std::string::npos);
  EXPECT_NE(json.find("\"metrics\":{\"counters\":{"), std::string::npos);
  // Delay-distribution section: percentiles plus the SLA verdict (the
  // fleet's planned policy has delay bound m=2, so violations must be 0).
  EXPECT_NE(json.find("\"p50\":"), std::string::npos);
  EXPECT_NE(json.find("\"p95\":"), std::string::npos);
  EXPECT_NE(json.find("\"p99\":"), std::string::npos);
  EXPECT_NE(json.find("\"sla\":{\"bound_cycles\":2,\"violations\":0}"),
            std::string::npos);
}

TEST(WriteFileTest, ReportsUnwritablePath) {
  std::string error;
  EXPECT_FALSE(pcn::obs::write_file("/nonexistent_dir/out.json", "{}",
                                    &error));
  EXPECT_NE(error.find("cannot open '/nonexistent_dir/out.json'"),
            std::string::npos);
}

}  // namespace
