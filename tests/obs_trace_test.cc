#include <gtest/gtest.h>

#include <string>
#include <thread>

#include "obs/run_report.h"
#include "obs/trace.h"

namespace sans {
namespace {

TEST(TraceTest, NestedScopesFormATree) {
  Trace trace;
  {
    TraceSpan run(&trace, "run");
    {
      TraceSpan phase(&trace, "1-signatures");
    }
    {
      TraceSpan phase(&trace, "2-candidates");
      TraceSpan inner(&trace, "bucketize");
    }
  }
  const auto spans = trace.Spans();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(spans[0].name, "run");
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_EQ(spans[0].depth, 0);
  EXPECT_EQ(spans[1].name, "1-signatures");
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_EQ(spans[1].depth, 1);
  EXPECT_EQ(spans[2].parent, 0);
  EXPECT_EQ(spans[3].name, "bucketize");
  EXPECT_EQ(spans[3].parent, 2);
  EXPECT_EQ(spans[3].depth, 2);
  for (const auto& span : spans) {
    EXPECT_GE(span.duration_seconds, 0.0);
    EXPECT_GE(span.start_seconds, 0.0);
  }
}

TEST(TraceTest, ExplicitParentLinksAcrossScopes) {
  // A manually-held root (the pipeline keeps "run" open across stage
  // scopes) with children linked by id rather than the RAII stack.
  Trace trace;
  const int root = trace.StartSpan("run", -1);
  {
    TraceSpan stage(&trace, "1-signatures", root);
  }
  trace.EndSpan(root);
  const auto spans = trace.Spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[1].parent, root);
  EXPECT_EQ(spans[1].depth, 1);
  EXPECT_GE(spans[0].duration_seconds, spans[1].duration_seconds);
}

TEST(TraceTest, SpansOnOtherThreadsAreRoots) {
  Trace trace;
  TraceSpan run(&trace, "run");
  std::thread worker([&trace] {
    // No open span on this thread, so the span becomes a root.
    TraceSpan span(&trace, "worker");
  });
  worker.join();
  const auto spans = trace.Spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[1].name, "worker");
  EXPECT_EQ(spans[1].parent, -1);
}

TEST(TraceTest, NullTraceIsANoOp) {
  TraceSpan span(nullptr, "ignored");
  // Nothing to assert beyond "does not crash"; a following real span
  // must still link correctly.
  Trace trace;
  TraceSpan real(&trace, "real");
  EXPECT_EQ(trace.Spans().size(), 1u);
}

TEST(TraceTest, EndSpanIgnoresBogusIds) {
  Trace trace;
  trace.EndSpan(-1);
  trace.EndSpan(99);
  EXPECT_TRUE(trace.Spans().empty());
}

TEST(TraceTest, ToStringIndentsByDepth) {
  Trace trace;
  {
    TraceSpan run(&trace, "run");
    TraceSpan phase(&trace, "verify");
  }
  const std::string s = trace.ToString();
  EXPECT_NE(s.find("run"), std::string::npos);
  EXPECT_NE(s.find("\n  verify"), std::string::npos);
}

TEST(TraceTest, ToJsonEscapesAndOrders) {
  Trace trace;
  const int id = trace.StartSpan("we\"ird\n", -1);
  trace.EndSpan(id);
  const std::string json = trace.ToJson();
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json.back(), ']');
  EXPECT_NE(json.find("\\\"ird\\n"), std::string::npos);
  EXPECT_NE(json.find("\"parent\":-1"), std::string::npos);
}

TEST(RunReportTest, JsonContainsAllSections) {
  RunReport report;
  report.algorithm = "mh";
  report.threshold = 0.6;
  report.table_rows = 100;
  report.table_cols = 200;
  report.threads = 2;
  report.phases.push_back(RunReport::Phase{"1-signatures", 1.5});
  report.phases.push_back(RunReport::Phase{"3-verify", 0.5});
  report.minhash_kernel = "avx2";
  report.rows_scanned = 100;
  report.candidates_generated = 10;
  report.candidates_verified = 10;
  report.true_positives = 7;
  report.false_positives = 3;
  report.pairs_emitted = 7;
  report.metric_deltas["sans_scan_rows_total"] = 100;
  report.trace_json = "[{\"name\":\"run\"}]";

  const std::string json = RenderRunReportJson(report);
  EXPECT_NE(json.find("\"algorithm\": \"mh\""), std::string::npos);
  EXPECT_NE(json.find("\"table_rows\": 100"), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"1-signatures\""), std::string::npos);
  EXPECT_NE(json.find("\"true_positives\": 7"), std::string::npos);
  EXPECT_NE(json.find("\"minhash_kernel\": \"avx2\""), std::string::npos);
  EXPECT_NE(json.find("\"sans_scan_rows_total\": 100"), std::string::npos);
  // The trace is embedded as raw JSON, not a quoted string.
  EXPECT_NE(json.find("\"trace\": [{\"name\":\"run\"}]"),
            std::string::npos);
  EXPECT_EQ(json.back(), '\n');
}

TEST(RunReportTest, EmptyTraceRendersEmptyArray) {
  RunReport report;
  report.algorithm = "kmh";
  const std::string json = RenderRunReportJson(report);
  EXPECT_NE(json.find("\"trace\": []"), std::string::npos);
}

TEST(RunReportTest, PhaseTableAlignsAndTotals) {
  RunReport report;
  report.phases.push_back(RunReport::Phase{"1-signatures", 3.0});
  report.phases.push_back(RunReport::Phase{"2-candidates", 1.0});
  report.rows_scanned = 42;
  report.pairs_emitted = 5;
  const std::string table = RenderPhaseTable(report);
  EXPECT_NE(table.find("1-signatures"), std::string::npos);
  EXPECT_NE(table.find("75.0"), std::string::npos);  // 3.0 of 4.0 total
  EXPECT_NE(table.find("total"), std::string::npos);
  EXPECT_NE(table.find("rows scanned: 42"), std::string::npos);
  EXPECT_NE(table.find("pairs: 5"), std::string::npos);
}

TEST(RunReportTest, PhasesCarryCpuAndPeakRss) {
  RunReport report;
  report.phases.push_back(RunReport::Phase{"1-signatures", 3.0, 11.5, 40.25});
  report.phases.push_back(RunReport::Phase{"2-candidates", 1.0, 0.5, 52.0});
  report.minhash_kernel = "avx512f";
  const std::string json = RenderRunReportJson(report);
  EXPECT_NE(json.find("{\"name\": \"1-signatures\", \"seconds\": 3.000000, "
                      "\"cpu_s\": 11.500000, \"peak_rss_mb\": 40.250000}"),
            std::string::npos);
  const std::string table = RenderPhaseTable(report);
  EXPECT_NE(table.find("cpu_s"), std::string::npos);
  EXPECT_NE(table.find("11.500"), std::string::npos);
  EXPECT_NE(table.find("12.000"), std::string::npos);  // total CPU
  EXPECT_NE(table.find("52.0"), std::string::npos);    // peak of peaks
  EXPECT_NE(table.find("min-hash kernel: avx512f"), std::string::npos);
}

TEST(RunReportTest, ResourceUsageIsMonotone) {
  const ResourceUsage first = ResourceUsage::Now();
  volatile uint64_t sink = 0;
  for (uint64_t i = 0; i < 20'000'000; ++i) sink = sink + i;
  const ResourceUsage second = ResourceUsage::Now();
  EXPECT_GT(first.peak_rss_mb, 0.0);
  EXPECT_GE(second.peak_rss_mb, first.peak_rss_mb);
  EXPECT_GT(second.cpu_s, first.cpu_s);
}

TEST(RunReportTest, WriteRunReportFailsOnBadPath) {
  RunReport report;
  const Status s =
      WriteRunReport(report, "/nonexistent-dir-xyz/report.json");
  EXPECT_FALSE(s.ok());
}

}  // namespace
}  // namespace sans
