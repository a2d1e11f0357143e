#include "obs/metrics.h"

#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/trace.h"

namespace lbtrust::obs {
namespace {

TEST(CounterTest, Add) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Add();
  c.Add(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(HistogramTest, BucketBoundaries) {
  // Bucket i holds values with bit_width == i: upper bounds 0, 1, 3, 7...
  EXPECT_EQ(Histogram::BucketIndex(0), 0u);
  EXPECT_EQ(Histogram::BucketIndex(1), 1u);
  EXPECT_EQ(Histogram::BucketIndex(2), 2u);
  EXPECT_EQ(Histogram::BucketIndex(3), 2u);
  EXPECT_EQ(Histogram::BucketIndex(4), 3u);
  EXPECT_EQ(Histogram::BucketIndex(7), 3u);
  EXPECT_EQ(Histogram::BucketIndex(8), 4u);
  EXPECT_EQ(Histogram::BucketIndex(~uint64_t{0}), Histogram::kBuckets - 1);
  EXPECT_EQ(Histogram::BucketUpper(3), 7u);
}

TEST(HistogramTest, ObserveAccumulates) {
  Histogram h;
  h.Observe(0);
  h.Observe(5);
  h.Observe(5);
  h.Observe(1000);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), 1010u);
  EXPECT_EQ(h.bucket(0), 1u);   // 0
  EXPECT_EQ(h.bucket(3), 2u);   // 5 twice (bit width 3)
  EXPECT_EQ(h.bucket(10), 1u);  // 1000 (bit width 10)
}

TEST(RegistryTest, HandlesAreDedupedAndStable) {
  MetricsRegistry reg;
  Counter* a = reg.GetCounter("lbtrust_x_total", "k=\"1\"");
  Counter* b = reg.GetCounter("lbtrust_x_total", "k=\"2\"");
  EXPECT_NE(a, b);
  EXPECT_EQ(a, reg.GetCounter("lbtrust_x_total", "k=\"1\""));
  // Registering more families never moves existing handles (deque).
  for (int i = 0; i < 100; ++i) {
    reg.GetCounter("lbtrust_churn_total", "i=\"" + std::to_string(i) + "\"");
  }
  EXPECT_EQ(a, reg.GetCounter("lbtrust_x_total", "k=\"1\""));
}

TEST(RegistryTest, SameNameDifferentKindDoesNotAlias) {
  // A name accidentally reused across kinds must not hand back a handle
  // into the wrong deque; each kind keeps its own instance map.
  MetricsRegistry reg;
  Counter* c = reg.GetCounter("lbtrust_dual");
  Gauge* g = reg.GetGauge("lbtrust_dual");
  c->Add(3);
  g->Set(-5);
  EXPECT_EQ(c->value(), 3u);
  EXPECT_EQ(g->value(), -5);
}

TEST(RegistryTest, RenderTextFormat) {
  MetricsRegistry reg;
  reg.GetCounter("lbtrust_tuples_total")->Add(12);
  reg.GetCounter("lbtrust_rule_evals_total", "rule=\"1\"")->Add(3);
  reg.GetCounter("lbtrust_rule_evals_total", "rule=\"2\"")->Add(4);
  reg.GetGauge("lbtrust_rows", "relation=\"edge\"")->Set(99);
  Histogram* h = reg.GetHistogram("lbtrust_latency");
  h->Observe(2);
  h->Observe(100);

  std::string text = reg.RenderText();
  EXPECT_NE(text.find("# TYPE lbtrust_tuples_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("lbtrust_tuples_total 12\n"), std::string::npos);
  EXPECT_NE(text.find("lbtrust_rule_evals_total{rule=\"1\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("lbtrust_rule_evals_total{rule=\"2\"} 4\n"),
            std::string::npos);
  EXPECT_NE(text.find("lbtrust_rows{relation=\"edge\"} 99\n"),
            std::string::npos);
  // Histogram: cumulative buckets, +Inf, _sum and _count.
  EXPECT_NE(text.find("# TYPE lbtrust_latency histogram"), std::string::npos);
  EXPECT_NE(text.find("lbtrust_latency_bucket{le=\"+Inf\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("lbtrust_latency_sum 102\n"), std::string::npos);
  EXPECT_NE(text.find("lbtrust_latency_count 2\n"), std::string::npos);
  // Deterministic: two renders are byte-identical.
  EXPECT_EQ(text, reg.RenderText());
}

TEST(RegistryTest, HistogramBucketsAreCumulative) {
  MetricsRegistry reg;
  Histogram* h = reg.GetHistogram("lbtrust_h");
  h->Observe(0);  // bucket 0 (le="0")
  h->Observe(3);  // bucket 2 (le="3")
  std::string text = reg.RenderText();
  EXPECT_NE(text.find("lbtrust_h_bucket{le=\"0\"} 1\n"), std::string::npos);
  EXPECT_NE(text.find("lbtrust_h_bucket{le=\"1\"} 1\n"), std::string::npos);
  EXPECT_NE(text.find("lbtrust_h_bucket{le=\"3\"} 2\n"), std::string::npos);
  EXPECT_NE(text.find("lbtrust_h_bucket{le=\"+Inf\"} 2\n"),
            std::string::npos);
}

TEST(RegistryTest, ConcurrentUpdatesDoNotLose) {
  MetricsRegistry reg;
  Counter* c = reg.GetCounter("lbtrust_contended_total");
  Histogram* h = reg.GetHistogram("lbtrust_contended_latency");
  constexpr int kThreads = 4, kIters = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        c->Add(1);
        h->Observe(static_cast<uint64_t>(i));
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(c->value(), static_cast<uint64_t>(kThreads * kIters));
  EXPECT_EQ(h->count(), static_cast<uint64_t>(kThreads * kIters));
}

TEST(LabelEscapeTest, EscapesQuotesBackslashesNewlines) {
  EXPECT_EQ(LabelEscape("plain"), "plain");
  EXPECT_EQ(LabelEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(LabelEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(LabelEscape("a\nb"), "a\\nb");
}

TEST(TracerTest, RecordsSpansWithNesting) {
  Tracer tracer;
  {
    ScopedSpan outer(&tracer, "outer");
    EXPECT_TRUE(outer.enabled());
    {
      ScopedSpan inner(&tracer, "inner");
      inner.set_args("\"n\":1");
    }
    outer.set_args("\"n\":2");
  }
  EXPECT_EQ(tracer.event_count(), 2u);
  std::string json = tracer.ExportJson();
  // Chrome trace-event envelope with complete events.
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"outer\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"inner\""), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"n\":1}"), std::string::npos);
}

TEST(TracerTest, NullTracerIsNoOp) {
  ScopedSpan span(nullptr, "ignored");
  EXPECT_FALSE(span.enabled());
  span.set_args("\"x\":1");  // must not crash
}

TEST(TracerTest, FreshTracerNeverHitsStaleThreadCache) {
  // Regression: the per-thread buffer cache used to key on the tracer's
  // address, so a new tracer allocated where a destroyed one lived would
  // record into the old (freed) buffer. Repeated create/record/destroy on
  // one thread reliably reuses the allocation.
  for (int i = 0; i < 16; ++i) {
    Tracer tracer;
    { ScopedSpan span(&tracer, "work"); }
    EXPECT_EQ(tracer.event_count(), 1u) << "iteration " << i;
  }
}

TEST(TracerTest, PerThreadBuffersMergeOnExport) {
  Tracer tracer;
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&tracer] {
      for (int i = 0; i < 10; ++i) {
        ScopedSpan span(&tracer, "work");
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(tracer.event_count(), 30u);
}

}  // namespace
}  // namespace lbtrust::obs
