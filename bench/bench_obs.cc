// Observability overhead: raw instrument update cost (counter add,
// histogram observe, scoped span) and the end-to-end cost of an
// instrumented fixpoint, alone, traced and with an idle HTTP exporter.
// The engine always counts: hot-path updates are a relaxed atomic add and
// probe tallies are plain context-local uint64_t folded per rule.
#include <benchmark/benchmark.h>

#include "datalog/value.h"
#include "datalog/workspace.h"
#include "obs/http_exporter.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace {

using lbtrust::datalog::Value;
using lbtrust::datalog::Workspace;
using lbtrust::obs::Histogram;
using lbtrust::obs::MetricsRegistry;
using lbtrust::obs::ScopedSpan;
using lbtrust::obs::Tracer;

void BM_CounterAdd(benchmark::State& state) {
  MetricsRegistry reg;
  lbtrust::obs::Counter* c = reg.GetCounter("lbtrust_bench_total");
  for (auto _ : state) {
    c->Add(1);
  }
  benchmark::DoNotOptimize(c->value());
}
BENCHMARK(BM_CounterAdd);

void BM_HistogramObserve(benchmark::State& state) {
  MetricsRegistry reg;
  Histogram* h = reg.GetHistogram("lbtrust_bench_latency");
  uint64_t v = 0;
  for (auto _ : state) {
    h->Observe(v++ & 0xFFFF);
  }
  benchmark::DoNotOptimize(h->count());
}
BENCHMARK(BM_HistogramObserve);

// Spans accumulate in the tracer until export, so a fresh tracer per
// batch keeps the bench memory-bounded; the reported time is per batch of
// 4096 spans (items/s gives the per-span rate).
void BM_ScopedSpanBatch(benchmark::State& state) {
  constexpr int kBatch = 4096;
  for (auto _ : state) {
    Tracer tracer;
    for (int i = 0; i < kBatch; ++i) {
      ScopedSpan span(&tracer, "bench");
    }
    benchmark::DoNotOptimize(tracer.event_count());
  }
  state.SetItemsProcessed(state.iterations() * kBatch);
}
BENCHMARK(BM_ScopedSpanBatch);

void BM_RegistryRenderText(benchmark::State& state) {
  MetricsRegistry reg;
  for (int i = 0; i < 64; ++i) {
    std::string labels = "rule=\"" + std::to_string(i) + "\"";
    reg.GetCounter("lbtrust_rule_evals_total", labels)->Add(i);
    reg.GetHistogram("lbtrust_latency", labels)->Observe(i * 37);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(reg.RenderText());
  }
}
BENCHMARK(BM_RegistryRenderText);

// Chain with a back edge, as BM_TransitiveClosureSemiNaive in bench_engine:
// the canonical fixpoint workload, instrumented as every fixpoint is.
void BM_FixpointMetrics(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Workspace::Options opts;
    opts.threads = 1;
    Workspace ws(opts);
    (void)ws.Load("path(X,Y) <- edge(X,Y).\n"
                  "path(X,Z) <- path(X,Y), edge(Y,Z).");
    for (int i = 0; i + 1 < n; ++i) {
      (void)ws.AddFact("edge", {Value::Int(i), Value::Int(i + 1)});
    }
    (void)ws.AddFact("edge", {Value::Int(n - 1), Value::Int(0)});
    auto st = ws.Fixpoint();
    if (!st.ok()) state.SkipWithError(st.ToString().c_str());
    benchmark::DoNotOptimize(ws.GetRelation("path"));
  }
  state.SetItemsProcessed(state.iterations() * n * n);
}
BENCHMARK(BM_FixpointMetrics)->Arg(64)->Arg(128);

// The same fixpoint with the tracer attached: spans are recorded per
// fixpoint/stratum/rule, so this bounds the full-observability cost.
void BM_FixpointTraced(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Tracer tracer;  // fresh per iteration so the span buffer stays bounded
    Workspace ws;
    ws.SetTracer(&tracer);
    (void)ws.Load("path(X,Y) <- edge(X,Y).\n"
                  "path(X,Z) <- path(X,Y), edge(Y,Z).");
    for (int i = 0; i + 1 < n; ++i) {
      (void)ws.AddFact("edge", {Value::Int(i), Value::Int(i + 1)});
    }
    (void)ws.AddFact("edge", {Value::Int(n - 1), Value::Int(0)});
    auto st = ws.Fixpoint();
    if (!st.ok()) state.SkipWithError(st.ToString().c_str());
    benchmark::DoNotOptimize(ws.GetRelation("path"));
  }
  state.SetItemsProcessed(state.iterations() * n * n);
}
BENCHMARK(BM_FixpointTraced)->Arg(64)->Arg(128);

// The live-introspection acceptance gate: the same instrumented fixpoint
// as BM_FixpointMetrics/N, but with an HTTP exporter listening (no
// clients connected) and polled once per iteration — exactly the idle
// per-wave cost DistributedCluster pays for having /metrics attached.
// Must bench within noise of BM_FixpointMetrics.
void BM_FixpointWithHttpExporter(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  lbtrust::obs::MetricsRegistry metrics;
  lbtrust::obs::HttpExporter exporter(nullptr, &metrics);
  exporter.Handle("/metrics", [] {
    lbtrust::obs::HttpExporter::Response r;
    r.body = "lbtrust_up 1\n";
    return r;
  });
  if (!exporter.Listen("127.0.0.1", 0).ok()) {
    state.SkipWithError("exporter listen failed");
    return;
  }
  for (auto _ : state) {
    Workspace::Options opts;
    opts.threads = 1;
    Workspace ws(opts);
    (void)ws.Load("path(X,Y) <- edge(X,Y).\n"
                  "path(X,Z) <- path(X,Y), edge(Y,Z).");
    for (int i = 0; i + 1 < n; ++i) {
      (void)ws.AddFact("edge", {Value::Int(i), Value::Int(i + 1)});
    }
    (void)ws.AddFact("edge", {Value::Int(n - 1), Value::Int(0)});
    auto st = ws.Fixpoint();
    if (!st.ok()) state.SkipWithError(st.ToString().c_str());
    (void)exporter.Poll(0);
    benchmark::DoNotOptimize(ws.GetRelation("path"));
  }
  state.SetItemsProcessed(state.iterations() * n * n);
}
BENCHMARK(BM_FixpointWithHttpExporter)->Arg(64)->Arg(128);

}  // namespace
