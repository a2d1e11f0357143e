// Shared pieces of the lbtrust benchmark: the run configuration, a seeded
// generator, latency samples, per-layer span accounting on obs::Tracer,
// process checks (threads, memory, CPU pinning) and the result record every
// workload fills in.
#ifndef LBTRUST_PERFBENCH_HARNESS_H_
#define LBTRUST_PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace lbtrust::trust {
class TrustRuntime;
}  // namespace lbtrust::trust

namespace perfbench {

namespace obs = lbtrust::obs;

struct Result;

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  /// Sets each workload's operation budget (operations per nominal second
  /// times this); the work done never depends on how fast it runs.
  int seconds = 10;
  /// Traced run: spans around every layer call, per-layer table, Chrome
  /// trace written to `trace_path`.
  bool trace = false;
  std::string trace_path;
};

/// splitmix64: small, seedable, identical on every platform.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, n); n > 0.
  uint64_t Below(uint64_t n) { return Next() % n; }
  /// Uniform in [0, 1).
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

/// Seeded, distinct, positive 31-bit integers (message and token ids).
std::vector<int64_t> DistinctIds(Rng* rng, size_t n);

using Clock = std::chrono::steady_clock;
double SecondsSince(Clock::time_point start);
double MillisBetween(Clock::time_point a, Clock::time_point b);
double MicrosBetween(Clock::time_point a, Clock::time_point b);

/// Latency samples; percentiles by nearest rank.
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  size_t size() const { return values_.size(); }
  double Percentile(double p) const;
  double Sum() const;

 private:
  std::vector<double> values_;
};

/// Per-layer span accounting. Untraced (null tracer): a Span is one
/// pointer test. Traced: every span is recorded on the obs::Tracer (one
/// Chrome-trace event) and folded into per-name totals: count, total time
/// and self time (duration minus the time its child spans on the same
/// thread cover).
class Layers {
 public:
  struct Totals {
    uint64_t count = 0;
    uint64_t total_us = 0;
    uint64_t self_us = 0;
  };

  explicit Layers(obs::Tracer* tracer) : tracer_(tracer) {}
  Layers(const Layers&) = delete;
  Layers& operator=(const Layers&) = delete;

  bool enabled() const { return tracer_ != nullptr; }
  obs::Tracer* tracer() const { return tracer_; }

  /// Records a span measured elsewhere (e.g. timestamped on another
  /// thread); it has no children and counts as a child of the calling
  /// thread's open Span.
  void Record(const char* name, uint64_t start_us, uint64_t end_us);

  std::map<std::string, Totals> Snapshot() const;

 private:
  friend class Span;
  void Fold(const char* name, uint64_t dur_us, uint64_t self_us);

  obs::Tracer* tracer_;
  mutable std::mutex mu_;
  std::map<std::string, Totals> totals_;
};

/// RAII span around one call into a layer.
class Span {
 public:
  friend class Layers;
  Span(Layers* layers, const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Layers* layers_;
  const char* name_;
  uint64_t start_us_ = 0;
  uint64_t child_us_ = 0;
  Span* parent_ = nullptr;
};

/// Cumulative counters of one or more trust runtimes, read at the
/// boundaries of the timed phase: crypto built-ins, credential store and
/// the engine's metrics registry.
struct Counters {
  double rsa_signs = 0, rsa_verifies = 0, hmac_signs = 0, hmac_verifies = 0;
  double crypto_cache_hits = 0;
  double cred_rsa_verifies = 0, cred_cache_hits = 0;
  double full_fixpoints = 0, delta_fixpoints = 0;
  double commit_us = 0, rule_eval_us = 0, tuples_derived = 0;
  double probes = 0, probe_hits = 0;

  Counters& operator+=(const Counters& o);
  Counters operator-(const Counters& o) const;
};
Counters ReadCounters(lbtrust::trust::TrustRuntime* runtime);

/// Per-layer metrics from counter deltas over the timed phase.
void AddCounterMetrics(const Counters& delta, Result* result);
/// Per-layer metrics from the span totals: each layer span's total time,
/// the `op` spans' total, and the share of it the layer spans cover.
void AddSpanMetrics(const Layers& layers, Result* result);
/// Writes the per-layer table (count, total, self per span) to stderr.
void PrintLayerTable(const Layers& layers, const std::string& workload);

/// CPUs this process may run on (what `nproc` reports).
std::vector<int> AllowedCpus();
/// Pins the calling thread to one CPU.
void PinThisThread(int cpu);

/// Keeps the calling thread pinned, moving it round-robin over the allowed
/// CPUs every kPeriod. On a shared host each CPU's speed drifts on its own
/// over seconds; a thread that stays on one CPU inherits that CPU's drift
/// for the whole run, one that rotates sees the average of all of them.
/// A move costs the next operation a cache refill, so moving much more
/// often than once a second puts the moves into the latency tail.
class CpuRotation {
 public:
  static constexpr std::chrono::milliseconds kPeriod{1000};

  CpuRotation();
  /// Call between operations; moves to the next CPU once kPeriod is up.
  void Tick() {
    if (Clock::now() >= due_) Advance();
  }

 private:
  void Advance();

  std::vector<int> cpus_;
  size_t next_ = 0;
  Clock::time_point due_;
};

/// Threads of this process right now (/proc/self/status), tracked as a
/// running maximum by Sample().
class ThreadWatch {
 public:
  void Sample();
  int max_threads() const { return max_threads_; }

 private:
  std::mutex mu_;
  int max_threads_ = 0;
};

/// Peak resident set of this process, in MiB.
double PeakRssMb();

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one workload run reports. `Fail()` marks the run incorrect (a
/// broken invariant); `CountFailure()` records a failed operation.
struct Result {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  /// Counts, ratios and span totals of the traced run, keyed by metric
  /// name; metrics a workload does not exercise stay absent (reported 0).
  std::map<std::string, double> layer;

  void Fail(const std::string& why);
  /// Records `ops` failed operations.
  void CountFailure(const std::string& why, uint64_t ops = 1);
  void Set(const std::string& name, double value, const std::string& unit);

 private:
  int logged_ = 0;
};

/// Fills the end-to-end metrics every workload reports from its samples.
void FinishEndToEnd(Result* result, double setup_s, double ops,
                    double timed_s, const Samples& updates,
                    const Samples& decides);

/// Takes `reps` set-ups and returns the median duration; each duration is
/// also logged to stderr, the first one (a cold process) included. `setup`
/// returns false on failure (already recorded in the result); `teardown`
/// drops every set-up but the last, outside the timed interval.
template <typename SetupFn, typename TeardownFn>
double MedianSetup(int reps, SetupFn setup, TeardownFn teardown) {
  Samples times;
  for (int i = 0; i < reps; ++i) {
    if (i > 0) teardown();
    Clock::time_point start = Clock::now();
    if (!setup()) return -1;
    const double seconds = SecondsSince(start);
    times.Add(seconds);
    std::fprintf(stderr, "set-up %d: %.6fs\n", i + 1, seconds);
  }
  return times.Percentile(50);
}

/// The metric names and units of each set, in BENCHMARK.json order.
const std::vector<std::pair<std::string, std::string>>& EndToEndMetrics();
const std::vector<std::pair<std::string, std::string>>& LayerMetrics();

/// Workload entry points.
Result RunExchange(const RunConfig& config, Layers* layers,
                   ThreadWatch* threads);
Result RunAuthz(const RunConfig& config, Layers* layers,
                ThreadWatch* threads);
Result RunMesh(const RunConfig& config, Layers* layers, ThreadWatch* threads);

/// Number of set-ups each run takes (setup_s reports their median).
constexpr int kSetupReps = 3;

}  // namespace perfbench

#endif  // LBTRUST_PERFBENCH_HARNESS_H_
