#ifndef LBTRUST_OBS_METRICS_H_
#define LBTRUST_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <string_view>

namespace lbtrust::obs {

/// Monotone counter, and the only storage of the value it counts.
/// Handles are registered once (mutex-guarded) by the module that counts,
/// and then updated lock-free: Add() is a single relaxed atomic add, cheap
/// enough for per-probe hot paths. Stats structs such as TransportStats
/// are by-value views read from these handles, never copies written back.
class Counter {
 public:
  void Add(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Point-in-time value (relation cardinalities, queue depths).
class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Fixed log-scaled histogram: bucket i counts observations with
/// bit_width(v) == i, i.e. upper bounds 0, 1, 3, 7, ..., 2^k - 1. No
/// per-histogram configuration, no allocation after registration; Observe()
/// is two relaxed adds plus a bit scan. Covers the full latency range the
/// engine cares about (ns prepared probes through multi-second commits)
/// with ~2x resolution per bucket.
class Histogram {
 public:
  /// Buckets 0..kBuckets-2 are finite (le = 2^i - 1); the last is +Inf.
  static constexpr size_t kBuckets = 40;

  void Observe(uint64_t v) {
    size_t b = BucketIndex(v);
    buckets_[b].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
  }

  static size_t BucketIndex(uint64_t v) {
    size_t width = 0;
    while (v != 0) {
      ++width;
      v >>= 1;
    }
    return width < kBuckets - 1 ? width : kBuckets - 1;
  }
  /// Inclusive upper bound of finite bucket i (2^i - 1).
  static uint64_t BucketUpper(size_t i) { return (uint64_t{1} << i) - 1; }

  uint64_t bucket(size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  uint64_t count() const {
    uint64_t total = 0;
    for (size_t i = 0; i < kBuckets; ++i) total += bucket(i);
    return total;
  }

 private:
  std::atomic<uint64_t> buckets_[kBuckets] = {};
  std::atomic<uint64_t> sum_{0};
};

/// Name + label-keyed registry of the three instrument kinds, with
/// Prometheus-style text exposition. Registration (GetCounter / GetGauge /
/// GetHistogram) takes a mutex and deduplicates on (name, labels), so
/// callers fetch handles once — when they are constructed, or when a rule
/// is installed — and hot paths touch only the returned handle. Handles
/// live in deques and stay valid for the registry's lifetime.
///
/// `labels` is a pre-formatted Prometheus label body without braces, e.g.
/// `rule="3"` or `relation="edge"` (see LabelEscape for values that may
/// contain quotes or backslashes). Empty means no labels.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* GetCounter(std::string_view name, std::string_view labels = "");
  Gauge* GetGauge(std::string_view name, std::string_view labels = "");
  Histogram* GetHistogram(std::string_view name, std::string_view labels = "");

  /// Renders every registered instrument in Prometheus text format:
  /// `# TYPE` line per family, one sample line per label set, histogram
  /// expansion into cumulative `_bucket{le=...}` / `_sum` / `_count`.
  /// Families and label sets render in lexicographic order, so output is
  /// deterministic and diffable.
  std::string RenderText() const;

 private:
  /// Label body -> index into the matching deque. A family may hold only
  /// one kind in practice; keeping per-kind maps makes an accidental
  /// name collision across kinds safe (two families render) instead of a
  /// wrong-deque dereference.
  struct Family {
    std::map<std::string, size_t> counters;
    std::map<std::string, size_t> gauges;
    std::map<std::string, size_t> histograms;
  };

  mutable std::mutex mu_;
  std::map<std::string, Family> families_;
  std::deque<Counter> counters_;
  std::deque<Gauge> gauges_;
  std::deque<Histogram> histograms_;
};

/// Escapes a label value for use inside `key="..."` (backslash, quote,
/// newline).
std::string LabelEscape(std::string_view value);

}  // namespace lbtrust::obs

#endif  // LBTRUST_OBS_METRICS_H_
