#include "harness.h"

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>

#include "datalog/workspace.h"
#include "trust/trust_runtime.h"

namespace perfbench {

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::vector<int64_t> DistinctIds(Rng* rng, size_t n) {
  std::set<int64_t> seen;
  std::vector<int64_t> out;
  out.reserve(n);
  while (out.size() < n) {
    int64_t id = static_cast<int64_t>(rng->Below(0x7fffffff)) + 1;
    if (seen.insert(id).second) out.push_back(id);
  }
  return out;
}

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double MillisBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

double Samples::Percentile(double p) const {
  if (values_.empty()) return 0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  // Nearest rank: the smallest value with at least p% of samples <= it.
  size_t rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(sorted.size())));
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

double Samples::Sum() const {
  double total = 0;
  for (double v : values_) total += v;
  return total;
}

namespace {
thread_local Span* current_span = nullptr;

/// Sums every sample of each metric family in a registry's text
/// exposition (labels folded together); histogram families contribute
/// their `_sum` and `_count` lines under those names.
std::map<std::string, double> RegistryTotals(
    const obs::MetricsRegistry* reg) {
  std::map<std::string, double> out;
  if (reg == nullptr) return out;
  std::istringstream in(reg->RenderText());
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    size_t name_end = line.find_first_of("{ ");
    size_t value_start = line.rfind(' ');
    if (name_end == std::string::npos || value_start == std::string::npos) {
      continue;
    }
    out[line.substr(0, name_end)] +=
        std::strtod(line.c_str() + value_start + 1, nullptr);
  }
  return out;
}

}  // namespace

Span::Span(Layers* layers, const char* name)
    : layers_(layers != nullptr && layers->enabled() ? layers : nullptr),
      name_(name) {
  if (layers_ == nullptr) return;
  parent_ = current_span;
  current_span = this;
  start_us_ = obs::Tracer::NowMicros();
}

Span::~Span() {
  if (layers_ == nullptr) return;
  const uint64_t dur = obs::Tracer::NowMicros() - start_us_;
  current_span = parent_;
  if (parent_ != nullptr) parent_->child_us_ += dur;
  layers_->tracer()->Record(name_, start_us_, dur);
  layers_->Fold(name_, dur, dur > child_us_ ? dur - child_us_ : 0);
}

void Layers::Fold(const char* name, uint64_t dur_us, uint64_t self_us) {
  std::lock_guard<std::mutex> lock(mu_);
  Totals& t = totals_[name];
  ++t.count;
  t.total_us += dur_us;
  t.self_us += self_us;
}

void Layers::Record(const char* name, uint64_t start_us, uint64_t end_us) {
  if (tracer_ == nullptr) return;
  const uint64_t dur = end_us > start_us ? end_us - start_us : 0;
  if (current_span != nullptr) current_span->child_us_ += dur;
  tracer_->Record(name, start_us, dur);
  Fold(name, dur, dur);
}

std::map<std::string, Layers::Totals> Layers::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return totals_;
}

Counters& Counters::operator+=(const Counters& o) {
  rsa_signs += o.rsa_signs;
  rsa_verifies += o.rsa_verifies;
  hmac_signs += o.hmac_signs;
  hmac_verifies += o.hmac_verifies;
  crypto_cache_hits += o.crypto_cache_hits;
  cred_rsa_verifies += o.cred_rsa_verifies;
  cred_cache_hits += o.cred_cache_hits;
  full_fixpoints += o.full_fixpoints;
  delta_fixpoints += o.delta_fixpoints;
  commit_us += o.commit_us;
  rule_eval_us += o.rule_eval_us;
  tuples_derived += o.tuples_derived;
  probes += o.probes;
  probe_hits += o.probe_hits;
  return *this;
}

Counters Counters::operator-(const Counters& o) const {
  Counters d = *this;
  d.rsa_signs -= o.rsa_signs;
  d.rsa_verifies -= o.rsa_verifies;
  d.hmac_signs -= o.hmac_signs;
  d.hmac_verifies -= o.hmac_verifies;
  d.crypto_cache_hits -= o.crypto_cache_hits;
  d.cred_rsa_verifies -= o.cred_rsa_verifies;
  d.cred_cache_hits -= o.cred_cache_hits;
  d.full_fixpoints -= o.full_fixpoints;
  d.delta_fixpoints -= o.delta_fixpoints;
  d.commit_us -= o.commit_us;
  d.rule_eval_us -= o.rule_eval_us;
  d.tuples_derived -= o.tuples_derived;
  d.probes -= o.probes;
  d.probe_hits -= o.probe_hits;
  return d;
}

Counters ReadCounters(lbtrust::trust::TrustRuntime* runtime) {
  Counters c;
  const lbtrust::trust::CryptoStats& crypto = runtime->crypto_stats();
  c.rsa_signs = static_cast<double>(crypto.rsa_signs);
  c.rsa_verifies = static_cast<double>(crypto.rsa_verifies);
  c.hmac_signs = static_cast<double>(crypto.hmac_signs);
  c.hmac_verifies = static_cast<double>(crypto.hmac_verifies);
  c.crypto_cache_hits = static_cast<double>(crypto.cache_hits);
  const auto& cred = runtime->credentials()->stats();
  c.cred_rsa_verifies = static_cast<double>(cred.rsa_verifies);
  c.cred_cache_hits = static_cast<double>(cred.verify_cache_hits);
  obs::MetricsRegistry* reg = runtime->workspace()->metrics();
  if (reg != nullptr) {
    c.full_fixpoints = static_cast<double>(
        reg->GetCounter("lbtrust_fixpoints_total", "path=\"full\"")->value());
    c.delta_fixpoints = static_cast<double>(
        reg->GetCounter("lbtrust_fixpoints_total", "path=\"delta\"")
            ->value());
    std::map<std::string, double> totals = RegistryTotals(reg);
    c.commit_us = totals["lbtrust_commit_latency_microseconds_sum"];
    c.rule_eval_us = totals["lbtrust_rule_eval_us_total"];
    c.tuples_derived = totals["lbtrust_tuples_derived_total"];
    c.probes = totals["lbtrust_relation_probes_total"];
    c.probe_hits = totals["lbtrust_relation_probe_hits_total"];
  }
  return c;
}

namespace {
double Ratio(double num, double den) { return den > 0 ? num / den : 0; }
}  // namespace

void AddCounterMetrics(const Counters& d, Result* result) {
  auto& m = result->layer;
  m["crypto.rsa_signs"] = d.rsa_signs;
  m["crypto.rsa_verifies"] = d.rsa_verifies;
  m["crypto.hmac_signs"] = d.hmac_signs;
  m["crypto.hmac_verifies"] = d.hmac_verifies;
  m["crypto.cache_hit_ratio"] =
      Ratio(d.crypto_cache_hits, d.crypto_cache_hits + d.rsa_signs +
                                     d.rsa_verifies + d.hmac_signs +
                                     d.hmac_verifies);
  m["datalog.commit_us"] = d.commit_us;
  m["datalog.rule_eval_us"] = d.rule_eval_us;
  m["datalog.tuples_derived"] = d.tuples_derived;
  m["datalog.delta_fixpoints"] = d.delta_fixpoints;
  m["datalog.full_fixpoints"] = d.full_fixpoints;
  m["datalog.probe_hit_ratio"] = Ratio(d.probe_hits, d.probes);
  m["cred.verify_cache_hit_ratio"] =
      Ratio(d.cred_cache_hits, d.cred_cache_hits + d.cred_rsa_verifies);
}

namespace {
/// Layer spans (name -> per-layer metric); `op` spans enclose them.
const std::pair<const char*, const char*> kLayerSpans[] = {
    {"trust.sender_commit", "trust.sender_commit_us"},
    {"trust.receiver_commit", "trust.receiver_commit_us"},
    {"trust.stage", "trust.stage_us"},
    {"trust.import", "trust.import_us"},
    {"datalog.decide", "datalog.decide_us"},
    {"net.placement", "net.placement_us"},
    {"net.wire_encode", "net.wire_encode_us"},
    {"net.wire_decode", "net.wire_decode_us"},
};
}  // namespace

void AddSpanMetrics(const Layers& layers, Result* result) {
  std::map<std::string, Layers::Totals> totals = layers.Snapshot();
  for (const auto& [span, metric] : kLayerSpans) {
    result->layer[metric] = static_cast<double>(totals[span].total_us);
  }
  const Layers::Totals& op = totals["op"];
  result->layer["span.op_us"] = static_cast<double>(op.total_us);
  result->layer["span.layer_coverage"] =
      op.total_us > 0 ? 1.0 - static_cast<double>(op.self_us) /
                                  static_cast<double>(op.total_us)
                      : 0;
}

void PrintLayerTable(const Layers& layers, const std::string& workload) {
  std::map<std::string, Layers::Totals> totals = layers.Snapshot();
  std::fprintf(stderr, "\nper-layer spans, %s (timed phase)\n",
               workload.c_str());
  std::fprintf(stderr, "%-24s %10s %14s %14s\n", "span", "count", "total_us",
               "self_us");
  for (const auto& [name, t] : totals) {
    std::fprintf(stderr, "%-24s %10llu %14llu %14llu\n", name.c_str(),
                 static_cast<unsigned long long>(t.count),
                 static_cast<unsigned long long>(t.total_us),
                 static_cast<unsigned long long>(t.self_us));
  }
}

std::vector<int> AllowedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
    }
  }
  return cpus;
}

void PinThisThread(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

CpuRotation::CpuRotation() : cpus_(AllowedCpus()) { Advance(); }

void CpuRotation::Advance() {
  if (!cpus_.empty()) {
    PinThisThread(cpus_[next_]);
    next_ = (next_ + 1) % cpus_.size();
  }
  due_ = Clock::now() + kPeriod;
}

void ThreadWatch::Sample() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) {
      int threads = std::atoi(line.c_str() + 8);
      std::lock_guard<std::mutex> lock(mu_);
      max_threads_ = std::max(max_threads_, threads);
      return;
    }
  }
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void Result::Fail(const std::string& why) {
  correct = false;
  if (logged_++ < 20) std::fprintf(stderr, "CHECK FAILED: %s\n", why.c_str());
}

void Result::CountFailure(const std::string& why, uint64_t ops) {
  failed += ops;
  if (logged_++ < 20) std::fprintf(stderr, "OP FAILED: %s\n", why.c_str());
}

void Result::Set(const std::string& name, double value,
                 const std::string& unit) {
  end_to_end.push_back(Metric{name, value, unit});
}

void FinishEndToEnd(Result* result, double setup_s, double ops,
                    double timed_s, const Samples& updates,
                    const Samples& decides) {
  result->Set("setup_s", setup_s, "s");
  result->Set("ops_per_s", timed_s > 0 ? ops / timed_s : 0, "1/s");
  result->Set("update_p50_ms", updates.Percentile(50), "ms");
  result->Set("update_p90_ms", updates.Percentile(90), "ms");
  result->Set("decide_p50_us", decides.Percentile(50), "us");
  result->Set("decide_p99_us", decides.Percentile(99), "us");
  result->Set("peak_rss_mb", PeakRssMb(), "MB");
  std::fprintf(stderr,
               "set-up %.3fs (median of %d), timed phase %.3fs: %zu updates, "
               "%zu decisions\n",
               setup_s, kSetupReps, timed_s, updates.size(), decides.size());
  // Ten samples beyond each reported tail percentile.
  if (updates.size() < 100 || decides.size() < 1000) {
    std::fprintf(stderr, "too few samples behind a tail percentile\n");
  }
}

const std::vector<std::pair<std::string, std::string>>& EndToEndMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"setup_s", "s"},          {"ops_per_s", "1/s"},
      {"update_p50_ms", "ms"},   {"update_p90_ms", "ms"},
      {"decide_p50_us", "us"},   {"decide_p99_us", "us"},
      {"peak_rss_mb", "MB"},
  };
  return kMetrics;
}

const std::vector<std::pair<std::string, std::string>>& LayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      // crypto
      {"crypto.rsa_signs", "count"},
      {"crypto.rsa_verifies", "count"},
      {"crypto.hmac_signs", "count"},
      {"crypto.hmac_verifies", "count"},
      {"crypto.cache_hit_ratio", "ratio"},
      // trust commit entry points
      {"trust.sender_commit_us", "us"},
      {"trust.receiver_commit_us", "us"},
      {"trust.stage_us", "us"},
      // meta
      {"meta.codegen_rounds", "count"},
      // datalog write path
      {"datalog.commit_us", "us"},
      {"datalog.rule_eval_us", "us"},
      {"datalog.tuples_derived", "count"},
      {"datalog.delta_fixpoints", "count"},
      {"datalog.full_fixpoints", "count"},
      // datalog read path
      {"datalog.decide_us", "us"},
      {"datalog.probe_hit_ratio", "ratio"},
      // cred
      {"trust.import_us", "us"},
      {"cred.verify_cache_hit_ratio", "ratio"},
      {"cred.rsa_verifies_per_update", "count"},
      // net placement + wire
      {"net.placement_us", "us"},
      {"net.placement_ship_ratio", "ratio"},
      {"net.wire_encode_us", "us"},
      {"net.wire_decode_us", "us"},
      {"net.wire_bytes_per_msg", "bytes"},
      // net transport, event loop, termination (mesh_relay)
      {"net.terminate_ms", "ms"},
      {"net.loop_ticks", "count"},
      {"net.frames_out", "count"},
      {"net.bytes_out", "bytes"},
      {"net.retries", "count"},
      {"net.duplicate_frames_in", "count"},
      {"net.deferred_sends", "count"},
      {"trust.node_fixpoints", "count"},
      // the traced run's own end-to-end copy, span coverage
      {"span.op_us", "us"},
      {"span.layer_coverage", "ratio"},
      {"traced.ops_per_s", "1/s"},
      {"traced.update_p50_ms", "ms"},
      {"traced.decide_p50_us", "us"},
  };
  return kMetrics;
}

}  // namespace perfbench
