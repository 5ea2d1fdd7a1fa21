#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "core/retriever.hpp"
#include "corpus/corpus.hpp"

/// \file common.hpp
/// Shared pieces of the figdb benchmark: run parameters, the report every
/// workload fills, timing and statistics helpers, and the checks that apply
/// to any top-k answer.

namespace figdb::perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}
inline double MillisSince(Clock::time_point start) {
  return SecondsSince(start) * 1e3;
}

/// Result depth of every query (the paper's P@10 cut-off).
inline constexpr std::size_t kTopK = 10;

struct RunParams {
  std::string workload;
  std::uint64_t seed = 1;
  /// Sizes the run: each workload does a FIXED amount of work per second
  /// of --seconds (its reference rate, see workloads.cpp), never "as much
  /// as fits", so every run of one seed does identical work.
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for on-disk stores (created and removed by run.py).
  std::string dir;
  /// Safety stop: once it passes, loops start no new operation beyond
  /// their first (the ones not started count as failed), so a run on a
  /// host that has slowed many-fold still ends, with a result, inside
  /// run.py's time limit. At the reference host's speed a run never comes
  /// near it.
  Clock::time_point deadline = Clock::time_point::max();
  bool Expired() const { return Clock::now() >= deadline; }
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// What one run prints: operation counts, the metrics of the requested
/// kind (end-to-end untraced, per-layer traced) and every failed check.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> problems;

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Records a failed correctness check (the run then reports
  /// "correct": false).
  void Fail(const std::string& what);
  /// Fails with \p what unless \p ok.
  void Check(bool ok, const std::string& what) {
    if (!ok) Fail(what);
  }
};

/// q-quantile (0..1) by linear interpolation; 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// Peak resident set size of this process so far, in MB.
double PeakRssMb();

/// CPU time the hypervisor gave to other guests ("steal", /proc/stat),
/// as a share of all CPU time since \p since; -1 where unavailable.
struct CpuTicks {
  std::uint64_t steal = 0, total = 0;
};
CpuTicks ReadCpuTicks();
double StealShare(const CpuTicks& since);

/// The paper's 6K-object default retrieval corpus: the configuration the
/// fig5/7/9 benches use at their default size and seed. The corpus is the
/// same for every --seed; the seed picks the queries.
corpus::Corpus MakeDefaultCorpus();

/// \p count distinct object ids of \p corpus in a seeded order.
std::vector<corpus::ObjectId> SampleObjects(const corpus::Corpus& corpus,
                                            std::size_t count,
                                            std::uint64_t seed);

/// Number of operations a workload performs: \p per_second of run length,
/// at least \p minimum.
std::size_t SizedWork(const RunParams& params, double per_second,
                      std::size_t minimum);

/// Properties every top-k answer must have: exactly \p k results (the
/// corpus always holds more than k candidates for an object query),
/// ordered best-first with ties towards the smaller id, distinct ids
/// below \p id_limit, finite positive scores. Returns "" or a description
/// of the first violation.
std::string CheckTopK(const std::vector<core::SearchResult>& results,
                      std::size_t k, std::size_t id_limit);

/// Bitwise equality of two answers (ids and the bit patterns of scores).
bool BitIdentical(const std::vector<core::SearchResult>& a,
                  const std::vector<core::SearchResult>& b);

/// |a - b| <= tol * max(|a|, |b|).
inline bool RelClose(double a, double b, double tol) {
  const double scale = std::max(std::abs(a), std::abs(b));
  return std::abs(a - b) <= tol * scale;
}

/// Runs one workload. Defined in workloads.cpp.
Report RunWorkload(const RunParams& params);

}  // namespace figdb::perfbench
