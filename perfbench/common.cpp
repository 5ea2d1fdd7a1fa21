#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <numeric>

#include "bench_common.hpp"
#include "corpus/generator.hpp"
#include "util/rng.hpp"

namespace figdb::perfbench {

void Report::Fail(const std::string& what) {
  correct = false;
  // One line per kind of failure is enough to diagnose; cap the noise.
  if (problems.size() < 20) problems.push_back(what);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * double(values.size() - 1);
  const std::size_t lo = std::size_t(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - double(lo));
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return double(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

CpuTicks ReadCpuTicks() {
  CpuTicks ticks;
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  if (cpu != "cpu") return ticks;
  // user nice system idle iowait irq softirq steal
  for (int field = 0; field < 8; ++field) {
    std::uint64_t v = 0;
    if (!(stat >> v)) return CpuTicks{};
    ticks.total += v;
    if (field == 7) ticks.steal = v;
  }
  return ticks;
}

double StealShare(const CpuTicks& since) {
  const CpuTicks now = ReadCpuTicks();
  if (now.total <= since.total) return -1.0;
  return double(now.steal - since.steal) / double(now.total - since.total);
}

corpus::Corpus MakeDefaultCorpus() {
  // The fig5/7/9 benches' retrieval corpus at its default size and seed.
  return corpus::Generator(bench::MakeRetrievalConfig(bench::Args{}))
      .MakeRetrievalCorpus();
}

std::vector<corpus::ObjectId> SampleObjects(const corpus::Corpus& corpus,
                                            std::size_t count,
                                            std::uint64_t seed) {
  std::vector<corpus::ObjectId> ids(corpus.Size());
  std::iota(ids.begin(), ids.end(), corpus::ObjectId{0});
  util::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 0x5eed);
  count = std::min(count, ids.size());
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t j = i + std::size_t(rng.UniformInt(ids.size() - i));
    std::swap(ids[i], ids[j]);
  }
  ids.resize(count);
  return ids;
}

std::size_t SizedWork(const RunParams& params, double per_second,
                      std::size_t minimum) {
  return std::max(minimum, std::size_t(std::ceil(params.seconds * per_second)));
}

std::string CheckTopK(const std::vector<core::SearchResult>& results,
                      std::size_t k, std::size_t id_limit) {
  if (results.size() != k)
    return std::to_string(results.size()) + " results, expected " +
           std::to_string(k);
  std::vector<corpus::ObjectId> ids;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const core::SearchResult& r = results[i];
    if (r.object >= id_limit)
      return "result id " + std::to_string(r.object) + " out of range";
    if (!std::isfinite(r.score) || r.score <= 0.0)
      return "non-positive or non-finite score for id " +
             std::to_string(r.object);
    if (i > 0) {
      const core::SearchResult& prev = results[i - 1];
      const bool ordered =
          prev.score > r.score ||
          (prev.score == r.score && prev.object < r.object);
      if (!ordered) return "results out of order at rank " + std::to_string(i);
    }
    ids.push_back(r.object);
  }
  std::sort(ids.begin(), ids.end());
  if (std::adjacent_find(ids.begin(), ids.end()) != ids.end())
    return "duplicate result id";
  return "";
}

bool BitIdentical(const std::vector<core::SearchResult>& a,
                  const std::vector<core::SearchResult>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].object != b[i].object) return false;
    if (std::memcmp(&a[i].score, &b[i].score, sizeof(double)) != 0)
      return false;
  }
  return true;
}

}  // namespace figdb::perfbench
