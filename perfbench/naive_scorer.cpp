#include "naive_scorer.hpp"

#include <algorithm>
#include <cmath>

namespace figdb::perfbench {

NaiveScorer::NaiveScorer(const stats::CorrelationModel& correlations,
                         const stats::FeatureMatrix& matrix,
                         core::MrfOptions options)
    : correlations_(correlations), matrix_(matrix),
      options_(std::move(options)) {}

double NaiveScorer::CorS(
    const std::vector<corpus::FeatureKey>& features) const {
  if (features.size() <= 1) return 1.0;
  const std::size_t n = matrix_.NumObjects();
  // Dense occurrence vectors, one per clique feature.
  std::vector<std::vector<double>> standardized;
  for (corpus::FeatureKey f : features) {
    const double var = matrix_.Variance(f);
    if (var <= 0.0) return 0.0;
    const double sigma = std::sqrt(var);
    const double mean = matrix_.Mean(f);
    std::vector<double> column(n, (0.0 - mean) / sigma);
    for (const stats::Posting& p : matrix_.Postings(f))
      column[p.object] = (double(p.frequency) - mean) / sigma;
    standardized.push_back(std::move(column));
  }
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    double prod = 1.0;
    for (const std::vector<double>& column : standardized) prod *= column[i];
    sum += prod;
  }
  return std::max(0.0, sum / double(n));
}

double NaiveScorer::Potential(const core::Clique& clique, double cors,
                              const corpus::MediaObject& object) const {
  const std::vector<corpus::FeatureKey>& c = clique.features;
  const std::size_t m = c.size();
  if (m == 0) return 0.0;

  auto in_clique = [&](corpus::FeatureKey f) {
    return std::find(c.begin(), c.end(), f) != c.end();
  };
  auto frequency_in_object = [&](corpus::FeatureKey f) -> std::uint32_t {
    for (const corpus::FeatureOccurrence& o : object.features)
      if (o.feature == f) return o.frequency;
    return 0;
  };

  std::uint32_t joint = frequency_in_object(c[0]);
  for (corpus::FeatureKey f : c) joint = std::min(joint, frequency_in_object(f));
  const bool contained = joint > 0;
  if (!contained && m > options_.partial_max_features) return 0.0;

  std::uint64_t size = 0;
  for (const corpus::FeatureOccurrence& o : object.features)
    size += o.frequency;
  const double freq_part = size == 0 ? 0.0 : double(joint) / double(size);

  double cor_sum = 0.0;
  std::size_t outside = 0;
  for (const corpus::FeatureOccurrence& o : object.features) {
    if (in_clique(o.feature)) continue;
    ++outside;
    for (corpus::FeatureKey n : c) cor_sum += correlations_.Cor(n, o.feature);
  }
  const double smoothing =
      outside == 0 ? 0.0 : cor_sum / (double(m) * double(outside));

  const double p =
      options_.alpha * freq_part + (1.0 - options_.alpha) * smoothing;
  const std::size_t bucket = std::min(m, options_.lambda.size()) - 1;
  const double weight = options_.use_cors_weight ? cors : 1.0;
  return options_.lambda[bucket] * weight * p;
}

double NaiveScorer::Score(const std::vector<core::Clique>& cliques,
                          const corpus::MediaObject& object) const {
  double total = 0.0;
  for (const core::Clique& clique : cliques)
    total += Potential(clique, CorS(clique.features), object);
  return total;
}

}  // namespace figdb::perfbench
