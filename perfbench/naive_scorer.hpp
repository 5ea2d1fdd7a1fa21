#pragma once

#include <vector>

#include "core/clique.hpp"
#include "core/potential.hpp"
#include "corpus/media_object.hpp"
#include "stats/correlation.hpp"
#include "stats/feature_matrix.hpp"

/// \file naive_scorer.hpp
/// An independent re-scorer of the full FIG model, written straight from
/// the paper's Eq. 7/8/9 as DESIGN.md §5 interprets them, to check the
/// scores the engine returns:
///
///   s(Oq, O)   = sum over query cliques c of phi'(c, O)              (Eq. 6)
///   phi'(c, O) = lambda_m * CorS(c) * P(c | O)                       (Eq. 9)
///   P(c | O)   = alpha * min_{n in c} freq(n, O) / |O|
///              + (1 - alpha) * sum_{n in c} sum_{f in O \ c} Cor(n, f)
///                                / (m * |O \ c|)                     (Eq. 7)
///   CorS(c)    = max(0, (1/|D|) * sum_{i in D} prod_{n in c}
///                       (freq(n, i) - mean_n) / sqrt(var_n))         (Eq. 8)
///
/// with CorS = 1 for a single feature and 0 for a constant feature, and a
/// clique not contained in O scored by its smoothing part alone when it
/// has at most partial_max_features features (0 otherwise).
///
/// It deliberately shares nothing with the engine's scoring code but the
/// pair-wise Cor() of the correlation model and the raw statistics of the
/// feature matrix: no memo, no subset expansion of CorS, no factoring of
/// the smoothing sum. It is slow on purpose; use it on a sample.

namespace figdb::perfbench {

class NaiveScorer {
 public:
  NaiveScorer(const stats::CorrelationModel& correlations,
              const stats::FeatureMatrix& matrix, core::MrfOptions options);

  /// s(query, object) over the compiled query cliques.
  double Score(const std::vector<core::Clique>& cliques,
               const corpus::MediaObject& object) const;

 private:
  double CorS(const std::vector<corpus::FeatureKey>& features) const;
  double Potential(const core::Clique& clique, double cors,
                   const corpus::MediaObject& object) const;

  const stats::CorrelationModel& correlations_;
  const stats::FeatureMatrix& matrix_;
  core::MrfOptions options_;
};

}  // namespace figdb::perfbench
