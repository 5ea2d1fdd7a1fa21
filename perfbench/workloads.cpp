// The four benchmark workloads. Each one:
//   1. builds its inputs from the fixed default corpus and --seed,
//   2. times one cold set-up (setup_s),
//   3. runs a fixed amount of work sized from --seconds, timing each
//      operation from outside through the library's public API,
//   4. checks the outputs after the timed region, against independent
//      computations or properties of the method,
// and reports every end-to-end metric of BENCHMARK.json. With --trace 1
// the workload's own passes run on a prefix of its queries and then every
// workload reports the same per-layer metrics: each layer's public call is
// timed on its own, over the run's corpus and queries (the end-to-end
// figures always come from --trace 0 runs). Figures that belong to one
// workload only are printed as notes ("# name = value unit").

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "common.hpp"
#include "eval/oracle.hpp"
#include "index/figdb_store.hpp"
#include "index/retrieval_engine.hpp"
#include "index/threshold_algorithm.hpp"
#include "naive_scorer.hpp"
#include "serve/serving_store.hpp"
#include "stats/correlation.hpp"
#include "stats/feature_matrix.hpp"
#include "temporal/segmented_store.hpp"
#include "util/top_k.hpp"

namespace figdb::perfbench {
namespace {

// Reference rates: operations per second of --seconds. They size the fixed
// work of a run so that it measures about --seconds on the reference host
// (4 cores, RelWithDebInfo; README.md). A faster program finishes the same
// work sooner; it never gets different work.
constexpr double kObjectQueriesPerSecond = 10.0;
constexpr double kServedQueriesPerSecond = 20.0;
constexpr double kDecayedQueriesPerSecond = 25.0;
constexpr double kIngestsPerSecond = 90.0;
constexpr double kIngestReaderQueriesPerSecond = 16.0;

/// Concurrent reader threads of served_readers.
constexpr std::size_t kServedReaders = 2;
/// ingest_publish publishes after every this many ingests.
constexpr std::size_t kPublishEvery = 8;
/// δ of decayed_query: the value near which the paper's Fig. 10 peaks.
constexpr double kDelta = 0.4;
/// Queries whose every result the naive scorer re-scores (object_query),
/// and queries cross-checked against exhaustive decayed rescoring.
constexpr std::size_t kNaiveSample = 8;
constexpr std::size_t kExhaustiveSample = 8;
/// Naive-scorer agreement (README.md "Checks"): relative, per score.
constexpr double kNaiveTolerance = 1e-9;
/// segmented_store.hpp's documented bound for merge-time decay.
constexpr double kDecayTolerance = 1e-9;
/// Queries a traced run takes through each of its passes: the first of
/// the run's sequence, so that a traced run, which makes several passes,
/// stays well inside the safety deadline.
constexpr std::size_t kTracedQueries = 100;

using core::SearchResult;
using StatusOrResponse = util::StatusOr<core::SearchResponse>;

/// A query response counts as failed when it is an error, was truncated,
/// or had its stage-2 rerank shed.
bool ResponseFailed(const StatusOrResponse& r) {
  return !r.ok() || r->truncated || !r->reranked;
}

std::size_t Cores() {
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

/// Executor workers that keep busy threads within the core count.
std::size_t WorkersBeside(std::size_t busy_threads) {
  return Cores() > busy_threads ? Cores() - busy_threads : 0;
}

serve::ServeOptions ServingOptions(std::size_t busy_threads) {
  serve::ServeOptions options;
  options.executor.workers = WorkersBeside(busy_threads);
  // Admission never sheds: the soft cap equals the number of threads that
  // can ever be in flight.
  options.executor.degrade_concurrent = busy_threads;
  options.executor.max_concurrent = 2 * busy_threads;
  return options;
}

std::string FreshDir(const RunParams& params, const std::string& name) {
  const std::filesystem::path dir = std::filesystem::path(params.dir) / name;
  std::filesystem::remove_all(dir);
  return dir.string();
}

template <typename T>
T Unwrap(util::StatusOr<T> value, const char* what) {
  if (!value.ok())
    throw std::runtime_error(std::string(what) + ": " +
                             value.status().ToString());
  return std::move(*value);
}

/// Prints a figure that is not one of BENCHMARK.json's metrics.
void Note(const char* name, double value, const char* unit) {
  std::printf("# %s = %.9g %s\n", name, value, unit);
}

/// Adds the median latency of \p ms and the throughput of the queries
/// they time, over \p seconds of wall time.
/// The 95th percentile is a note (with its sample count in the next
/// line): it did not repeat within a bound across runs (README.md).
void AddLatency(Report* report, const std::vector<double>& ms,
                double seconds) {
  report->Add("query_p50_ms", Median(ms), "ms");
  report->Add("qps", double(ms.size()) / seconds, "queries/s");
  Note("query_p95_ms", Quantile(ms, 0.95), "ms");
  std::printf("# (query_p95_ms over %zu samples)\n", ms.size());
}

std::vector<corpus::ObjectId> TracedPrefix(
    const std::vector<corpus::ObjectId>& queries) {
  return {queries.begin(),
          queries.begin() + std::ptrdiff_t(std::min(queries.size(),
                                                    kTracedQueries))};
}

/// Index options exactly as FigRetrievalEngine derives them from
/// EngineOptions, for timing CliqueIndex::Build on its own.
index::CliqueIndexOptions IndexOptionsOf(const index::EngineOptions& e) {
  index::CliqueIndexOptions options = e.index;
  options.type_mask = e.type_mask;
  options.cliques.max_features = e.mrf.cliques.max_features;
  return options;
}

/// Times the statistics and index layers of set-up on their own.
void TimeSetupLayers(const corpus::Corpus& corpus, Report* report) {
  const index::EngineOptions options;
  Clock::time_point t = Clock::now();
  auto matrix = std::make_shared<const stats::FeatureMatrix>(
      stats::FeatureMatrix::Build(corpus));
  report->Add("stats.matrix_build_s", SecondsSince(t), "s");
  const stats::CorrelationModel correlations(corpus.SharedContext(), matrix,
                                             options.correlations);
  t = Clock::now();
  const index::CliqueIndex built =
      index::CliqueIndex::Build(corpus, correlations, IndexOptionsOf(options));
  report->Add("index.index_build_s", SecondsSince(t), "s");
  std::printf("# clique index: %zu distinct cliques, %zu postings\n",
              built.DistinctCliques(), built.TotalPostings());
}

/// Counts \p planned operations as attempted, of which those the safety
/// deadline kept from starting (\p planned - \p started) as failed: a cut
/// run then shows in its failed share instead of passing as a normal run
/// that did less work.
void CountPlanned(Report* report, const char* what, std::size_t started,
                  std::size_t planned) {
  report->attempted += planned;
  report->failed += planned - started;
  if (started < planned)
    std::printf("# safety deadline: %zu of %zu %s started\n", started,
                planned, what);
}

// ------------------------------------------------------ staged pipeline

/// One query run stage by stage through the engine's public calls —
/// Compile → BuildCliqueList per clique → ThresholdMerge → Score per
/// merged candidate — the same plan, in the same arithmetic order, as
/// FigRetrievalEngine::TrySearch on a two-stage engine without a budget.
struct StagedQuery {
  double compile_ms = 0, stage1_ms = 0, merge_ms = 0, rerank_ms = 0;
  double wall_ms = 0;
  std::size_t cliques = 0, postings = 0, candidates = 0;
  std::vector<SearchResult> results;
  /// ExhaustiveMerge on the same lists agreed with ThresholdMerge.
  bool merges_agree = true;
};

StagedQuery RunStaged(const index::FigRetrievalEngine& engine,
                      const corpus::MediaObject& query, std::size_t k) {
  StagedQuery s;
  const Clock::time_point start = Clock::now();
  Clock::time_point t = start;
  const core::QueryModel qm =
      engine.Scorer().Compile(query, engine.Options().type_mask);
  s.compile_ms = MillisSince(t);
  s.cliques = qm.cliques.size();

  t = Clock::now();
  std::vector<index::ScoredList> lists;
  lists.reserve(qm.cliques.size());
  for (const core::Clique& clique : qm.cliques) {
    index::ScoredList list = engine.BuildCliqueList(clique);
    s.postings += list.entries.size();
    if (!list.entries.empty()) lists.push_back(std::move(list));
  }
  s.stage1_ms = MillisSince(t);

  // The copy for the merge cross-check is part of the traced overhead.
  std::vector<index::ScoredList> copy = lists;
  const std::size_t stage1_k =
      std::max(k, engine.Options().rerank_candidates);
  t = Clock::now();
  std::vector<SearchResult> merged =
      index::ThresholdMerge(std::move(lists), stage1_k);
  s.merge_ms = MillisSince(t);
  s.candidates = merged.size();

  t = Clock::now();
  util::TopK<corpus::ObjectId> topk(k);
  for (const SearchResult& m : merged)
    topk.Offer(engine.Scorer().Score(qm, engine.GetCorpus().Object(m.object)),
               m.object);
  for (const auto& e : topk.Take()) s.results.push_back({e.id, e.score});
  s.rerank_ms = MillisSince(t);
  s.wall_ms = MillisSince(start);

  s.merges_agree = BitIdentical(merged, index::ExhaustiveMerge(copy, stage1_k));
  return s;
}

/// The per-layer metrics of every traced run, over the run's corpus and
/// the traced prefix of its queries: the statistics and index builds of
/// set-up, then each query, split among \p threads threads (thread r
/// takes queries r, r + threads, ...), run stage by stage on one engine
/// and as one TrySearch on a second, so that both meet a correlation memo
/// in the same state (cold for that query). Checks that the two answers
/// are bit-identical and that ThresholdMerge agrees with ExhaustiveMerge.
void TraceLayers(const corpus::Corpus& corpus,
                 const std::vector<corpus::ObjectId>& run_queries,
                 std::size_t threads, const RunParams& params,
                 Report* report) {
  TimeSetupLayers(corpus, report);
  const std::vector<corpus::ObjectId> queries = TracedPrefix(run_queries);
  const index::FigRetrievalEngine staged_engine(corpus,
                                                index::EngineOptions{});
  const index::FigRetrievalEngine plain_engine(corpus,
                                               index::EngineOptions{});
  std::vector<StagedQuery> staged(queries.size());
  std::vector<StatusOrResponse> plain(queries.size(),
                                      util::Status::Unavailable("not run"));
  std::vector<double> plain_ms(queries.size(), 0.0);
  std::vector<std::uint8_t> ran(queries.size(), 0);
  {
    std::vector<std::jthread> pool;
    for (std::size_t r = 0; r < threads; ++r) {
      pool.emplace_back([&, r] {
        for (std::size_t i = r; i < queries.size(); i += threads) {
          if (i != r && params.Expired()) break;
          ran[i] = 1;
          const corpus::MediaObject& query = corpus.Object(queries[i]);
          staged[i] = RunStaged(staged_engine, query, kTopK);
          const Clock::time_point t = Clock::now();
          plain[i] = plain_engine.TrySearch(query, kTopK);
          plain_ms[i] = MillisSince(t);
        }
      });
    }
  }
  CountPlanned(report, "traced queries",
               std::size_t(std::count(ran.begin(), ran.end(), 1)),
               queries.size());

  std::vector<double> compile, stage1, merge, rerank, sum, wall, plain_p,
      cliques, postings, candidates;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    if (!ran[i]) continue;
    if (ResponseFailed(plain[i])) {
      ++report->failed;
      continue;
    }
    const StagedQuery& s = staged[i];
    report->Check(BitIdentical(s.results, plain[i]->results),
                  "staged pipeline differs from TrySearch for query " +
                      std::to_string(queries[i]));
    report->Check(s.merges_agree,
                  "ThresholdMerge differs from ExhaustiveMerge for query " +
                      std::to_string(queries[i]));
    compile.push_back(s.compile_ms);
    stage1.push_back(s.stage1_ms);
    merge.push_back(s.merge_ms);
    rerank.push_back(s.rerank_ms);
    sum.push_back(s.compile_ms + s.stage1_ms + s.merge_ms + s.rerank_ms);
    wall.push_back(s.wall_ms);
    plain_p.push_back(plain_ms[i]);
    cliques.push_back(double(s.cliques));
    postings.push_back(double(s.postings));
    candidates.push_back(double(s.candidates));
  }
  report->Add("core.compile_ms", Median(compile), "ms");
  report->Add("core.cliques_per_query", Median(cliques), "count");
  report->Add("index.stage1_ms", Median(stage1), "ms");
  report->Add("index.postings_per_query", Median(postings), "count");
  report->Add("index.merge_ms", Median(merge), "ms");
  report->Add("index.merge_candidates", Median(candidates), "count");
  report->Add("core.rerank_ms", Median(rerank), "ms");
  report->Add("trace.stage_sum_ms", Median(sum), "ms");
  report->Add("trace.overhead_ms", Median(wall) - Median(plain_p), "ms");
  std::printf("# %zu traced queries on %zu thread(s): TrySearch p50 %.3f ms, "
              "stage sum p50 %.3f ms\n",
              plain_p.size(), threads, Median(plain_p), Median(sum));
}

// ------------------------------------------------------------ precision

/// precision_at_10 of a run: the mean over its answers of the share of
/// results, other than the query object itself, that share the query's
/// latent topic (eval::TopicOracle), and the topic base rate b of its
/// queries: the chance that a random other object shares the topic.
class PrecisionMeter {
 public:
  explicit PrecisionMeter(const corpus::Corpus& corpus)
      : corpus_(corpus), oracle_(&corpus) {
    for (const corpus::MediaObject& o : corpus.Objects()) ++topic_size_[o.topic];
  }

  void Add(const corpus::MediaObject& query,
           const std::vector<SearchResult>& results) {
    std::size_t judged = 0, relevant = 0;
    for (const SearchResult& r : results) {
      if (r.object == query.id) continue;
      ++judged;
      if (oracle_.Relevant(query, r.object)) ++relevant;
    }
    if (judged > 0) precision_ += double(relevant) / double(judged);
    base_rate_ += double(topic_size_.at(query.topic) - 1) /
                  double(corpus_.Size() - 1);
    ++answers_;
  }

  /// Checks the floor b + share·(1 − b) and adds the metric.
  void Report(perfbench::Report* report, double share) const {
    const double n = double(std::max<std::size_t>(1, answers_));
    const double precision = precision_ / n, base_rate = base_rate_ / n;
    const double floor = base_rate + share * (1.0 - base_rate);
    report->Check(answers_ > 0 && precision >= floor,
                  "precision_at_10 below its floor");
    std::printf("# precision_at_10 %.4f (floor %.4f, topic base rate %.4f, "
                "%zu answers)\n",
                precision, floor, base_rate, answers_);
    report->Add("precision_at_10", precision, "ratio");
  }

 private:
  const corpus::Corpus& corpus_;
  const eval::TopicOracle oracle_;
  std::unordered_map<std::uint32_t, std::size_t> topic_size_;
  double precision_ = 0.0, base_rate_ = 0.0;
  std::size_t answers_ = 0;
};

/// The precision floor of an undecayed ranking: halfway from the topic
/// base rate (a random ranking) to perfect.
constexpr double kPrecisionFloorShare = 0.5;
/// A decayed ranking trades topic relevance for recency on purpose, so
/// its floor asks only for a fifth of the way from random to perfect.
constexpr double kDecayedPrecisionFloorShare = 0.2;

// --------------------------------------------------------- object_query

Report ObjectQuery(const RunParams& params) {
  Report report;
  const corpus::Corpus corpus = MakeDefaultCorpus();
  const std::vector<corpus::ObjectId> queries = SampleObjects(
      corpus, SizedWork(params, kObjectQueriesPerSecond, 20), params.seed);

  if (params.trace) {
    TraceLayers(corpus, queries, 1, params, &report);
    return report;
  }

  const Clock::time_point setup = Clock::now();
  const index::FigRetrievalEngine engine(corpus, index::EngineOptions{});
  report.Add("setup_s", SecondsSince(setup), "s");

  std::vector<double> latency;
  std::vector<StatusOrResponse> responses;
  responses.reserve(queries.size());
  const Clock::time_point start = Clock::now();
  for (corpus::ObjectId q : queries) {
    if (!responses.empty() && params.Expired()) break;
    const Clock::time_point t = Clock::now();
    responses.push_back(engine.TrySearch(corpus.Object(q), kTopK));
    latency.push_back(MillisSince(t));
  }
  const double seconds = SecondsSince(start);
  const double rss = PeakRssMb();
  CountPlanned(&report, "queries", responses.size(), queries.size());

  // ---- checks (untimed)
  PrecisionMeter precision(corpus);
  const NaiveScorer naive(*engine.Correlations(), *engine.Matrix(),
                          engine.Options().mrf);
  double worst_naive = 0.0;
  for (std::size_t i = 0; i < responses.size(); ++i) {
    const corpus::MediaObject& query = corpus.Object(queries[i]);
    const StatusOrResponse& r = responses[i];
    if (ResponseFailed(r)) {
      ++report.failed;
      continue;
    }
    const std::string bad = CheckTopK(r->results, kTopK, corpus.Size());
    report.Check(bad.empty(), "query " + std::to_string(query.id) + ": " + bad);
    precision.Add(query, r->results);
    if (i < kNaiveSample) {
      const core::QueryModel qm =
          engine.Scorer().Compile(query, engine.Options().type_mask);
      for (const SearchResult& res : r->results) {
        const double want =
            naive.Score(qm.cliques, corpus.Object(res.object));
        const double rel = std::abs(want - res.score) /
                           std::max(std::abs(want), std::abs(res.score));
        worst_naive = std::max(worst_naive, rel);
        report.Check(rel <= kNaiveTolerance,
                     "naive score differs for query " +
                         std::to_string(query.id) + " result " +
                         std::to_string(res.object));
      }
    }
  }
  std::printf("# naive scorer worst relative difference %.3g over %zu "
              "queries\n",
              worst_naive, std::min(kNaiveSample, responses.size()));

  AddLatency(&report, latency, seconds);
  precision.Report(&report, kPrecisionFloorShare);
  report.Add("peak_rss_mb", rss, "MB");
  return report;
}

// ------------------------------------------------------- served_readers

struct ReaderRun {
  std::vector<util::StatusOr<serve::ServeResult>> responses;
  std::vector<double> latency_ms;
  /// Whether query i was started (all of them, unless the deadline passed).
  std::vector<std::uint8_t> ran;
  std::size_t started = 0;
  double seconds = 0.0;
};

/// \p readers threads in a closed loop on ServingStore::Search; reader r
/// takes queries r, r + readers, ...
ReaderRun RunReaders(const serve::ServingStore& serving,
                     const corpus::Corpus& corpus,
                     const std::vector<corpus::ObjectId>& queries,
                     std::size_t readers, const RunParams& params) {
  ReaderRun run;
  run.responses.resize(queries.size(),
                       util::Status::Unavailable("not run"));
  run.latency_ms.resize(queries.size(), 0.0);
  run.ran.resize(queries.size(), 0);
  const Clock::time_point start = Clock::now();
  {
    std::vector<std::jthread> threads;
    for (std::size_t r = 0; r < readers; ++r) {
      threads.emplace_back([&, r] {
        for (std::size_t i = r; i < queries.size(); i += readers) {
          if (i != r && params.Expired()) break;
          run.ran[i] = 1;
          const Clock::time_point t = Clock::now();
          run.responses[i] = serving.Search(corpus.Object(queries[i]), kTopK);
          run.latency_ms[i] = MillisSince(t);
        }
      });
    }
  }
  run.seconds = SecondsSince(start);
  run.started = std::size_t(std::count(run.ran.begin(), run.ran.end(), 1));
  return run;
}

/// Latencies of the queries that ran.
std::vector<double> RanLatencies(const ReaderRun& run) {
  std::vector<double> out;
  for (std::size_t i = 0; i < run.ran.size(); ++i)
    if (run.ran[i]) out.push_back(run.latency_ms[i]);
  return out;
}

bool ServeFailed(const util::StatusOr<serve::ServeResult>& r) {
  return !r.ok() || r->response.truncated || !r->response.reranked;
}

std::unique_ptr<serve::ServingStore> MakeServing(const std::string& dir,
                                                 const corpus::Corpus& corpus,
                                                 std::size_t busy_threads) {
  index::FigDbStore store =
      Unwrap(index::FigDbStore::Create(dir, corpus), "FigDbStore::Create");
  return std::make_unique<serve::ServingStore>(std::move(store),
                                               ServingOptions(busy_threads));
}

Report ServedReaders(const RunParams& params) {
  Report report;
  const corpus::Corpus corpus = MakeDefaultCorpus();
  const std::vector<corpus::ObjectId> queries = SampleObjects(
      corpus, SizedWork(params, kServedQueriesPerSecond, 20), params.seed);

  if (params.trace) {
    // The same queries with one reader and with two, each pass on a store
    // of its own, so each meets a cold correlation memo; then the layers,
    // with the two readers running the stages side by side.
    const std::vector<corpus::ObjectId> traced = TracedPrefix(queries);
    double qps[2] = {0.0, 0.0};
    for (std::size_t readers : {std::size_t{1}, kServedReaders}) {
      auto serving = MakeServing(
          FreshDir(params, "traced-" + std::to_string(readers)), corpus,
          readers);
      const ReaderRun run = RunReaders(*serving, corpus, traced, readers,
                                       params);
      qps[readers == 1 ? 0 : 1] = double(run.started) / run.seconds;
      CountPlanned(&report, "queries", run.started, traced.size());
      for (std::size_t i = 0; i < traced.size(); ++i)
        if (run.ran[i] && ServeFailed(run.responses[i])) ++report.failed;
    }
    Note("serve.solo_qps", qps[0], "queries/s");
    Note("serve.reader_scaling", qps[1] / qps[0], "ratio");
    TraceLayers(corpus, queries, kServedReaders, params, &report);
    return report;
  }

  const Clock::time_point setup = Clock::now();
  auto serving =
      MakeServing(FreshDir(params, "served"), corpus, kServedReaders);
  report.Add("setup_s", SecondsSince(setup), "s");

  const ReaderRun run =
      RunReaders(*serving, corpus, queries, kServedReaders, params);
  const double rss = PeakRssMb();
  CountPlanned(&report, "queries", run.started, queries.size());

  // ---- checks: every answer equals sequential TrySearch on the snapshot
  // it was computed against (no writer runs, so that is the current one).
  const serve::ServingStore::SnapshotHandle snap = serving->Acquire();
  std::vector<std::uint8_t> same(queries.size(), 0);
  {
    std::atomic<std::size_t> next{0};
    std::vector<std::jthread> threads;
    for (std::size_t w = 0; w < Cores(); ++w) {
      threads.emplace_back([&] {
        for (;;) {
          const std::size_t i = next.fetch_add(1);
          if (i >= queries.size()) break;
          const auto& r = run.responses[i];
          if (!run.ran[i] || ServeFailed(r)) continue;
          const StatusOrResponse want =
              snap->Engine().TrySearch(corpus.Object(queries[i]), kTopK);
          same[i] = want.ok() && r->epoch == snap->Epoch() &&
                    BitIdentical(r->response.results, want->results);
        }
      });
    }
  }
  PrecisionMeter precision(corpus);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const auto& r = run.responses[i];
    if (!run.ran[i]) continue;
    if (ServeFailed(r)) {
      ++report.failed;
      continue;
    }
    const std::string bad =
        CheckTopK(r->response.results, kTopK, corpus.Size());
    report.Check(bad.empty(), "query " + std::to_string(queries[i]) + ": " +
                                  bad);
    report.Check(same[i] != 0, "served answer differs from sequential "
                               "TrySearch for query " +
                                   std::to_string(queries[i]));
    precision.Add(corpus.Object(queries[i]), r->response.results);
  }

  AddLatency(&report, RanLatencies(run), run.seconds);
  precision.Report(&report, kPrecisionFloorShare);
  report.Add("peak_rss_mb", rss, "MB");
  return report;
}

// ------------------------------------------------------- ingest_publish

bool SameFeatures(const corpus::MediaObject& a, const corpus::MediaObject& b) {
  return std::equal(a.features.begin(), a.features.end(), b.features.begin(),
                    b.features.end(),
                    [](const corpus::FeatureOccurrence& x,
                       const corpus::FeatureOccurrence& y) {
                      return x.feature == y.feature &&
                             x.frequency == y.frequency;
                    });
}

Report IngestPublish(const RunParams& params) {
  Report report;
  const corpus::Corpus corpus = MakeDefaultCorpus();
  // Whole publish rounds, so every run ends on a publish.
  std::size_t ingests = SizedWork(params, kIngestsPerSecond, kPublishEvery);
  ingests = std::min<std::size_t>(ingests, corpus.Size()) / kPublishEvery *
            kPublishEvery;
  const std::vector<corpus::ObjectId> donors =
      SampleObjects(corpus, ingests, params.seed * 2 + 1);
  const std::vector<corpus::ObjectId> queries = SampleObjects(
      corpus, SizedWork(params, kIngestReaderQueriesPerSecond, 10),
      params.seed * 2 + 2);

  const std::string dir = FreshDir(params, "ingest");
  const Clock::time_point setup = Clock::now();
  index::FigDbStore created =
      Unwrap(index::FigDbStore::Create(dir, corpus), "FigDbStore::Create");
  const double create_s = SecondsSince(setup);
  // One writer and one reader busy beside the executor's workers.
  auto serving = std::make_unique<serve::ServingStore>(std::move(created),
                                                       ServingOptions(2));
  const double setup_s = SecondsSince(setup);

  // ---- timed region: a writer and a reader side by side.
  std::vector<corpus::ObjectId> acked(ingests, corpus::kInvalidObject);
  std::vector<double> ingest_ms, publish_ms, wal_bytes;
  std::size_t write_failures = 0, ingested = 0, read = 0;
  double writer_seconds = 0.0, reader_seconds = 0.0;
  std::vector<util::StatusOr<serve::ServeResult>> responses(
      queries.size(), util::Status::Unavailable("not run"));
  std::vector<double> latency;
  {
    std::atomic<bool> go{false};
    std::jthread writer([&] {
      while (!go.load()) std::this_thread::yield();
      const Clock::time_point start = Clock::now();
      for (std::size_t i = 0; i < ingests; ++i) {
        if (i > 0 && i % kPublishEvery == 0 && params.Expired()) break;
        ++ingested;
        corpus::MediaObject copy = corpus.Object(donors[i]);
        copy.id = corpus::kInvalidObject;
        const std::uint64_t wal_before = serving->Store().WalBytes();
        Clock::time_point t = Clock::now();
        const util::StatusOr<corpus::ObjectId> id =
            serving->Ingest(std::move(copy));
        ingest_ms.push_back(MillisSince(t));
        wal_bytes.push_back(double(serving->Store().WalBytes() - wal_before));
        if (id.ok()) {
          acked[i] = *id;
        } else {
          ++write_failures;
        }
        if ((i + 1) % kPublishEvery == 0) {
          t = Clock::now();
          const util::Status published = serving->Publish();
          publish_ms.push_back(MillisSince(t));
          if (!published.ok()) ++write_failures;
        }
      }
      writer_seconds = SecondsSince(start);
    });
    std::jthread reader([&] {
      while (!go.load()) std::this_thread::yield();
      const Clock::time_point start = Clock::now();
      for (; read < queries.size() && (read == 0 || !params.Expired());
           ++read) {
        const Clock::time_point t = Clock::now();
        responses[read] = serving->Search(corpus.Object(queries[read]), kTopK);
        latency.push_back(MillisSince(t));
      }
      reader_seconds = SecondsSince(start);
    });
    go.store(true);
  }
  const double rss = PeakRssMb();
  report.failed += write_failures;
  CountPlanned(&report, "ingests", ingested, ingests);
  CountPlanned(&report, "publishes", publish_ms.size(),
               ingests / kPublishEvery);
  CountPlanned(&report, "reader queries", read, queries.size());

  // ---- checks (untimed)
  // An ingested copy is judged as its donor: a copy of the query object
  // is then the query itself, and not judged.
  std::unordered_map<corpus::ObjectId, corpus::ObjectId> donor_of;
  for (std::size_t i = 0; i < ingests; ++i)
    if (acked[i] != corpus::kInvalidObject) donor_of[acked[i]] = donors[i];
  PrecisionMeter precision(corpus);
  std::uint64_t last_epoch = 0;
  for (std::size_t i = 0; i < read; ++i) {
    const auto& r = responses[i];
    if (ServeFailed(r)) {
      ++report.failed;
      continue;
    }
    report.Check(r->epoch >= last_epoch, "reader saw its epoch go backwards");
    last_epoch = r->epoch;
    const std::string bad =
        CheckTopK(r->response.results, kTopK, corpus.Size() + ingests);
    report.Check(bad.empty(), "query " + std::to_string(queries[i]) + ": " +
                                  bad);
    std::vector<SearchResult> judged = r->response.results;
    for (SearchResult& j : judged) {
      const auto donor = donor_of.find(j.object);
      if (donor != donor_of.end()) j.object = donor->second;
    }
    precision.Add(corpus.Object(queries[i]), judged);
  }
  std::size_t acknowledged = 0;
  for (corpus::ObjectId id : acked)
    acknowledged += id != corpus::kInvalidObject;
  {
    const serve::ServingStore::SnapshotHandle snap = serving->Acquire();
    report.Check(snap->LiveObjects() == corpus.Size() + acknowledged,
                 "published live count is not base + acknowledged ingests");
    report.Check(serving->Store().LiveObjects() ==
                     corpus.Size() + acknowledged,
                 "store live count is not base + acknowledged ingests");
    // An ingested copy has its donor's features, so it must score exactly
    // as its donor does.
    for (std::size_t i = 0; i < ingests; ++i) {
      if (acked[i] == corpus::kInvalidObject) continue;
      const StatusOrResponse ranked = snap->Engine().TryRank(
          corpus.Object(donors[i]), {donors[i], acked[i]}, 2);
      const bool same =
          ranked.ok() && ranked->results.size() == 2 &&
          std::memcmp(&ranked->results[0].score, &ranked->results[1].score,
                      sizeof(double)) == 0;
      report.Check(same, "ingested copy " + std::to_string(acked[i]) +
                             " does not score like its donor " +
                             std::to_string(donors[i]));
    }
  }
  const std::uint64_t epochs = serving->Stats().epochs_published;
  serving.reset();  // closes the WAL
  {
    const index::FigDbStore recovered =
        Unwrap(index::FigDbStore::Recover(dir), "FigDbStore::Recover");
    report.Check(recovered.LiveObjects() == corpus.Size() + acknowledged,
                 "recovered store lost acknowledged ingests");
    for (std::size_t i = 0; i < ingests; ++i) {
      if (acked[i] == corpus::kInvalidObject) continue;
      const bool found =
          acked[i] < recovered.GetCorpus().Size() &&
          SameFeatures(recovered.GetCorpus().Object(acked[i]),
                       corpus.Object(donors[i]));
      report.Check(found, "recovery did not find acknowledged ingest " +
                              std::to_string(acked[i]));
    }
  }

  if (params.trace) {
    Note("index.store_create_s", create_s, "s");
    Note("serve.ingest_ms", Median(ingest_ms), "ms");
    Note("index.wal_bytes_per_object",
         std::accumulate(wal_bytes.begin(), wal_bytes.end(), 0.0) /
             double(std::max<std::size_t>(1, wal_bytes.size())),
         "bytes");
    Note("serve.publish_ms", Median(publish_ms), "ms");
    Note("serve.epochs_published", double(epochs), "count");
    TraceLayers(corpus, queries, 1, params, &report);
    return report;
  }
  report.Add("setup_s", setup_s, "s");
  AddLatency(&report, latency, reader_seconds);
  precision.Report(&report, kPrecisionFloorShare);
  report.Add("peak_rss_mb", rss, "MB");
  Note("publish_p50_ms", Median(publish_ms), "ms");
  Note("ingest_objs_per_s", double(ingested) / writer_seconds, "objects/s");
  return report;
}

// -------------------------------------------------------- decayed_query

/// Merge-time decayed answer vs exhaustive decayed rescoring: same length,
/// scores within kDecayTolerance, ids equal except where neighbouring
/// scores tie within the tolerance (floating-point near-ties may swap).
bool DecayedAgrees(const std::vector<SearchResult>& got,
                   const std::vector<SearchResult>& want) {
  if (got.size() != want.size()) return false;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (!RelClose(got[i].score, want[i].score, kDecayTolerance)) return false;
    if (got[i].object == want[i].object) continue;
    const bool tie_before =
        i > 0 && RelClose(want[i].score, want[i - 1].score, kDecayTolerance);
    const bool tie_after =
        i + 1 < want.size() &&
        RelClose(want[i].score, want[i + 1].score, kDecayTolerance);
    if (!tie_before && !tie_after) return false;
  }
  return true;
}

Report DecayedQuery(const RunParams& params) {
  Report report;
  const corpus::Corpus corpus = MakeDefaultCorpus();
  temporal::SegmentedStore::Options options;
  options.epochs_per_segment = 1;  // one segment per month
  const Clock::time_point setup = Clock::now();
  temporal::SegmentedStore store =
      Unwrap(temporal::SegmentedStore::Create(FreshDir(params, "segments"),
                                              corpus, options),
             "SegmentedStore::Create");
  const double create_s = SecondsSince(setup);

  // Create re-identifies objects in (month, id) order; queries are objects
  // of that union corpus. The first object outside the sample is the
  // warm-up query that ends set-up.
  const corpus::Corpus union_corpus = store.UnionCorpus();
  const std::vector<corpus::ObjectId> queries =
      SampleObjects(union_corpus,
                    SizedWork(params, kDecayedQueriesPerSecond, 20),
                    params.seed);
  std::vector<std::uint8_t> sampled(union_corpus.Size(), 0);
  for (corpus::ObjectId q : queries) sampled[q] = 1;
  const corpus::ObjectId warm_up = corpus::ObjectId(
      std::find(sampled.begin(), sampled.end(), 0) - sampled.begin());
  if (warm_up >= union_corpus.Size())
    throw std::runtime_error("no object left for the warm-up query");
  const std::uint32_t now = store.ClockEpoch();

  // SegmentedStore builds its per-segment engine views lazily, inside the
  // first Search after Create, so the store is servable only after one
  // query: set-up runs through it.
  const Clock::time_point warm_start = Clock::now();
  const auto warm = store.Search(union_corpus.Object(warm_up), kTopK, kDelta,
                                 now);
  const double warm_up_ms = MillisSince(warm_start);
  if (!warm.ok())
    throw std::runtime_error("warm-up query: " + warm.status().ToString());
  const double setup_s = SecondsSince(setup);

  // Traced, the fold's overhead is measured against the undecayed
  // single-stage query (the decayed path has no stage-2 rerank) on an
  // engine over the union corpus, whose memo has seen only the warm-up
  // query, as the store's has.
  const std::vector<corpus::ObjectId> run_queries =
      params.trace ? TracedPrefix(queries) : queries;
  std::unique_ptr<index::FigRetrievalEngine> plain;
  if (params.trace) {
    index::EngineOptions single_stage;
    single_stage.rerank_candidates = 0;
    plain = std::make_unique<index::FigRetrievalEngine>(union_corpus,
                                                        single_stage);
    report.Check(plain->TrySearch(union_corpus.Object(warm_up), kTopK).ok(),
                 "undecayed warm-up query failed");
  }
  std::vector<double> latency, plain_ms, merged;
  std::vector<util::StatusOr<temporal::TemporalSearchResult>> responses;
  responses.reserve(run_queries.size());
  const Clock::time_point start = Clock::now();
  for (corpus::ObjectId q : run_queries) {
    if (!responses.empty() && params.Expired()) break;
    const corpus::MediaObject& query = union_corpus.Object(q);
    Clock::time_point t = Clock::now();
    responses.push_back(store.Search(query, kTopK, kDelta, now));
    latency.push_back(MillisSince(t));
    if (!params.trace) continue;
    t = Clock::now();
    report.Check(plain->TrySearch(query, kTopK).ok(),
                 "undecayed reference query failed");
    plain_ms.push_back(MillisSince(t));
  }
  const double seconds = SecondsSince(start);
  const double rss = PeakRssMb();
  CountPlanned(&report, "queries", responses.size(), run_queries.size());

  // ---- checks (untimed)
  PrecisionMeter precision(union_corpus);
  std::size_t checked = 0;
  for (std::size_t i = 0; i < responses.size(); ++i) {
    const auto& r = responses[i];
    if (!r.ok()) {
      ++report.failed;
      continue;
    }
    merged.push_back(double(r->segments_merged));
    const std::string bad = CheckTopK(r->results, kTopK, union_corpus.Size());
    report.Check(bad.empty(), "query " + std::to_string(queries[i]) + ": " +
                                  bad);
    report.Check(r->segments_merged == store.NumSegments(),
                 "decayed query did not merge every segment");
    precision.Add(union_corpus.Object(queries[i]), r->results);
    if (checked < kExhaustiveSample) {
      ++checked;
      const auto want = store.SearchExhaustiveDecayed(
          union_corpus.Object(queries[i]), kTopK, kDelta, now);
      report.Check(want.ok() && DecayedAgrees(r->results, *want),
                   "decayed query " + std::to_string(queries[i]) +
                       " differs from exhaustive decayed rescoring");
    }
  }
  std::printf("# %zu segments, delta %.2f, now epoch %u; Create %.3f s, "
              "warm-up query (builds the views) %.1f ms\n",
              store.NumSegments(), kDelta, now, create_s, warm_up_ms);

  if (params.trace) {
    Note("temporal.store_create_s", create_s, "s");
    Note("temporal.segments_merged", Median(merged), "count");
    Note("temporal.fold_overhead_ms", Median(latency) - Median(plain_ms),
         "ms");
    plain.reset();
    TraceLayers(union_corpus, queries, 1, params, &report);
    return report;
  }
  report.Add("setup_s", setup_s, "s");
  AddLatency(&report, latency, seconds);
  precision.Report(&report, kDecayedPrecisionFloorShare);
  report.Add("peak_rss_mb", rss, "MB");
  return report;
}

}  // namespace

Report RunWorkload(const RunParams& params) {
  std::filesystem::create_directories(params.dir);
  if (params.workload == "object_query") return ObjectQuery(params);
  if (params.workload == "served_readers") return ServedReaders(params);
  if (params.workload == "ingest_publish") return IngestPublish(params);
  if (params.workload == "decayed_query") return DecayedQuery(params);
  throw std::invalid_argument("unknown workload '" + params.workload + "'");
}

}  // namespace figdb::perfbench
