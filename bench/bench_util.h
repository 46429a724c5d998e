// Shared helpers for the experiment drivers in bench/: dataset + question
// setup for the paper's workloads, environment-variable knobs, table
// printing, and machine-readable (JSON) benchmark output.
//
// Every bench binary prints the rows/series of one paper table or figure.
// Defaults are sized to finish in seconds on a laptop; set CAJADE_FULL=1
// for sweeps closer to the paper's full parameter ranges, CAJADE_SCALE to
// override the dataset scale factor, and CAJADE_EDGES to override
// lambda_#edges.
//
// Pass `--json <path>` to a driver that supports it (bench_micro) to also
// write its results as JSON — this is what produces the committed
// BENCH_join.json / BENCH_mining.json perf-trajectory files.

#ifndef CAJADE_BENCH_BENCH_UTIL_H_
#define CAJADE_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "src/core/explainer.h"
#include "src/datasets/mimic.h"
#include "src/datasets/nba.h"

namespace cajade {
namespace bench {

inline bool FullRuns() {
  const char* v = std::getenv("CAJADE_FULL");
  return v != nullptr && std::string(v) == "1";
}

inline double EnvScale(double fallback) {
  const char* v = std::getenv("CAJADE_SCALE");
  return v != nullptr ? std::atof(v) : fallback;
}

inline int EnvEdges(int fallback) {
  const char* v = std::getenv("CAJADE_EDGES");
  return v != nullptr ? std::atoi(v) : fallback;
}

/// Strips a `--json <path>` flag from argv and returns the path ("" when
/// absent), so drivers can forward the remaining flags to their own parsing.
inline std::string ExtractJsonFlag(int* argc, char** argv) {
  for (int i = 1; i < *argc; ++i) {
    if (std::string(argv[i]) == "--json" && i + 1 < *argc) {
      std::string path = argv[i + 1];
      for (int j = i; j + 2 < *argc; ++j) argv[j] = argv[j + 2];
      *argc -= 2;
      return path;
    }
  }
  return "";
}

/// \brief Collects benchmark rows and writes them as a small JSON document:
/// {"benchmarks": [{"name", "real_time_ns", "iterations",
/// "items_per_second", "counters": {...}}]}. Future PRs diff these files to
/// track the perf trajectory.
class BenchJsonWriter {
 public:
  void Add(const std::string& name, double real_time_ns, int64_t iterations,
           double items_per_second,
           const std::vector<std::pair<std::string, double>>& counters = {}) {
    rows_.push_back({name, real_time_ns, iterations, items_per_second, counters});
  }

  bool WriteTo(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\n  \"benchmarks\": [\n");
    for (size_t i = 0; i < rows_.size(); ++i) {
      const Row& r = rows_[i];
      std::fprintf(f,
                   "    {\"name\": \"%s\", \"real_time_ns\": %.1f, "
                   "\"iterations\": %lld, \"items_per_second\": %.1f",
                   r.name.c_str(), r.real_time_ns,
                   static_cast<long long>(r.iterations), r.items_per_second);
      if (!r.counters.empty()) {
        std::fprintf(f, ", \"counters\": {");
        for (size_t c = 0; c < r.counters.size(); ++c) {
          std::fprintf(f, "\"%s\": %.3f%s", r.counters[c].first.c_str(),
                       r.counters[c].second,
                       c + 1 < r.counters.size() ? ", " : "");
        }
        std::fprintf(f, "}");
      }
      std::fprintf(f, "}%s\n", i + 1 < rows_.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    return true;
  }

 private:
  struct Row {
    std::string name;
    double real_time_ns;
    int64_t iterations;
    double items_per_second;
    std::vector<std::pair<std::string, double>> counters;
  };
  std::vector<Row> rows_;
};

/// The paper's user questions (Tables 4 and 6), 1-indexed per workload.
inline UserQuestion NbaQuestion(int index) {
  switch (index) {
    case 1:  // Draymond Green: 2015-16 vs 2016-17
      return UserQuestion::TwoPoint(Where({{"season_name", Value("2015-16")}}),
                                    Where({{"season_name", Value("2016-17")}}));
    case 2:  // GSW assists: 2013-14 vs 2014-15
      return UserQuestion::TwoPoint(Where({{"season_name", Value("2013-14")}}),
                                    Where({{"season_name", Value("2014-15")}}));
    case 3:  // LeBron: 2009-10 vs 2010-11
      return UserQuestion::TwoPoint(Where({{"season_name", Value("2009-10")}}),
                                    Where({{"season_name", Value("2010-11")}}));
    case 4:  // GSW wins: 2012-13 vs 2016-17
      return UserQuestion::TwoPoint(Where({{"season_name", Value("2012-13")}}),
                                    Where({{"season_name", Value("2016-17")}}));
    case 5:  // Jimmy Butler: 2013-14 vs 2014-15
    default:
      return UserQuestion::TwoPoint(Where({{"season_name", Value("2013-14")}}),
                                    Where({{"season_name", Value("2014-15")}}));
  }
}

inline UserQuestion MimicQuestion(int index) {
  switch (index) {
    case 1:  // death rate: chapter 2 vs chapter 13
      return UserQuestion::TwoPoint(Where({{"chapter", Value("2")}}),
                                    Where({{"chapter", Value("13")}}));
    case 2:  // death rate: Medicare vs Medicaid
      return UserQuestion::TwoPoint(Where({{"insurance", Value("Medicare")}}),
                                    Where({{"insurance", Value("Medicaid")}}));
    case 3:  // ICU stays: 0-1 day vs > 8 days
      return UserQuestion::TwoPoint(Where({{"los_group", Value("0-1")}}),
                                    Where({{"los_group", Value("x>8")}}));
    case 4:  // death rate: Medicare vs Private
      return UserQuestion::TwoPoint(Where({{"insurance", Value("Medicare")}}),
                                    Where({{"insurance", Value("Private")}}));
    case 5:  // procedures: Hispanic vs Asian
    default:
      return UserQuestion::TwoPoint(Where({{"ethnicity", Value("Hispanic")}}),
                                    Where({{"ethnicity", Value("Asian")}}));
  }
}

/// Builds a path-shaped join graph PT - rels[0] - rels[1] - ... using the
/// first schema-graph condition between consecutive relations.
/// `pt_relation` names the query relation the first edge binds to.
inline Result<JoinGraph> BuildPathJoinGraph(const SchemaGraph& sg,
                                            const std::string& pt_relation,
                                            const std::vector<std::string>& rels) {
  JoinGraph g = JoinGraph::PtOnly();
  int prev_node = 0;
  std::string prev_rel = pt_relation;
  for (const auto& rel : rels) {
    int found_edge = -1;
    bool prev_is_left = false;
    for (size_t i = 0; i < sg.edges().size(); ++i) {
      const SchemaEdge& e = sg.edges()[i];
      if (e.rel_a == prev_rel && e.rel_b == rel) {
        found_edge = static_cast<int>(i);
        prev_is_left = true;
        break;
      }
      if (e.rel_b == prev_rel && e.rel_a == rel) {
        found_edge = static_cast<int>(i);
        prev_is_left = false;
        break;
      }
    }
    if (found_edge < 0) {
      return Status::NotFound("no schema edge between " + prev_rel + " and " + rel);
    }
    int node = g.AddNode(rel);
    JoinGraphEdge edge;
    edge.node_a = prev_node;
    edge.node_b = node;
    edge.schema_edge = found_edge;
    edge.condition = 0;
    edge.a_plays_left = prev_is_left;
    if (prev_node == 0) edge.pt_relation = pt_relation;
    g.AddEdge(edge);
    prev_node = node;
    prev_rel = rel;
  }
  return g;
}

/// A breakdown matrix: one column per configuration, one row per step,
/// then the sum of every step the profiler recorded and the measured wall
/// time of the same calls (`wall_seconds`, one per column). Under
/// num_threads > 1 the steps hold summed worker time and can exceed wall.
inline void PrintBreakdownMatrix(const std::vector<std::string>& headers,
                                 const std::vector<StepProfiler>& profiles,
                                 const std::vector<double>& wall_seconds) {
  static const char* kRows[] = {"Feature Selection", "Gen. Pat. Cand.",
                                "F-score Calc.",     "Materialize APTs",
                                "Refine Patterns",   "Rank Top-k",
                                "Sampling for F1",   "JG Enum.",
                                "Compute Provenance"};
  std::printf("%-20s", "Step");
  for (const auto& h : headers) std::printf(" %12s", h.c_str());
  std::printf("\n");
  for (const char* row : kRows) {
    std::printf("%-20s", row);
    for (const auto& p : profiles) std::printf(" %12.2f", p.Get(row));
    std::printf("\n");
  }
  std::printf("%-20s", "sum of steps");
  for (const auto& p : profiles) std::printf(" %12.2f", p.Total());
  std::printf("\n");
  std::printf("%-20s", "wall time");
  for (double s : wall_seconds) std::printf(" %12.2f", s);
  std::printf("\n");
}

}  // namespace bench
}  // namespace cajade

#endif  // CAJADE_BENCH_BENCH_UTIL_H_
