// pb_driver — the benchmark's in-process driver (see perfbench/README.md).
//
// It re-runs a workload's cells through the library's public entry points
// only: estimate_throughputs, make_scheme, StragglerModel::draw,
// engine::run_round over a FixedLatencyLink, a StreamingDecoder replay of
// each round's arrivals, engine::run_churn_scenario, and for training the
// BSP loop's own steps (gradients, encode, combine, SGD, loss). Nothing
// inside the library is instrumented: a traced pass records one span per
// call from out here, in memory, and writes them out at the end.
//
//   pb_driver --mode setup --grid SPEC
//   pb_driver --mode setup --train 1 --seed N --tasks K
//   pb_driver --mode sweep --grid SPEC --csv OUT [--spans OUT]
//   pb_driver --mode train --seed N --tasks K --iters I --seconds S
//             [--spans OUT]
//   pb_driver --mode reference [--threads T]
//
// Every mode prints one JSON object on stdout. `sweep` without --spans is
// the correctness replay: it writes the cells' statistics as a CSV in
// hgc_sweep's format and checks every round's decode replay bit for bit.
// With --spans it runs the cells twice — once with spans off (the plain
// wall time) and once traced — and adds the per-layer metrics.
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/straggler.hpp"
#include "core/coding_scheme.hpp"
#include "core/decoder.hpp"
#include "core/scheme_factory.hpp"
#include "engine/link.hpp"
#include "engine/round.hpp"
#include "engine/scenario.hpp"
#include "exec/figures.hpp"
#include "exec/result_table.hpp"
#include "exec/sweep.hpp"
#include "linalg/matrix.hpp"
#include "ml/dataset.hpp"
#include "ml/gradient.hpp"
#include "ml/model.hpp"
#include "ml/sgd.hpp"
#include "runtime/sim_trainer.hpp"
#include "runtime/ssp_trainer.hpp"
#include "sim/experiment.hpp"
#include "util/args.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace {

using namespace hgc;

// ---- Spans ----------------------------------------------------------------

/// What a span times. kReplay (and its kDecode child) is measurement work the
/// sweep itself never does: it is subtracted from the traced wall time before
/// coverage and overhead are computed.
enum class Layer : std::uint8_t {
  kCell,
  kEstimate,
  kConstruct,
  kDraw,
  kRound,
  kReplay,
  kDecode,
  kChurn,
  kTrainSetup,
  kGradient,
  kEncode,
  kCombine,
  kSgd,
  kLoss,
  kSsp,
  kCount,
};

constexpr std::array<const char*, static_cast<std::size_t>(Layer::kCount)>
    kLayerNames = {"cell",        "cluster.estimate", "core.construct",
                   "cluster.draw", "engine.round",    "replay",
                   "core.decode", "engine.churn",     "ml.setup",
                   "ml.gradient", "core.encode",      "core.combine",
                   "ml.sgd",      "ml.loss",          "runtime.ssp"};

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

struct Span {
  Layer layer;
  std::int32_t parent;  ///< index of the enclosing span; -1 = root
  std::uint32_t cell;   ///< sweep cell index, or training series index
  std::uint32_t round;  ///< round (iteration) within the cell; 0 = none
  std::int64_t start_ns;
  std::int64_t end_ns;

  double seconds() const {
    return static_cast<double>(end_ns - start_ns) * 1e-9;
  }
};

/// In-memory span recorder. When off, opening a span reads no clock and
/// records nothing, so an untraced pass runs the bare calls.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  const std::vector<Span>& spans() const { return spans_; }

  /// RAII span: opened at construction, closed at destruction.
  class Scope {
   public:
    Scope(SpanLog& log, Layer layer, std::int32_t parent, std::uint32_t cell,
          std::uint32_t round)
        : log_(log), index_(log.open(layer, parent, cell, round)) {}
    ~Scope() { log_.close(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    std::int32_t index() const { return index_; }

   private:
    SpanLog& log_;
    std::int32_t index_;
  };

  void write_csv(const std::string& path) const {
    std::ofstream out(path);
    if (!out) throw std::invalid_argument("cannot open for write: " + path);
    const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
    out << "name,start_ns,end_ns,parent,cell,round\n";
    for (const Span& s : spans_)
      out << kLayerNames[static_cast<std::size_t>(s.layer)] << ','
          << s.start_ns - origin << ',' << s.end_ns - origin << ','
          << s.parent << ',' << s.cell << ',' << s.round << '\n';
  }

 private:
  std::int32_t open(Layer layer, std::int32_t parent, std::uint32_t cell,
                    std::uint32_t round) {
    if (!enabled_) return -1;
    spans_.push_back({layer, parent, cell, round, now_ns(), 0});
    return static_cast<std::int32_t>(spans_.size() - 1);
  }
  void close(std::int32_t index) {
    if (index >= 0) spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
  }

  bool enabled_;
  std::vector<Span> spans_;
};

// ---- Reference kernel -----------------------------------------------------

/// Seconds the benchmark's own reference kernel takes right now: a fixed
/// 128x256 matrix-vector product, throughput bound like the program's
/// kernels, repeated `reps` times and reported per 2000 repetitions. It
/// never calls the library, so a change to the program cannot move it; only
/// the machine's momentary speed does. With `threads` > 1 every thread runs
/// its own copy and the mean thread time is returned.
double reference_seconds(std::size_t threads = 1, int reps = 2000) {
  // Each run returns its seconds and leaves its last output in `sink`, so
  // the loop cannot be optimized away.
  const auto kernel = [reps](double& sink) {
    constexpr std::size_t kRows = 128;
    constexpr std::size_t kCols = 256;
    std::vector<double> a(kRows * kCols, 0.5);
    std::vector<double> x(kCols, 1.0);
    std::vector<double> y(kRows, 0.0);
    const std::int64_t start = now_ns();
    for (int rep = 0; rep < reps; ++rep) {
      for (std::size_t i = 0; i < kRows; ++i) {
        const double* row = &a[i * kCols];
        double acc0 = 0.0, acc1 = 0.0, acc2 = 0.0, acc3 = 0.0;
        for (std::size_t j = 0; j < kCols; j += 4) {
          acc0 += row[j] * x[j];
          acc1 += row[j + 1] * x[j + 1];
          acc2 += row[j + 2] * x[j + 2];
          acc3 += row[j + 3] * x[j + 3];
        }
        y[i] = (acc0 + acc1) + (acc2 + acc3);
      }
      for (std::size_t j = 0; j < kCols; ++j)
        x[j] = 1.0 + 1e-12 * y[j % kRows];
    }
    sink = y[0];
    return seconds_since(start);
  };
  std::vector<double> times(std::max<std::size_t>(threads, 1));
  std::vector<double> sinks(times.size());
  if (times.size() == 1) {
    times[0] = kernel(sinks[0]);
  } else {
    std::vector<std::thread> pool;
    for (std::size_t t = 0; t < times.size(); ++t)
      pool.emplace_back(
          [&times, &sinks, &kernel, t] { times[t] = kernel(sinks[t]); });
    for (std::thread& thread : pool) thread.join();
  }
  double sum = 0.0;
  for (std::size_t t = 0; t < times.size(); ++t) {
    if (!(sinks[t] > 0.0)) throw std::logic_error("reference kernel diverged");
    sum += times[t];
  }
  return sum / static_cast<double>(times.size()) * 2000.0 / reps;
}

// ---- Per-kind counters ----------------------------------------------------

constexpr std::array<SchemeKind, 4> kKinds = {
    SchemeKind::kNaive, SchemeKind::kCyclic, SchemeKind::kHeterAware,
    SchemeKind::kGroupBased};
constexpr std::array<const char*, 4> kKindLabels = {"naive", "cyclic",
                                                    "heter", "group"};

std::size_t kind_slot(SchemeKind kind) {
  for (std::size_t i = 0; i < kKinds.size(); ++i)
    if (kKinds[i] == kind) return i;
  throw std::invalid_argument("the benchmark measures naive, cyclic, heter "
                              "and group only, not " + to_string(kind));
}

struct KindCounters {
  std::uint64_t rounds = 0;
  std::uint64_t events = 0;
  std::uint64_t polls = 0;    ///< arrivals fed to the replay decoder
  std::uint64_t decodes = 0;  ///< replayed rounds that decoded
  std::uint64_t reinstantiations = 0;
};

/// One run over a workload's cells: its spans, counters and checks.
struct Pass {
  explicit Pass(bool traced, bool replay) : log(traced), replay(replay) {}

  SpanLog log;
  bool replay;  ///< replay and check every static round's decode
  std::array<KindCounters, 4> kinds{};
  std::uint64_t encode_nnz = 0;
  std::size_t replay_mismatches = 0;
  std::vector<std::size_t> cell_kind;  ///< cell id -> kind slot
};

bool same_bits(const Vector& a, const Vector& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// Feed the round's arrivals to a fresh StreamingDecoder in the order the
/// engine delivers them — compute + delay + latency, ties broken by worker
/// id — and check that it decodes after the same number of results with the
/// same coefficients, bit for bit.
bool replay_decode(const CodingScheme& scheme, const Cluster& cluster,
                   const IterationConditions& conditions, double latency,
                   const engine::RoundOutcome& outcome, Pass& pass,
                   std::int32_t parent, std::uint32_t cell,
                   std::uint32_t round, KindCounters& counters) {
  SpanLog::Scope replay(pass.log, Layer::kReplay, parent, cell, round);
  std::vector<std::pair<double, WorkerId>> arrivals;
  arrivals.reserve(scheme.num_workers());
  for (WorkerId w = 0; w < scheme.num_workers(); ++w) {
    if (conditions.faulted[w] || scheme.load(w) == 0) continue;
    const double rate =
        cluster.worker(w).throughput * conditions.speed_factor[w];
    const double share = static_cast<double>(scheme.load(w)) /
                         static_cast<double>(scheme.num_partitions());
    arrivals.emplace_back(share / rate + conditions.delay[w] + latency, w);
  }
  std::sort(arrivals.begin(), arrivals.end());

  StreamingDecoder decoder(scheme);
  bool decoded = false;
  {
    SpanLog::Scope decode(pass.log, Layer::kDecode, replay.index(), cell,
                          round);
    for (const auto& arrival : arrivals) {
      ++counters.polls;
      if (decoder.add_result(arrival.second, Vector{})) {
        decoded = true;
        break;
      }
    }
  }
  if (decoded) ++counters.decodes;
  if (decoded != outcome.decoded) return false;
  return !decoded ||
         (decoder.results_received() == outcome.results_used &&
          same_bits(decoder.coefficients(), *outcome.coefficients));
}

// ---- Sweep cells ----------------------------------------------------------

/// A static cell as the sweep's experiment harness runs it (seed-derived
/// estimation, construction and condition streams; no caches, which are
/// result-transparent).
void run_static_cell(const exec::Cell& cell, Pass& pass, std::int32_t parent,
                     exec::ResultRow& row) {
  const Cluster& cluster = *cell.cluster;
  const ExperimentConfig& config = cell.experiment;
  const auto id = static_cast<std::uint32_t>(cell.index);
  KindCounters& counters = pass.kinds[kind_slot(cell.scheme)];
  const std::size_t k =
      config.k == 0 ? 2 * cluster.size() : config.k;

  Rng estimation_rng(config.seed + 0x9e37);
  Rng condition_rng(config.seed + 0x79b9);
  Throughputs estimated;
  {
    SpanLog::Scope span(pass.log, Layer::kEstimate, parent, id, 0);
    estimated = estimate_throughputs(cluster.throughputs(),
                                     config.estimation_sigma, estimation_rng);
  }
  std::unique_ptr<CodingScheme> scheme;
  {
    SpanLog::Scope span(pass.log, Layer::kConstruct, parent, id, 0);
    Rng construction_rng(config.seed);
    scheme = make_scheme(cell.scheme, estimated, k, config.s,
                         construction_rng);
  }

  engine::FixedLatencyLink link(config.sim.comm_latency);
  RunningStats time;
  RunningStats usage;
  std::size_t failures = 0;
  for (std::size_t iter = 0; iter < config.iterations; ++iter) {
    const auto round = static_cast<std::uint32_t>(iter + 1);
    IterationConditions conditions;
    {
      SpanLog::Scope span(pass.log, Layer::kDraw, parent, id, round);
      conditions = config.model.draw(cluster.size(), condition_rng);
    }
    engine::RoundOutcome outcome;
    {
      SpanLog::Scope span(pass.log, Layer::kRound, parent, id, round);
      outcome = engine::run_round(*scheme, cluster, conditions, link);
    }
    ++counters.rounds;
    counters.events += outcome.events_executed;
    if (pass.replay &&
        !replay_decode(*scheme, cluster, conditions, config.sim.comm_latency,
                       outcome, pass, parent, id, round, counters))
      ++pass.replay_mismatches;
    if (!outcome.decoded) {
      ++failures;
      continue;
    }
    time.add(outcome.time);
    usage.add(outcome.resource_usage);
  }
  row.stats.emplace_back("time", time);
  row.stats.emplace_back("usage", usage);
  row.metrics.emplace_back("failures", static_cast<double>(failures));
  if (failures > 0) row.note = "fail";
}

/// A churn cell: run_churn_scenario is one opaque span from out here.
void run_churn_cell(const exec::Cell& cell,
                    const exec::ScenarioSpec& scenario, Pass& pass,
                    std::int32_t parent, exec::ResultRow& row) {
  engine::ChurnConfig config;
  config.iterations = cell.experiment.iterations;
  config.s = cell.experiment.s;
  config.k = cell.experiment.k;
  config.model = cell.experiment.model;
  config.sim = cell.experiment.sim;
  config.seed = cell.experiment.seed;
  config.events = scenario.churn_events;
  engine::ChurnResult churn;
  {
    SpanLog::Scope span(pass.log, Layer::kChurn, parent,
                        static_cast<std::uint32_t>(cell.index), 0);
    churn = engine::run_churn_scenario(cell.scheme, *cell.cluster, config);
  }
  pass.kinds[kind_slot(cell.scheme)].reinstantiations +=
      churn.reinstantiations;
  row.stats.emplace_back("time", churn.iteration_time);
  row.quantiles.emplace_back("latency", churn.latency);
  row.metrics.emplace_back("failures", static_cast<double>(churn.failures));
  row.metrics.emplace_back("reinstantiations",
                           static_cast<double>(churn.reinstantiations));
  row.metrics.emplace_back("total_time", churn.total_time);
}

exec::ResultTable run_cells(const exec::SweepGrid& grid,
                            const std::vector<exec::Cell>& cells,
                            Pass& pass) {
  exec::ResultTable table;
  for (const exec::Cell& cell : cells) {
    pass.cell_kind.push_back(kind_slot(cell.scheme));
    SpanLog::Scope span(pass.log, Layer::kCell, -1,
                        static_cast<std::uint32_t>(cell.index), 0);
    const exec::ScenarioSpec& scenario = grid.scenarios[cell.scenario_index];
    exec::ResultRow row;
    row.axes = cell.axes;
    switch (scenario.kind) {
      case exec::ScenarioKind::kStatic:
        run_static_cell(cell, pass, span.index(), row);
        break;
      case exec::ScenarioKind::kChurn:
        run_churn_cell(cell, scenario, pass, span.index(), row);
        break;
      default:
        throw std::invalid_argument(
            "the benchmark drives static and churn cells only");
    }
    table.add_row(std::move(row));
  }
  return table;
}

std::string csv_of(const exec::ResultTable& table) {
  std::ostringstream out;
  table.to_csv(out);
  return out.str();
}

// ---- Per-layer metrics ----------------------------------------------------

/// Percentile of sorted samples by linear interpolation.
double percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double pos = q / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] +
         (pos - static_cast<double>(lo)) * (sorted[hi] - sorted[lo]);
}

/// The per-layer metrics of a traced pass. `plain_wall` is the same work's
/// wall time with spans off; the replay spans are measurement work, so the
/// traced wall time they are compared against excludes them.
std::map<std::string, double> layer_metrics(const Pass& pass,
                                            double traced_wall,
                                            double plain_wall) {
  const std::vector<Span>& spans = pass.log.spans();
  std::array<double, static_cast<std::size_t>(Layer::kCount)> total{};
  std::array<std::array<double, static_cast<std::size_t>(Layer::kCount)>, 4>
      by_kind{};
  std::array<std::uint64_t, 4> construct_calls{};
  std::array<std::vector<double>, 4> round_ms;
  double attributed = 0.0;
  for (const Span& s : spans) {
    const auto layer = static_cast<std::size_t>(s.layer);
    const std::size_t kind = pass.cell_kind.at(s.cell);
    total[layer] += s.seconds();
    by_kind[kind][layer] += s.seconds();
    if (s.layer == Layer::kConstruct) ++construct_calls[kind];
    if (s.layer == Layer::kRound) round_ms[kind].push_back(s.seconds() * 1e3);
    if (s.parent >= 0 &&
        spans[static_cast<std::size_t>(s.parent)].layer == Layer::kCell &&
        s.layer != Layer::kReplay)
      attributed += s.seconds();
  }
  const auto at = [](const auto& sums, Layer layer) {
    return sums[static_cast<std::size_t>(layer)];
  };

  std::map<std::string, double> out;
  for (std::size_t i = 0; i < kKinds.size(); ++i) {
    const std::string kind = kKindLabels[i];
    const KindCounters& c = pass.kinds[i];
    const double round_s = at(by_kind[i], Layer::kRound);
    const double decode_s = at(by_kind[i], Layer::kDecode);
    out["core.construct_s." + kind] = at(by_kind[i], Layer::kConstruct);
    out["core.construct_calls." + kind] =
        static_cast<double>(construct_calls[i]);
    out["engine.round_s." + kind] = round_s;
    out["engine.self_s." + kind] = round_s - decode_s;
    out["engine.events_per_round." + kind] =
        c.rounds ? static_cast<double>(c.events) / static_cast<double>(c.rounds)
                 : 0.0;
    std::vector<double>& samples = round_ms[i];
    std::sort(samples.begin(), samples.end());
    // The tail is the highest of these percentiles with at least ten
    // samples beyond it (the median when there are fewer than 20 rounds).
    double tail_pct = 50.0;
    for (double q : {99.9, 99.0, 90.0}) {
      if (static_cast<double>(samples.size()) * (1.0 - q / 100.0) >= 10.0) {
        tail_pct = q;
        break;
      }
    }
    out["engine.round_ms.p50." + kind] = percentile(samples, 50.0);
    out["engine.round_ms.tail." + kind] = percentile(samples, tail_pct);
    out["engine.round_ms.tail_pct." + kind] = tail_pct;
    out["engine.round_ms.samples." + kind] =
        static_cast<double>(samples.size());
    out["core.decode_s." + kind] = decode_s;
    out["core.decode_polls." + kind] = static_cast<double>(c.polls);
    out["core.decode_useful_ratio." + kind] =
        c.polls ? static_cast<double>(c.decodes) / static_cast<double>(c.polls)
                : 0.0;
    out["engine.churn_s." + kind] = at(by_kind[i], Layer::kChurn);
    out["engine.reinstantiations." + kind] =
        static_cast<double>(c.reinstantiations);
  }
  out["cluster.draw_s"] = at(total, Layer::kDraw);
  out["cluster.estimate_s"] = at(total, Layer::kEstimate);
  out["core.encode_s"] = at(total, Layer::kEncode);
  out["core.encode_nnz"] = static_cast<double>(pass.encode_nnz);
  out["core.combine_s"] = at(total, Layer::kCombine);
  out["ml.gradient_s"] = at(total, Layer::kGradient);
  out["ml.loss_s"] = at(total, Layer::kLoss);
  out["ml.sgd_s"] = at(total, Layer::kSgd);
  out["ml.setup_s"] = at(total, Layer::kTrainSetup);
  out["runtime.ssp_s"] = at(total, Layer::kSsp);
  const double wall = traced_wall - at(total, Layer::kReplay);
  out["trace.unattributed_s"] = wall - attributed;
  out["trace.coverage"] = wall > 0.0 ? attributed / wall : 0.0;
  out["trace.overhead"] = plain_wall > 0.0 ? wall / plain_wall - 1.0 : 0.0;
  out["trace.spans"] = static_cast<double>(spans.size());
  return out;
}

// ---- JSON output ----------------------------------------------------------

std::string num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_object(const std::map<std::string, double>& values) {
  std::string out = "{";
  for (const auto& [key, value] : values) {
    if (out.size() > 1) out += ", ";
    out += "\"" + key + "\": " + num(value);
  }
  return out + "}";
}

std::string json_array(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i)
    out += (i ? ", " : "") + num(values[i]);
  return out + "]";
}

std::string json_trace(const LossTrace& trace) {
  std::string out = "{\"label\": \"" + trace.label + "\", \"points\": [";
  for (std::size_t i = 0; i < trace.points.size(); ++i) {
    const TracePoint& p = trace.points[i];
    out += (i ? ", [" : "[") + std::to_string(p.iteration) + ", " +
           num(p.time) + ", " + num(p.loss) + "]";
  }
  return out + "]}";
}

/// Seconds of set-up passes per run: about a dozen passes of the slowest
/// workload, so that their median rides out a slow second of the machine.
constexpr double kSetupSeconds = 5.0;

/// Run `pass_fn` (returning its own seconds) at least five times and until
/// kSetupSeconds have gone by, with a reference-kernel sample before the
/// first pass and after every pass (see reference_seconds).
template <typename PassFn>
int run_setup(PassFn pass_fn) {
  std::vector<double> times;
  std::vector<double> refs = {reference_seconds()};
  std::size_t builds = 0;
  const std::int64_t start = now_ns();
  while (times.size() < 5 ||
         (seconds_since(start) < kSetupSeconds && times.size() < 1000)) {
    times.push_back(pass_fn(builds));
    refs.push_back(reference_seconds());
  }
  std::cout << "{\"pass_s\": " << json_array(times)
            << ", \"ref_s\": " << json_array(refs)
            << ", \"builds\": " << builds << "}\n";
  return 0;
}

// ---- Sweep modes ----------------------------------------------------------

/// One set-up pass of a sweep workload: generate the cells from the spec and
/// build each distinct scheme they use.
double sweep_setup_pass(const std::string& spec, std::size_t& builds) {
  const std::int64_t start = now_ns();
  const exec::SweepGrid grid = exec::parse_grid_spec(spec);
  const std::vector<exec::Cell> cells = exec::expand(grid);
  using Key = std::tuple<const Cluster*, int, std::size_t, std::size_t, double,
                         std::uint64_t>;
  std::set<Key> seen;
  std::vector<std::unique_ptr<CodingScheme>> schemes;
  for (const exec::Cell& cell : cells) {
    const ExperimentConfig& config = cell.experiment;
    const std::size_t k = config.k == 0 ? 2 * cell.cluster->size() : config.k;
    if (!seen.insert({cell.cluster, static_cast<int>(cell.scheme), config.s,
                      k, config.estimation_sigma, config.seed})
             .second)
      continue;
    Rng estimation_rng(config.seed + 0x9e37);
    const Throughputs estimated = estimate_throughputs(
        cell.cluster->throughputs(), config.estimation_sigma, estimation_rng);
    Rng construction_rng(config.seed);
    schemes.push_back(
        make_scheme(cell.scheme, estimated, k, config.s, construction_rng));
  }
  const double seconds = seconds_since(start);
  builds = schemes.size();
  return seconds;
}

int sweep_mode(const std::string& spec, const std::string& csv_path,
               const std::string& spans_path) {
  const exec::SweepGrid grid = exec::parse_grid_spec(spec);
  const std::vector<exec::Cell> cells = exec::expand(grid);
  const bool traced = !spans_path.empty();

  std::map<std::string, double> layers;
  double plain_wall = 0.0;
  bool passes_agree = true;
  std::string plain_csv;
  if (traced) {
    Pass plain(false, false);
    const std::int64_t start = now_ns();
    const exec::ResultTable table = run_cells(grid, cells, plain);
    plain_wall = seconds_since(start);
    plain_csv = csv_of(table);
  }
  Pass pass(traced, true);
  const std::int64_t start = now_ns();
  const exec::ResultTable table = run_cells(grid, cells, pass);
  const double wall = seconds_since(start);
  const std::string csv = csv_of(table);
  if (traced) {
    passes_agree = csv == plain_csv;
    layers = layer_metrics(pass, wall, plain_wall);
    pass.log.write_csv(spans_path);
  }
  std::ofstream out(csv_path);
  if (!out) throw std::invalid_argument("cannot open for write: " + csv_path);
  out << csv;

  std::uint64_t rounds = 0;
  for (const KindCounters& c : pass.kinds) rounds += c.rounds;
  std::cout << "{\"cells\": " << cells.size() << ", \"static_rounds\": "
            << rounds << ", \"replay_mismatches\": " << pass.replay_mismatches
            << ", \"passes_agree\": " << (passes_agree ? "true" : "false")
            << ", \"wall_s\": " << num(wall)
            << ", \"plain_wall_s\": " << num(plain_wall)
            << ", \"layers\": " << json_object(layers) << "}\n";
  return 0;
}

// ---- Training (the fig4 task) ---------------------------------------------

/// The fig4 task: softmax regression on a synthetic CIFAR-like set, coded
/// BSP under every paper scheme plus SSP, on Cluster-C with s = 1, one
/// straggler delayed 2x the ideal iteration time and 5% fluctuation.
struct TrainTask {
  TrainTask(std::uint64_t seed, std::size_t iters, std::size_t samples)
      : cluster(cluster_c()), data(make_data(seed, samples)),
        model(data.dim(), data.num_classes),
        k(exact_partition_count(cluster, kS)) {
    StragglerModel stragglers;
    stragglers.num_stragglers = 1;
    stragglers.delay_seconds = 2.0 * static_cast<double>(kS + 1) /
                               cluster.total_throughput();
    stragglers.fluctuation_sigma = 0.05;
    const std::size_t record_every = std::max<std::size_t>(1, iters / 8);
    bsp.iterations = iters;
    bsp.sgd.learning_rate = 0.4;
    bsp.straggler_model = stragglers;
    bsp.seed = seed;
    bsp.record_every = record_every;
    ssp.iterations = iters;
    ssp.learning_rate = 0.4;
    ssp.staleness = 3;
    ssp.straggler_model = stragglers;
    ssp.seed = seed;
    ssp.record_every = record_every;
  }

  static Dataset make_data(std::uint64_t seed, std::size_t samples) {
    Rng rng(seed);
    return make_synthetic_cifar10(samples, rng, 32);
  }

  static constexpr std::size_t kS = 1;
  Cluster cluster;
  Dataset data;
  SoftmaxRegression model;
  std::size_t k;
  BspTrainingConfig bsp;
  SspTrainingConfig ssp;
};

/// One training series set: coded BSP under each kind, then SSP.
struct TrainRun {
  std::vector<BspTrainingResult> bsp;
  SspTrainingResult ssp;
};

/// `timed(series)` runs each series; the timed loop times every series and
/// samples the reference kernel between them.
template <typename Timed>
TrainRun train_plain(const TrainTask& task, Timed timed) {
  TrainRun run;
  for (SchemeKind kind : kKinds)
    timed([&] {
      run.bsp.push_back(train_bsp_coded(kind, task.cluster, task.model,
                                        task.data, task.k, TrainTask::kS,
                                        task.bsp));
    });
  timed([&] {
    run.ssp = train_ssp(task.cluster, task.model, task.data, task.ssp);
  });
  return run;
}

/// train_bsp_coded's loop, step by step, with a span per call.
BspTrainingResult train_traced(SchemeKind kind, const TrainTask& task,
                               Pass& pass, std::uint32_t id) {
  const BspTrainingConfig& config = task.bsp;
  const Cluster& cluster = task.cluster;
  const Model& model = task.model;
  const Dataset& data = task.data;
  const std::size_t m = cluster.size();
  KindCounters& counters = pass.kinds[kind_slot(kind)];
  SpanLog::Scope cell(pass.log, Layer::kCell, -1, id, 0);
  const std::int32_t parent = cell.index();

  Rng construction_rng(config.seed);
  Rng estimation_rng(config.seed + 0x9e37);
  Rng condition_rng(config.seed + 0x79b9);
  Throughputs estimated;
  {
    SpanLog::Scope span(pass.log, Layer::kEstimate, parent, id, 0);
    estimated = estimate_throughputs(cluster.throughputs(),
                                     config.estimation_sigma, estimation_rng);
  }
  std::unique_ptr<CodingScheme> scheme;
  {
    SpanLog::Scope span(pass.log, Layer::kConstruct, parent, id, 0);
    scheme = make_scheme(kind, estimated, task.k, TrainTask::kS,
                         construction_rng);
  }
  std::vector<std::vector<std::size_t>> partitions;
  Vector params;
  std::unique_ptr<SgdOptimizer> optimizer;
  {
    SpanLog::Scope span(pass.log, Layer::kTrainSetup, parent, id, 0);
    partitions = partition_rows(data.size(), scheme->num_partitions());
    Rng init_rng(config.seed + 0x1111);
    params = model.init_params(init_rng);
    optimizer = std::make_unique<SgdOptimizer>(config.sgd, params.size());
  }
  const double inv_n = 1.0 / static_cast<double>(data.size());

  BspTrainingResult result;
  result.trace.label = scheme->name();
  {
    SpanLog::Scope span(pass.log, Layer::kLoss, parent, id, 0);
    result.trace.points.push_back({0.0, mean_loss(model, data, params), 0});
  }
  engine::FixedLatencyLink link(config.sim.comm_latency);
  double clock = 0.0;
  for (std::size_t iter = 1; iter <= config.iterations; ++iter) {
    const auto round = static_cast<std::uint32_t>(iter);
    IterationConditions conditions;
    {
      SpanLog::Scope span(pass.log, Layer::kDraw, parent, id, round);
      conditions = config.straggler_model.draw(m, condition_rng);
    }
    engine::RoundOutcome outcome;
    {
      SpanLog::Scope span(pass.log, Layer::kRound, parent, id, round);
      outcome = engine::run_round(*scheme, cluster, conditions, link);
    }
    ++counters.rounds;
    counters.events += outcome.events_executed;
    if (!replay_decode(*scheme, cluster, conditions, config.sim.comm_latency,
                       outcome, pass, parent, id, round, counters))
      ++pass.replay_mismatches;
    if (!outcome.decoded) {
      ++result.failed_iterations;
      break;
    }
    clock += outcome.time;

    std::vector<Vector> grads;
    {
      SpanLog::Scope span(pass.log, Layer::kGradient, parent, id, round);
      grads = all_partition_gradients(model, data, partitions, params);
    }
    const Vector& coefficients = *outcome.coefficients;
    std::vector<Vector> coded(m);
    {
      SpanLog::Scope span(pass.log, Layer::kEncode, parent, id, round);
      for (WorkerId w = 0; w < m; ++w) {
        if (coefficients[w] == 0.0) continue;
        coded[w] = encode_gradient(*scheme, w, grads);
        pass.encode_nnz += scheme->load(w);
      }
    }
    Vector aggregate;
    {
      SpanLog::Scope span(pass.log, Layer::kCombine, parent, id, round);
      aggregate = combine_coded_gradients(coefficients, coded);
    }
    {
      SpanLog::Scope span(pass.log, Layer::kSgd, parent, id, round);
      scale(inv_n, aggregate);
      optimizer->step(params, aggregate);
    }
    if (iter % config.record_every == 0 || iter == config.iterations) {
      SpanLog::Scope span(pass.log, Layer::kLoss, parent, id, round);
      result.trace.points.push_back(
          {clock, mean_loss(model, data, params), iter});
    }
  }
  {
    SpanLog::Scope span(pass.log, Layer::kLoss, parent, id, 0);
    result.final_accuracy =
        model.accuracy(data, all_rows(data.size()), params);
  }
  result.final_params = std::move(params);
  return result;
}

bool same_trace(const LossTrace& a, const LossTrace& b) {
  if (a.label != b.label || a.points.size() != b.points.size()) return false;
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    const TracePoint& p = a.points[i];
    const TracePoint& q = b.points[i];
    if (std::memcmp(&p.time, &q.time, sizeof(double)) != 0 ||
        std::memcmp(&p.loss, &q.loss, sizeof(double)) != 0 ||
        p.iteration != q.iteration)
      return false;
  }
  return true;
}

bool same_bsp(const BspTrainingResult& a, const BspTrainingResult& b) {
  return same_trace(a.trace, b.trace) &&
         a.failed_iterations == b.failed_iterations &&
         a.final_accuracy == b.final_accuracy;
}

/// Whether two runs of one task repeat each other bit for bit.
bool same_run(const TrainRun& a, const TrainRun& b) {
  if (a.bsp.size() != b.bsp.size() || !same_trace(a.ssp.trace, b.ssp.trace))
    return false;
  for (std::size_t i = 0; i < a.bsp.size(); ++i)
    if (!same_bsp(a.bsp[i], b.bsp[i])) return false;
  return true;
}

/// The training workload's tasks: `count` fig4 tasks with seeds
/// count*seed + 1 .. count*seed + count.
std::vector<TrainTask> make_tasks(std::uint64_t seed, std::size_t count,
                                  std::size_t iters, std::size_t samples) {
  std::vector<TrainTask> tasks;
  tasks.reserve(count);
  for (std::size_t i = 0; i < count; ++i)
    tasks.emplace_back(count * seed + i + 1, iters, samples);
  return tasks;
}

/// One set-up pass of the training workload: each task's dataset plus each
/// scheme it trains.
double train_setup_pass(std::uint64_t seed, std::size_t count,
                        std::size_t samples, std::size_t& builds) {
  const std::int64_t start = now_ns();
  const std::vector<TrainTask> tasks = make_tasks(seed, count, 1, samples);
  std::vector<std::unique_ptr<CodingScheme>> schemes;
  for (const TrainTask& task : tasks) {
    for (SchemeKind kind : kKinds) {
      Rng estimation_rng(task.bsp.seed + 0x9e37);
      const Throughputs estimated = estimate_throughputs(
          task.cluster.throughputs(), task.bsp.estimation_sigma,
          estimation_rng);
      Rng construction_rng(task.bsp.seed);
      schemes.push_back(make_scheme(kind, estimated, task.k, TrainTask::kS,
                                    construction_rng));
    }
  }
  const double seconds = seconds_since(start);
  builds = schemes.size();
  return seconds;
}

int train_mode(std::uint64_t seed, std::size_t count, std::size_t iters,
               std::size_t samples, double seconds,
               const std::string& spans_path) {
  const std::vector<TrainTask> tasks = make_tasks(seed, count, iters, samples);

  // Timed runs (spans off), cycling through the tasks, for at least two
  // cycles and until `seconds` have passed. Every series is timed on its
  // own, with a short reference-kernel sample before the first and after
  // each. The first cycle's traces feed the correctness gate; every later
  // cycle must repeat them bit for bit.
  constexpr int kSampleReps = 500;
  std::vector<double> times;
  std::vector<double> refs = {reference_seconds(1, kSampleReps)};
  const auto timed = [&](const auto& series) {
    const std::int64_t series_start = now_ns();
    series();
    times.push_back(seconds_since(series_start));
    refs.push_back(reference_seconds(1, kSampleReps));
  };
  std::vector<TrainRun> first;
  std::size_t runs = 0;
  std::size_t repeat_mismatches = 0;
  const std::int64_t start = now_ns();
  while (runs < 2 * count || runs % count != 0 ||
         seconds_since(start) < seconds) {
    TrainRun run = train_plain(tasks[runs % count], timed);
    if (first.size() < count) {
      first.push_back(std::move(run));
    } else if (!same_run(run, first[runs % count])) {
      ++repeat_mismatches;
    }
    ++runs;
  }

  std::map<std::string, double> layers;
  std::size_t mismatches = 0;
  bool passes_agree = true;
  if (!spans_path.empty()) {
    // The plain wall time is the fastest timed cycle: the first one also
    // pays for cold caches, which the traced pass after it does not.
    const std::size_t cycle = count * (kKinds.size() + 1);
    double plain_wall = 0.0;
    for (std::size_t c = 0; c + cycle <= times.size(); c += cycle) {
      double wall = 0.0;
      for (std::size_t i = c; i < c + cycle; ++i) wall += times[i];
      if (c == 0 || wall < plain_wall) plain_wall = wall;
    }
    Pass pass(true, true);
    const std::int64_t traced_start = now_ns();
    for (std::size_t t = 0; t < count; ++t) {
      // Cells 5t .. 5t+3 are the kinds in kKinds order; cell 5t+4 (SSP) is
      // codeless and only its runtime.ssp span is read, so its slot is
      // arbitrary.
      const auto base = static_cast<std::uint32_t>(t * (kKinds.size() + 1));
      for (std::size_t i = 0; i < kKinds.size(); ++i) {
        pass.cell_kind.push_back(i);
        const BspTrainingResult traced = train_traced(
            kKinds[i], tasks[t], pass, base + static_cast<std::uint32_t>(i));
        passes_agree = passes_agree && same_bsp(traced, first[t].bsp[i]);
      }
      pass.cell_kind.push_back(0);
      const std::uint32_t ssp_cell = base + 4;
      SpanLog::Scope cell(pass.log, Layer::kCell, -1, ssp_cell, 0);
      SpanLog::Scope span(pass.log, Layer::kSsp, cell.index(), ssp_cell, 0);
      const SspTrainingResult ssp = train_ssp(
          tasks[t].cluster, tasks[t].model, tasks[t].data, tasks[t].ssp);
      passes_agree = passes_agree && same_trace(ssp.trace, first[t].ssp.trace);
    }
    const double traced_wall = seconds_since(traced_start);
    layers = layer_metrics(pass, traced_wall, plain_wall);
    mismatches = pass.replay_mismatches;
    pass.log.write_csv(spans_path);
  }

  std::size_t failed = 0;
  std::string out;
  for (std::size_t t = 0; t < count; ++t) {
    const TrainTask& task = tasks[t];
    const BspTrainingResult serial =
        train_serial(task.model, task.data, task.bsp);
    std::string bsp;
    for (const BspTrainingResult& r : first[t].bsp) {
      failed += r.failed_iterations;
      bsp += (bsp.empty() ? "" : ", ") + json_trace(r.trace);
    }
    out += std::string(t ? ", " : "") + "{\"seed\": " +
           std::to_string(task.bsp.seed) + ", \"bsp\": [" + bsp +
           "], \"ssp\": " + json_trace(first[t].ssp.trace) +
           ", \"serial\": " + json_trace(serial.trace) + "}";
  }
  std::cout << "{\"rounds_per_series\": " << iters
            << ", \"series_s\": " << json_array(times)
            << ", \"ref_s\": " << json_array(refs)
            << ", \"failed\": " << failed
            << ", \"replay_mismatches\": " << mismatches
            << ", \"repeat_mismatches\": " << repeat_mismatches
            << ", \"passes_agree\": " << (passes_agree ? "true" : "false")
            << ", \"tasks\": [" << out << "]"
            << ", \"layers\": " << json_object(layers) << "}\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    Args args(argc, argv);
    const std::string mode = args.get("mode", "");
    const std::string spec = args.get("grid", "");
    const bool train = args.get_bool("train", false);
    const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 0));
    const auto iters = static_cast<std::size_t>(args.get_int("iters", 80));
    const auto tasks = static_cast<std::size_t>(args.get_int("tasks", 1));
    const auto samples =
        static_cast<std::size_t>(args.get_int("samples", 1024));
    const double seconds = args.get_double("seconds", 1.0);
    const std::string csv_path = args.get("csv", "");
    const std::string spans_path = args.get("spans", "");
    const auto threads = static_cast<std::size_t>(args.get_int("threads", 1));
    args.check_unused();

    if (mode == "setup" && train)
      return run_setup(
          [&](std::size_t& builds) {
            return train_setup_pass(seed, tasks, samples, builds);
          });
    if (mode == "setup" && !spec.empty())
      return run_setup(
          [&](std::size_t& builds) { return sweep_setup_pass(spec, builds); });
    if (mode == "sweep" && !spec.empty() && !csv_path.empty())
      return sweep_mode(spec, csv_path, spans_path);
    if (mode == "reference") {
      std::cout << "{\"seconds\": " << num(reference_seconds(threads))
                << "}\n";
      return 0;
    }
    if (mode == "train")
      return train_mode(seed, tasks, iters, samples, seconds, spans_path);
    std::cerr << "usage: see the comment at the top of perfbench/driver.cpp\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "pb_driver: " << e.what() << "\n";
    return 1;
  }
}
