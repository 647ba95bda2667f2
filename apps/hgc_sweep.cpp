// hgc_sweep — one CLI for every paper figure, ablation, and ad-hoc grid.
//
//   hgc_sweep --grid fig4                    # preset, CSV on stdout
//   hgc_sweep --grid fig2 --threads 1        # serial run, same bytes out
//   hgc_sweep --grid sigma --aggregate seed  # exact merge across seeds
//   hgc_sweep --grid "clusters=A,B;schemes=heter,group;s=1,2;
//              delay_factors=0,2,4;fault=1;fluct=0.05;seeds=1..5;iters=100"
//   (the spec is one argument; shown wrapped here)
//   hgc_sweep --grid scenarios --pivot scenario,scheme,time
//   hgc_sweep --grid fig3 --csv fig3.csv --json fig3.json
//
// Cells run on a work-stealing thread pool (--threads, default = all
// cores); output is bit-identical at any thread count, so `--threads 1`
// and `--threads 64` runs of the same grid diff clean. The run summary
// goes to stderr, keeping stdout pure data. Observability is equally
// out-of-band: --metrics-out / --metrics-interval / --trace-out /
// --progress never change a byte of the CSV/JSON results (CI diffs the
// two).
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <mutex>
#include <optional>
#include <sstream>
#include <thread>

#include "exec/figures.hpp"
#include "exec/thread_pool.hpp"
#include "linalg/kernels.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/args.hpp"

namespace {

void print_usage(std::ostream& os) {
  os << "usage: hgc_sweep --grid <preset|spec> [options]\n\n"
        "options:\n"
        "  --grid NAME|SPEC   preset name (see --list) or a key=value spec:\n"
        "                     clusters=A,B;schemes=heter,group;s=1,2;\n"
        "                     delay_factors=0,2;fault=1;fluct=0.05;\n"
        "                     sigmas=0,0.2;seeds=1..5;iters=100;\n"
        "                     scenarios=static,churn,trace;trace=file.csv;\n"
        "                     scenario_file=examples/churn_drift.scn\n"
        "  --scenario-file F  add a scenario-DSL file as one point on the\n"
        "                     scenario axis (repeatable; works with presets\n"
        "                     and specs alike — see README 'Scenario DSL')\n"
        "  --iters N          override the grid's iteration count\n"
        "  --threads N        worker threads (default: all cores)\n"
        "  --kernel-backend B force the linalg kernel backend: scalar,\n"
        "                     avx2, or neon (default: best the host\n"
        "                     supports; HGC_KERNEL_BACKEND works too).\n"
        "                     Output is byte-identical either way — the\n"
        "                     flag trades speed, never results\n"
        "  --cache/--no-cache share constructed schemes across cells and\n"
        "                     cache, per cell, the decoding coefficients of\n"
        "                     the few decodes each round's arrival gate\n"
        "                     admits, so it hits only on repeated straggler\n"
        "                     patterns (default on; output is\n"
        "                     byte-identical either way; hit\n"
        "                     rates go to stderr; applies to the built-in\n"
        "                     static/churn/trace cell bodies — custom-\n"
        "                     bodied presets like fig4 bypass it)\n"
        "  --csv PATH         write CSV to PATH ('-' = stdout; the default)\n"
        "  --json PATH        write JSON to PATH ('-' = stdout)\n"
        "  --metrics-out F    write the merged metrics-registry snapshot\n"
        "                     (cache hit/miss, decode solves, per-cell\n"
        "                     timing) as JSON to F after the run\n"
        "  --metrics-interval S\n"
        "                     sample the metrics registry every S seconds\n"
        "                     on a background thread (default off; read-\n"
        "                     only, results stay byte-identical)\n"
        "  --metrics-log F    append each sample as one JSON line to F\n"
        "                     (JSONL; requires --metrics-interval; analyze\n"
        "                     with hgc_obs diff/top)\n"
        "  --trace-out F      record a dual-clock Chrome trace_event file\n"
        "                     to F: wall-clock sweep/solve spans plus one\n"
        "                     virtual-clock track per cell (open in\n"
        "                     chrome://tracing or ui.perfetto.dev)\n"
        "  --progress         report cells-done/total, cells/sec and ETA\n"
        "                     to stderr while the sweep runs (off by\n"
        "                     default; stdout is never touched)\n"
        "  --pivot R,C,M      print a pivot table: rows=axis R, cols=axis\n"
        "                     C, cells=metric M\n"
        "  --aggregate AXIS   collapse AXIS (e.g. seed) by exact merge\n"
        "  --list             list presets and exit\n";
}

/// Write `emit(os)` to `path`, with "-" meaning stdout.
template <typename Emit>
void write_output(const std::string& path, Emit emit) {
  if (path == "-") {
    emit(std::cout);
    return;
  }
  std::ofstream file(path);
  if (!file) throw std::invalid_argument("cannot open for write: " + path);
  emit(file);
}

/// --progress: a background thread rewriting one stderr line from the
/// metrics registry every half second — cells done / total (the registry's
/// sweep.cells.total gauge, falling back to the grid size), throughput
/// from the done counter, and the ETA those two imply. stdout is never
/// touched, and the thread joins before any output is written, so data
/// and progress cannot interleave.
class ProgressReporter {
 public:
  explicit ProgressReporter(std::size_t total) : total_(total) {
    thread_ = std::thread([this] { loop(); });
  }
  ~ProgressReporter() { stop(); }

  void stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopped_) return;
      stopped_ = true;
    }
    cv_.notify_all();
    thread_.join();
    if (printed_) std::cerr << "\n";
  }

 private:
  void loop() {
    // lint:allow(nondeterministic-seed): progress ETA on stderr; never feeds sim state or output
    const auto start = std::chrono::steady_clock::now();
    std::unique_lock<std::mutex> lock(mu_);
    while (!stopped_) {
      cv_.wait_for(lock, std::chrono::milliseconds(500),
                   [this] { return stopped_; });
      if (stopped_) break;
      lock.unlock();
      const hgc::obs::Snapshot snap = hgc::obs::Registry::global().snapshot();
      const std::uint64_t done = snap.counter("sweep.cells.done");
      const double total_gauge = snap.gauge("sweep.cells.total");
      const std::size_t total =
          total_gauge > 0 ? static_cast<std::size_t>(total_gauge) : total_;
      const double elapsed =
          // lint:allow(nondeterministic-seed): progress ETA on stderr; never feeds sim state or output
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
              .count();
      const double rate =
          elapsed > 0 ? static_cast<double>(done) / elapsed : 0.0;
      std::cerr << "\r# progress: " << done << "/" << total << " cells, "
                << static_cast<int>(elapsed) << "s elapsed";
      if (rate > 0 && done > 0) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), ", %.1f cells/s", rate);
        std::cerr << buf;
        if (done < total)
          std::cerr << ", ETA "
                    << static_cast<int>(
                           static_cast<double>(total - done) / rate + 0.5)
                    << "s";
      }
      std::cerr << "    " << std::flush;  // pad over a shrinking line
      printed_ = true;
      lock.lock();
    }
  }

  std::size_t total_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stopped_ = false;
  bool printed_ = false;
  std::thread thread_;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace hgc;
  try {
    Args args(argc, argv);
    if (args.get_bool("help", false)) {
      print_usage(std::cout);
      return 0;
    }
    if (args.get_bool("list", false)) {
      for (const std::string& name : exec::figure_names())
        std::cout << name << ": " << exec::make_figure(name).description
                  << "\n";
      return 0;
    }
    const std::string grid_arg = args.get("grid", "");
    const auto iters = static_cast<std::size_t>(args.get_int("iters", 0));
    const auto threads =
        static_cast<std::size_t>(args.get_int("threads", 0));
    const std::string csv_path = args.get("csv", "");
    const std::string json_path = args.get("json", "");
    const std::string pivot_spec = args.get("pivot", "");
    const std::string aggregate_axis = args.get("aggregate", "");
    const std::vector<std::string> scenario_files =
        args.get_list("scenario-file");
    const std::string metrics_path = args.get("metrics-out", "");
    const double metrics_interval = args.get_double("metrics-interval", 0.0);
    const std::string metrics_log_path = args.get("metrics-log", "");
    const std::string trace_path = args.get("trace-out", "");
    const bool progress = args.get_bool("progress", false);
    bool use_cache = args.get_bool("cache", true);
    if (args.get_bool("no-cache", false)) use_cache = false;
    const std::string backend_arg = args.get("kernel-backend", "");
    args.check_unused();
    if (!backend_arg.empty()) {
      // Fail loudly on a bad name or an unavailable backend: the flag
      // exists for CI's cross-backend byte-diff, where a silent fallback
      // would diff a backend against itself and prove nothing.
      const std::optional<kernels::Backend> backend =
          kernels::parse_backend(backend_arg);
      if (!backend.has_value())
        throw std::invalid_argument("--kernel-backend '" + backend_arg +
                                    "' is not a backend name "
                                    "(scalar|avx2|neon)");
      if (!kernels::set_backend(*backend))
        throw std::invalid_argument("--kernel-backend " + backend_arg +
                                    " is not available on this build/host");
    }
    if (grid_arg.empty()) {
      print_usage(std::cerr);
      return 2;
    }

    exec::FigureSweep figure;
    if (grid_arg.find('=') != std::string::npos) {
      figure.name = "custom";
      figure.description = "ad-hoc grid spec";
      // Apply --iters and --scenario-file inside the spec so the parser
      // builds scenario schedules (churn horizon, demo trace) against the
      // overridden count, and so an explicit scenarios= list keeps its
      // points when files append after it.
      std::string spec = grid_arg;
      if (iters != 0) spec += ";iters=" + std::to_string(iters);
      for (const std::string& path : scenario_files)
        spec += ";scenario_file=" + path;
      figure.grid = exec::parse_grid_spec(spec);
    } else {
      figure = exec::make_figure(grid_arg, iters);
      // The custom-bodied presets (fig4, loss, ...) run their own cell
      // functions, which never read the scenario axis — silently accepting
      // a file the run then ignores is the same bug class as a dropped
      // trace= path.
      if (!scenario_files.empty() && figure.fn)
        throw std::invalid_argument(
            "--scenario-file has no effect on preset '" + grid_arg +
            "': its custom cell body ignores the scenario axis; use a "
            "built-in-body preset (fig2, fig3, fig5, sigma, scenarios) or "
            "a key=value --grid spec");
      // Each file is one more point on the preset's scenario axis
      // (replacing a static-only axis, appending after a multi-point one).
      exec::append_scenario_files(figure.grid, scenario_files);
    }

    // Observability: the metrics registry is always on in the CLI (it
    // feeds the stderr summary and --progress); tracing only when asked.
    // Both are out of band — the results tables are byte-identical with
    // any combination of these flags (CI diffs a traced run against a
    // plain one).
    obs::set_metrics_enabled(true);
    if (!trace_path.empty()) obs::set_trace_enabled(true);
    // Resolve the kernel backend now (flag > env > cpuid) so the gauge is
    // recorded after metrics exist and the summary below reports what
    // actually served the run.
    const kernels::Backend kernel_backend = kernels::active_backend();
    obs::Registry::global()
        .gauge("kernels.backend")
        .set(static_cast<double>(static_cast<int>(kernel_backend)));

    exec::SweepOptions options;
    options.threads = threads;
    // Both caches are result-transparent (same bytes out either way); the
    // hit rates land on stderr so stdout stays pure data.
    SchemeCache scheme_cache;
    if (use_cache) {
      options.scheme_cache = &scheme_cache;
      options.decoding_cache_capacity = 256;
    }
    obs::Snapshot metrics;
    options.metrics_snapshot = &metrics;
    std::ofstream metrics_log;
    if (!metrics_log_path.empty()) {
      if (metrics_interval <= 0.0)
        throw std::invalid_argument(
            "--metrics-log needs --metrics-interval to produce samples");
      metrics_log.open(metrics_log_path);
      if (!metrics_log)
        throw std::invalid_argument("cannot open for write: " +
                                    metrics_log_path);
      options.metrics_log = &metrics_log;
    }
    options.metrics_interval_seconds = metrics_interval;
    const std::size_t resolved_threads =
        threads != 0 ? threads : exec::ThreadPool::default_threads();

    std::optional<ProgressReporter> reporter;
    if (progress) reporter.emplace(figure.grid.num_cells());
    // lint:allow(nondeterministic-seed): wall-clock run summary on stderr only
    const auto start = std::chrono::steady_clock::now();
    exec::ResultTable table = exec::run_figure(figure, options);
    const double seconds =
        // lint:allow(nondeterministic-seed): wall-clock run summary on stderr only
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    if (reporter) reporter->stop();
    if (!aggregate_axis.empty())
      table = table.aggregate_over(aggregate_axis);

    std::cerr << "# " << figure.name << ": "
              << figure.grid.num_cells() << " cells on "
              << resolved_threads << " thread(s) in " << seconds << "s\n";
    std::cerr << "# kernel backend: " << kernels::backend_name(kernel_backend)
              << "\n";
    if (use_cache) {
      const std::uint64_t sh = metrics.counter("scheme_cache.hits");
      const std::uint64_t sm = metrics.counter("scheme_cache.misses");
      const std::uint64_t dh = metrics.counter("decode_cache.hits");
      const std::uint64_t dm = metrics.counter("decode_cache.misses");
      if (sh + sm + dh + dm == 0) {
        // The custom-bodied presets (fig4, table2, loss, ...) run their own
        // cell functions, which do not go through the cached experiment
        // path — say so instead of printing misleading 0-traffic rates.
        std::cerr << "# caches: unused (this preset's custom cell body "
                     "bypasses the caching layer)\n";
      } else {
        const auto rate = [](std::uint64_t hits, std::uint64_t misses) {
          const std::uint64_t total = hits + misses;
          return total == 0 ? 0.0
                            : 100.0 * static_cast<double>(hits) /
                                  static_cast<double>(total);
        };
        std::cerr << "# scheme cache: " << sh << " hits / " << sm
                  << " misses (" << rate(sh, sm) << "% hit rate, "
                  << scheme_cache.size() << " schemes constructed)\n";
        std::cerr << "# decode cache: " << dh << " hits / " << dm
                  << " misses (" << rate(dh, dm) << "% hit rate)\n";
      }
    }
    if (!metrics_path.empty())
      write_output(metrics_path,
                   [&](std::ostream& os) { metrics.write_json(os); });
    if (!trace_path.empty()) {
      obs::set_trace_enabled(false);
      // write_json itself warns on stderr when events were dropped.
      write_output(trace_path, [&](std::ostream& os) {
        obs::Tracer::global().write_json(os);
      });
    }

    bool wrote = false;
    if (!csv_path.empty()) {
      write_output(csv_path, [&](std::ostream& os) { table.to_csv(os); });
      wrote = true;
    }
    if (!json_path.empty()) {
      write_output(json_path, [&](std::ostream& os) { table.to_json(os); });
      wrote = true;
    }
    if (!pivot_spec.empty()) {
      std::istringstream in(pivot_spec);
      std::string row_axis, col_axis, metric;
      if (!std::getline(in, row_axis, ',') ||
          !std::getline(in, col_axis, ',') || !std::getline(in, metric))
        throw std::invalid_argument("--pivot wants row,col,metric");
      table.pivot(row_axis, col_axis, metric).print(std::cout);
      wrote = true;
    }
    if (!wrote) table.to_csv(std::cout);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "hgc_sweep: " << e.what() << "\n";
    return 1;
  }
}
