// perfbench driver: runs one benchmark workload through the public core API
// (SystemModel, Experiment, TuningDriver, ReconfigController), checks the
// outputs against properties computed outside the program, and writes one
// JSON document of raw measurements for run.py to turn into metrics.
//
//   perfbench_driver <workload> --seed N --seconds S --threads T
//                    --out FILE [--rounds N] [--digest FILE] [--ledger]
//                    [--t0-ns NS]
//
// A run repeats one deterministic *round* of work (a whole tuning study, or
// a pass of scenario replays) until --seconds have elapsed.  Every round of
// a run uses the same inputs, so the simulated results of all rounds must
// agree byte for byte; the simulated metrics are those of the first round.
// Host time is taken only around calls that advance the simulation
// (TuningDriver::run, Experiment::run_iteration and parameter application);
// model construction is set-up and is timed apart.  --threads is the
// TuningDriver's worker count for the study, and the number of threads the
// independent scenario replays are spread over for the flash workload.
//
// --t0-ns is the CLOCK_REALTIME instant the parent recorded just before
// starting this process, so the cold set-up time covers process start-up
// too.  --ledger adds the per-layer replays (Harmony history, parameter
// application) used by the traced run.  --digest writes the simulated
// results of the first round, for comparing runs at different thread counts.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/experiment.hpp"
#include "core/reconfig_controller.hpp"
#include "core/system_model.hpp"
#include "core/tuning_driver.hpp"
#include "harmony/server.hpp"
#include "obs/histogram.hpp"
#include "sim/scenario.hpp"
#include "sim/simulator.hpp"
#include "webstack/params.hpp"

namespace {

using namespace ah;
using common::SimTime;

// -- Workload inputs ---------------------------------------------------------

/// TPC-W think time the browsers draw from (tpcw::Workload default) and the
/// cap on one draw; the response-time law uses the capped mean.
constexpr double kThinkMeanS = 3.5;
constexpr double kThinkCapS = 35.0;

struct ScaleInputs {
  std::size_t lines = 32;
  core::SystemModel::LineSpec line{3, 3, 2};
  int browsers_per_line = 530;
  std::size_t iterations = 4;
  std::size_t remeasure_windows = 2;
  std::size_t remeasure_settle = 1;
};

struct FlashInputs {
  int browsers = 900;
  double bucket_s = 10.0;
  double end_s = 600.0;
  double flash_peak = 3.0;
  double flash_t0 = 120.0, flash_t1 = 300.0;
  double rack_t0 = 160.0, rack_t1 = 240.0;
  /// Buckets starting at or after this must regain 90 % of the pre-flash
  /// goodput: the flash and the outage are over and a minute has passed.
  double recovered_from_s = 360.0;
  double recovery_share = 0.90;
  /// Pre-flash baseline: warm buckets in [20 s, flash_t0).
  double baseline_from_s = 20.0;
  double p95_target_ms = 1500.0;
  std::uint64_t scenario_replays = 3;
};

/// Seed salt of the flash workload's control replay.
constexpr std::uint64_t kControlSalt = 0xc0a7201;

// -- Host clocks --------------------------------------------------------------

double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_now(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double realtime_now_ns() {
  timespec ts{};
  clock_gettime(CLOCK_REALTIME, &ts);
  return static_cast<double>(ts.tv_sec) * 1e9 + static_cast<double>(ts.tv_nsec);
}

/// Accumulates host wall and CPU time over the measured calls of a run.
/// The CPU clock is the process's, so worker threads a call starts are
/// counted; a replay running on a benchmark worker thread uses its thread's.
struct HostTimer {
  double wall = 0.0;
  double cpu = 0.0;
  clockid_t cpu_clock = CLOCK_PROCESS_CPUTIME_ID;
  template <typename F>
  auto time(F&& fn) {
    const double w0 = wall_now();
    const double c0 = cpu_now(cpu_clock);
    struct Done {
      HostTimer* self;
      double w0, c0;
      ~Done() {
        self->wall += wall_now() - w0;
        self->cpu += cpu_now(self->cpu_clock) - c0;
      }
    } done{this, w0, c0};
    return fn();
  }
};

// -- Results ------------------------------------------------------------------

struct Check {
  std::string name;
  bool ok = true;
  std::string detail;
};

/// Simulated outcome of one measurement window the benchmark drives.
struct Window {
  core::IterationResult result;
  std::uint64_t ok = 0;
  std::uint64_t errors = 0;
  double seconds = 0.0;
  obs::Histogram latency;  // successful in-window completions
};

/// Everything one round produces.  The simulated fields must be identical
/// across rounds; `digest` carries them as text.
struct Round {
  // Host side.
  HostTimer timer;
  double first_build_ms = 0.0;  // first SystemModel constructor of the round
  double setup_end_ns = 0.0;    // CLOCK_REALTIME when the first set-up ended
  std::uint64_t events = 0;
  std::uint64_t windows = 0;   // operations attempted
  std::uint64_t failed = 0;    // operations failed
  std::size_t nodes = 0;       // nodes of the largest model

  // Reported windows (wips / p95).
  double wips_sum = 0.0, wips_browse_sum = 0.0, wips_order_sum = 0.0;
  std::uint64_t reported = 0;
  std::uint64_t ok = 0, errors = 0;
  obs::Histogram latency;  // successful completions

  // Registry sums over every model of the round.
  std::uint64_t requests = 0;  // frontend round trips finished
  std::uint64_t messages = 0, bytes = 0;
  std::uint64_t proxy_served = 0, proxy_hits = 0;
  std::uint64_t db_queries = 0, app_rejections = 0;
  std::uint64_t stale_served = 0, router_timeouts = 0, upstream_retries = 0;
  std::uint64_t mark_downs = 0, health_probes = 0;
  obs::Histogram frontend_hop, app_hop, db_hop;
  double pending_max = 0.0;
  double cpu_util_max = 0.0, disk_util_max = 0.0;

  // Tuner side.
  std::size_t iters_to_90 = 0;
  std::uint64_t evaluations = 0;
  double best_wips = 0.0, default_wips = 0.0;

  // Overload control side.
  double admit_min = 1.0, admit_final = 1.0;
  double shed_ratio = 0.0, stale_share = 0.0;
  std::uint64_t reconfig_moves = 0;

  // Ledger replays (host time per call).
  double harmony_us_per_report = 0.0;
  double apply_us = 0.0;

  std::vector<Check> checks;
  std::string digest;
};

void add_check(Round& round, std::string name, bool ok, std::string detail) {
  round.checks.push_back({std::move(name), ok, std::move(detail)});
}

std::string fmt(const char* format, ...) __attribute__((format(printf, 1, 2)));
std::string fmt(const char* format, ...) {
  char buffer[512];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buffer, sizeof(buffer), format, args);
  va_end(args);
  return buffer;
}

/// Percentile in ms, interpolated linearly inside the histogram bucket that
/// holds the rank (the buckets are up to 3.1 % wide, which would otherwise
/// quantise the figure).
double percentile_ms(const obs::Histogram& h, double q) {
  if (h.count() == 0) return 0.0;
  const double rank = q * static_cast<double>(h.count());
  double below = 0.0;
  for (std::size_t i = 0;; ++i) {
    const double in_bucket = static_cast<double>(h.bucket(i));
    if (below + in_bucket >= rank && in_bucket > 0.0) {
      const double low = static_cast<double>(obs::Histogram::bucket_low_us(i));
      if (i < 32) return low / 1e3;  // exact one-microsecond buckets
      const double high =
          static_cast<double>(obs::Histogram::bucket_low_us(i + 1));
      return (low + (rank - below) / in_bucket * (high - low)) / 1e3;
    }
    below += in_bucket;
  }
}

// -- Window plumbing ------------------------------------------------------------

Window run_window(core::Experiment& experiment, Round& round) {
  Window window;
  window.result = round.timer.time([&] { return experiment.run_iteration(); });
  ++round.windows;
  core::SystemModel& system = experiment.system();
  for (std::size_t line = 0; line < system.line_count(); ++line) {
    const tpcw::WipsMeter& meter = experiment.meter(line);
    window.ok += meter.completed_ok();
    window.errors += meter.errors();
    window.latency.merge(meter.latency_histogram());
    window.seconds = (meter.window_end() - meter.window_start()).as_seconds();
  }
  round.pending_max = std::max(
      round.pending_max,
      static_cast<double>(
          system.metrics().counter_value("scheduler.pending_events")));
  for (const harmony::NodeReading& reading : system.readings()) {
    round.cpu_util_max = std::max(round.cpu_util_max,
                                  reading.utilization[core::SystemModel::kCpu]);
    round.disk_util_max = std::max(
        round.disk_util_max, reading.utilization[core::SystemModel::kDisk]);
  }
  return window;
}

void report_window(Round& round, const Window& window) {
  round.wips_sum += window.result.wips;
  round.wips_browse_sum += window.result.wips_browse;
  round.wips_order_sum += window.result.wips_order;
  ++round.reported;
  round.ok += window.ok;
  round.errors += window.errors;
  round.latency.merge(window.latency);
}

/// Folds one model's registry and hop histograms into the round and checks
/// that the two sides of each hop agree.
void absorb_model(Round& round, core::SystemModel& system, int browsers,
                  const std::string& label, bool crashes = false) {
  const obs::Registry& m = system.metrics();
  round.events += m.counter_value("scheduler.events_executed");
  round.messages += m.counter_value("network.messages_sent");
  round.bytes += m.counter_value("network.bytes_sent");
  round.proxy_served += m.counter_value("proxy.served");
  round.proxy_hits +=
      m.counter_value("proxy.mem_hits") + m.counter_value("proxy.disk_hits");
  round.stale_served += m.counter_value("proxy.stale_served");
  round.upstream_retries += m.counter_value("proxy.upstream_retries");
  round.router_timeouts += m.counter_value("routers.timeouts");
  round.mark_downs += m.counter_value("health.mark_downs");
  round.health_probes += m.counter_value("health.probes_sent");
  const std::uint64_t app_queries = m.counter_value("app.db_queries");
  const std::uint64_t db_queries = m.counter_value("db.queries");
  round.db_queries += db_queries;
  const std::uint64_t app_served = m.counter_value("app.served");
  const std::uint64_t rejections = m.counter_value("app.rejected_http") +
                                   m.counter_value("app.rejected_ajp") +
                                   m.counter_value("app.refused");
  round.app_rejections += rejections;
  round.nodes = std::max(round.nodes, system.all_nodes().size());

  obs::Histogram frontend, app, db;
  for (std::size_t line = 0; line < system.line_count(); ++line) {
    frontend.merge(system.frontend_latency(line));
    app.merge(system.app_hop_latency(line));
    db.merge(system.db_hop_latency(line));
  }
  round.requests += frontend.count();
  round.frontend_hop.merge(frontend);
  round.app_hop.merge(app);
  round.db_hop.merge(db);

  // Requests still inside a hop when the clock stopped are bounded by the
  // browser population: each browser has at most one interaction out.  A
  // crashed server drops what it had queued and refuses what reaches it
  // before the health checker marks it down, so with crashes only the
  // server side's bound holds: it never answers more than it was sent.
  const auto within = [browsers, crashes](std::uint64_t sent,
                                          std::uint64_t answered) {
    const auto n = static_cast<std::uint64_t>(browsers);
    if (answered > sent + n) return false;
    return crashes || sent <= answered + n;
  };
  const char* relation = crashes ? "<=" : "=";
  add_check(round,
            fmt("%s: db.queries %s app.db_queries", label.c_str(), relation),
            within(app_queries, db_queries),
            fmt("%llu vs %llu", static_cast<unsigned long long>(app_queries),
                static_cast<unsigned long long>(db_queries)));
  add_check(round,
            fmt("%s: app.served + rejections %s app-hop count", label.c_str(),
                relation),
            within(app.count(), app_served + rejections),
            fmt("%llu vs %llu + %llu",
                static_cast<unsigned long long>(app.count()),
                static_cast<unsigned long long>(app_served),
                static_cast<unsigned long long>(rejections)));
  round.digest += label + " registry ";
  round.digest += m.json_string();
  round.digest += "\n";
}

/// Closed-loop checks on a set of windows with `browsers` browsers:
/// the interactive response-time law N = X (R + Z), the throughput ceiling
/// X <= N / Z, and Little's law L = X R <= N per window (no browser has more
/// than one interaction outstanding).
void check_closed_loop(Round& round, const std::vector<Window>& windows,
                       int browsers, const char* label, bool response_law,
                       double arrival_peak = 1.0) {
  const double z = kThinkMeanS * (1.0 - std::exp(-kThinkCapS / kThinkMeanS));
  const double n = static_cast<double>(browsers);
  double ok = 0.0, seconds = 0.0, latency_sum_s = 0.0;
  std::string over_ceiling, over_little;
  for (const Window& w : windows) {
    const double x = static_cast<double>(w.ok) / w.seconds;
    const double r = w.latency.mean_us() / 1e6;
    // 2 % slack: a window's completions fluctuate around the mean rate.
    if (w.result.wips > arrival_peak * n / z * 1.02) {
      over_ceiling =
          fmt("wips %.2f > N/Z %.2f", w.result.wips, arrival_peak * n / z);
    }
    if (x * r > n) over_little = fmt("X*R %.1f > N %.0f", x * r, n);
    ok += static_cast<double>(w.ok);
    seconds += w.seconds;
    latency_sum_s += static_cast<double>(w.latency.sum_us()) / 1e6;
  }
  add_check(round, fmt("%s: wips <= N/Z", label), over_ceiling.empty(),
            over_ceiling);
  add_check(round, fmt("%s: mean outstanding X*R <= N", label),
            over_little.empty(), over_little);
  if (!response_law) return;
  const double x = ok / seconds;
  const double r = ok > 0.0 ? latency_sum_s / ok : 0.0;
  const double implied = x * (r + z);
  // Tolerance: window edges (interactions straddling a window boundary),
  // retried errors whose 1.5 s back-off is not think time, and sampling
  // noise of ~10^4 completions per window.
  const double tolerance = 0.02;
  add_check(round, fmt("%s: N = X(R+Z) within 2%%", label),
            std::fabs(implied - n) <= tolerance * n,
            fmt("X(R+Z) = %.1f, N = %.0f", implied, n));
}

std::size_t iterations_to_quality(const std::vector<double>& series,
                                  double baseline, double target) {
  const double threshold = baseline + 0.9 * (target - baseline);
  constexpr std::size_t kWindow = 5;
  for (std::size_t i = 0; i < series.size(); ++i) {
    const std::size_t from = i + 1 >= kWindow ? i + 1 - kWindow : 0;
    double sum = 0.0;
    for (std::size_t j = from; j <= i; ++j) sum += series[j];
    if (sum / static_cast<double>(i + 1 - from) >= threshold) return i;
  }
  return series.size();
}

std::string join(const std::vector<double>& values) {
  std::string out;
  for (double v : values) out += fmt("%.17g ", v);
  return out;
}

/// A fresh HarmonyServer fed the recorded performances must propose the
/// recorded configuration sequence.  Returns the number of reports.
std::uint64_t replay_harmony(const harmony::HarmonyServer& recorded,
                             const harmony::SessionOptions& options) {
  harmony::HarmonyServer fresh;
  std::uint64_t reports = 0;
  for (harmony::SessionId id = 0; id < recorded.session_count(); ++id) {
    const harmony::TuningSession& session = recorded.session(id);
    const auto copy = fresh.create_session(session.name(), options);
    for (const auto& parameter : session.space().parameters()) {
      fresh.register_parameter(copy, parameter);
    }
    fresh.start(copy);
    for (const auto& entry : session.history()) {
      if (fresh.get_configuration(copy) != entry.configuration) {
        throw std::runtime_error("replayed session " + session.name() +
                                 " diverged at evaluation " +
                                 std::to_string(reports));
      }
      fresh.report_performance(copy, -entry.cost);
      ++reports;
    }
  }
  return reports;
}

/// Recorded configurations of a study, in method layout, one per
/// evaluation index.
std::vector<harmony::PointI> recorded_configurations(
    const harmony::HarmonyServer& server) {
  std::vector<harmony::PointI> out;
  std::size_t evaluations = SIZE_MAX;
  for (harmony::SessionId id = 0; id < server.session_count(); ++id) {
    evaluations = std::min(evaluations, server.session(id).history().size());
  }
  for (std::size_t i = 0; i < evaluations; ++i) {
    harmony::PointI point;
    for (harmony::SessionId id = 0; id < server.session_count(); ++id) {
      const auto& values = server.session(id).history()[i].configuration;
      point.insert(point.end(), values.begin(), values.end());
    }
    out.push_back(std::move(point));
  }
  return out;
}

// -- Tuning study (scale_partition_ordering) -----------------------------------

/// A tuning study runs on fixed inputs (the repository's default seeds), so
/// every run times the same simulated work; the fresh-model re-measures of
/// the best and the default configuration draw their seeds from --seed.
struct StudyShape {
  core::SystemModel::Config topology;
  core::Experiment::Config experiment;
  std::uint64_t measure_seed;
  core::TuningMethod method;
  std::size_t iterations;
  std::size_t validation;
  std::size_t remeasure_windows;
  std::size_t remeasure_settle;
  std::size_t threads;
};

/// Builds a model, timing the SystemModel constructor.
template <typename... Args>
std::unique_ptr<core::SystemModel> build_model(Round& round,
                                               Args&&... args) {
  const double t0 = wall_now();
  auto model = std::make_unique<core::SystemModel>(std::forward<Args>(args)...);
  if (round.first_build_ms == 0.0) round.first_build_ms = (wall_now() - t0) * 1e3;
  return model;
}

/// Re-measures `configuration` (empty: the defaults) on a fresh model.
/// Returns the windows after the settle windows.
std::vector<Window> remeasure(const StudyShape& shape, Round& round,
                              const harmony::PointI& configuration,
                              const char* label) {
  core::SystemModel::Config topology = shape.topology;
  topology.seed = common::mix_seed(topology.seed, shape.measure_seed);
  core::Experiment::Config config = shape.experiment;
  config.seed = common::mix_seed(config.seed, shape.measure_seed);
  std::unique_ptr<sim::Simulator> sim;
  std::unique_ptr<core::SystemModel> system;
  std::unique_ptr<common::ThreadPool> pool;
  if (topology.lines.size() > 1) {
    system = build_model(round, topology);  // sharded timelines
    if (shape.threads != 1) {
      pool = std::make_unique<common::ThreadPool>(shape.threads);
      system->set_thread_pool(pool.get());
    }
  } else {
    sim = std::make_unique<sim::Simulator>();
    system = build_model(round, *sim, topology);
  }
  core::Experiment experiment(*system, config);
  if (!configuration.empty()) {
    round.timer.time([&] {
      core::apply_method_values(*system, shape.method, configuration);
      return 0;
    });
  }
  std::vector<Window> kept;
  for (std::size_t i = 0; i < shape.remeasure_windows; ++i) {
    Window window = run_window(experiment, round);
    round.digest += fmt("%s window %zu wips %.17g lines ", label, i,
                        window.result.wips) +
                    join(window.result.line_wips) + "\n";
    if (i >= shape.remeasure_settle) kept.push_back(std::move(window));
  }
  system->set_thread_pool(nullptr);
  absorb_model(round, *system, shape.experiment.browsers, label);
  return kept;
}

double mean_wips(const std::vector<Window>& windows) {
  double sum = 0.0;
  for (const Window& w : windows) sum += w.result.wips;
  return windows.empty() ? 0.0 : sum / static_cast<double>(windows.size());
}

Round run_study_round(const StudyShape& shape, bool ledger) {
  Round round;
  harmony::PointI best;
  {
    std::unique_ptr<sim::Simulator> sim;
    std::unique_ptr<core::SystemModel> system;
    if (shape.topology.lines.size() > 1) {
      system = build_model(round, shape.topology);  // sharded timelines
    } else {
      sim = std::make_unique<sim::Simulator>();
      system = build_model(round, *sim, shape.topology);
    }
    core::Experiment experiment(*system, shape.experiment);
    core::TuningDriver::Options options;
    options.method = shape.method;
    options.threads = shape.threads;
    core::TuningDriver driver(*system, experiment, options);
    round.setup_end_ns = realtime_now_ns();
    const core::TuningResult result = round.timer.time(
        [&] { return driver.run(shape.iterations, shape.validation); });
    round.windows += experiment.iterations_run();
    best = result.best_configuration;
    for (harmony::SessionId id = 0; id < driver.server().session_count();
         ++id) {
      const auto& history = driver.server().session(id).history();
      round.evaluations += history.size();
      std::vector<double> costs;
      for (const auto& entry : history) costs.push_back(-entry.cost);
      round.digest += "session " + driver.server().session(id).name() +
                      " wips " + join(costs) + "\n";
    }
    round.digest += "study series " + join(result.wips_series) +
                    fmt("validated %.17g\n", result.validated_wips);
    // Iterations to 90 % of the gain from the study's first window (the
    // catalogue defaults, measured in-run) to its validated best.
    round.iters_to_90 = iterations_to_quality(
        result.wips_series, result.wips_series.front(), result.validated_wips);

    // The tuner's decisions must follow from the recorded performances.
    bool replay_ok = true;
    std::string replay_detail;
    try {
      const double t0 = wall_now();
      const std::uint64_t reports =
          replay_harmony(driver.server(), options.session);
      round.harmony_us_per_report =
          (wall_now() - t0) * 1e6 /
          static_cast<double>(std::max<std::uint64_t>(1, reports));
    } catch (const std::exception& e) {
      replay_ok = false;
      replay_detail = e.what();
    }
    add_check(round, "fresh HarmonyServer replays the recorded sequence",
              replay_ok, replay_detail);
    if (ledger) {
      // Parameter application alone: the recorded configurations replayed
      // on a fresh model that never runs.
      const auto configurations = recorded_configurations(driver.server());
      std::unique_ptr<sim::Simulator> fresh_sim;
      std::unique_ptr<core::SystemModel> fresh;
      if (shape.topology.lines.size() > 1) {
        fresh = std::make_unique<core::SystemModel>(shape.topology);
      } else {
        fresh_sim = std::make_unique<sim::Simulator>();
        fresh = std::make_unique<core::SystemModel>(*fresh_sim, shape.topology);
      }
      const double t0 = wall_now();
      for (const auto& values : configurations) {
        core::apply_method_values(*fresh, shape.method, values);
      }
      round.apply_us = (wall_now() - t0) * 1e6 /
                       static_cast<double>(std::max<std::size_t>(
                           1, configurations.size()));
    }
    absorb_model(round, *system, shape.experiment.browsers, "study");
  }

  const std::vector<Window> tuned = remeasure(shape, round, best, "best");
  const std::vector<Window> defaults =
      remeasure(shape, round, harmony::PointI{}, "default");
  for (const Window& w : tuned) report_window(round, w);
  round.best_wips = mean_wips(tuned);
  round.default_wips = mean_wips(defaults);
  // Both figures are re-measured, so they carry sampling noise of about
  // 1/sqrt(completions); allow three standard errors.
  std::uint64_t completions = 0;
  for (const Window& w : defaults) completions += w.ok;
  const double noise = 3.0 / std::sqrt(static_cast<double>(completions));
  add_check(round, "validated best >= default re-measured on a fresh model",
            round.best_wips >= round.default_wips * (1.0 - noise),
            fmt("best %.2f vs default %.2f WIPS (noise %.2f%%)",
                round.best_wips, round.default_wips, 100.0 * noise));
  check_closed_loop(round, tuned, shape.experiment.browsers, "best", true);
  check_closed_loop(round, defaults, shape.experiment.browsers, "default",
                    true);
  return round;
}

StudyShape scale_shape(std::uint64_t seed, std::size_t threads) {
  const ScaleInputs in;
  StudyShape shape{};
  shape.topology.lines =
      std::vector<core::SystemModel::LineSpec>(in.lines, in.line);
  shape.experiment.browsers =
      in.browsers_per_line * static_cast<int>(in.lines);
  shape.experiment.workload = tpcw::WorkloadKind::kOrdering;
  shape.measure_seed = seed;
  shape.method = core::TuningMethod::kPartitioning;
  shape.iterations = in.iterations;
  shape.validation = 0;
  shape.remeasure_windows = in.remeasure_windows;
  shape.remeasure_settle = in.remeasure_settle;
  shape.threads = threads;
  return shape;
}

// -- Flash crowd with a rack outage (flash_rack_browsing) --------------------------

void apply_flash_scenario(const FlashInputs& in, core::SystemModel& system,
                          core::Experiment& experiment) {
  // The rack holds the second app and the second db node.
  const auto app_victim =
      system.cluster().tier(cluster::TierKind::kApp).members()[1];
  const auto db_victim =
      system.cluster().tier(cluster::TierKind::kDb).members()[1];
  const std::string text =
      fmt("flash:%.1f@%.0f-%.0f; rack:%u+%u@%.0f-%.0f", in.flash_peak,
          in.flash_t0, in.flash_t1, app_victim, db_victim, in.rack_t0,
          in.rack_t1);
  std::string error;
  const auto plan = sim::ScenarioPlan::parse(text, &error);
  if (!plan.has_value()) {
    throw std::runtime_error("scenario '" + text + "' rejected: " + error);
  }
  experiment.apply_scenario(*plan);
}

/// One 600 s replay on its own model and timeline.  With `scenario` it runs
/// the flash crowd and the rack outage and its post-recovery buckets must
/// regain the pre-flash goodput; without it, it is the undisturbed control
/// at the same load.  Built on the thread that prepares the round, run on
/// whichever worker takes it; everything it measures goes into its own
/// Round, merged in replay order.
class FlashReplay {
 public:
  FlashReplay(const FlashInputs& in, std::uint64_t topology_seed,
              std::uint64_t workload_seed, bool scenario, std::string label)
      : in_(in), scenario_(scenario), label_(std::move(label)) {
    core::SystemModel::Config topology;
    topology.lines = {core::SystemModel::LineSpec{2, 2, 2}};
    topology.seed = topology_seed;
    system_ = build_model(part_, sim_, topology);
    system_->enable_fault_tolerance({});
    core::SystemModel::OverloadControlConfig control;
    control.admission.target_p95 =
        SimTime::millis(static_cast<std::int64_t>(in.p95_target_ms));
    control.shed_mode = webstack::ProxyServer::ShedMode::kServeStale;
    system_->enable_admission_control(control);
    min_admit_ = control.admission.min_admit;
    reconfig_ = std::make_unique<core::ReconfigController>(*system_);
    core::ReconfigController::ReactiveOptions reactive;
    reactive.min_healthy = 2;
    reconfig_->enable_reactive(reactive);

    core::Experiment::Config config;
    config.iteration.warmup = SimTime::zero();
    config.iteration.measure = SimTime::seconds(in.bucket_s);
    config.iteration.cooldown = SimTime::zero();
    config.browsers = in.browsers;
    config.workload = tpcw::WorkloadKind::kBrowsing;
    config.seed = workload_seed;
    experiment_ = std::make_unique<core::Experiment>(*system_, config);
    if (scenario_) apply_flash_scenario(in, *system_, *experiment_);
  }

  /// Runs the buckets on the calling thread and returns what they measured;
  /// host time is the calling thread's.
  Round run() {
    Round& round = part_;
    round.timer.cpu_clock = CLOCK_THREAD_CPUTIME_ID;
    const std::size_t nodes = system_->all_nodes().size();
    ctrl::AdmissionController* admission = system_->line_admission(0);
    std::vector<Window> buckets;
    bool tiers_ok = true, admit_ok = true;
    std::string tier_detail, admit_detail;
    for (double t = 0.0; t < in_.end_s; t += in_.bucket_s) {
      Window bucket = run_window(*experiment_, round);
      round.timer.time([&] {
        reconfig_->observe_p95(SimTime::micros(
            static_cast<std::int64_t>(bucket.latency.p95_us())));
        return 0;
      });
      std::size_t members = 0;
      for (const auto kind : {cluster::TierKind::kProxy,
                              cluster::TierKind::kApp,
                              cluster::TierKind::kDb}) {
        members += system_->cluster().tier(kind).size();
      }
      if (members != nodes) {
        tiers_ok = false;
        tier_detail =
            fmt("t=%.0f: %zu tier members, %zu nodes", t, members, nodes);
      }
      const double admit = admission->admit_fraction();
      if (admit < min_admit_ || admit > 1.0) {
        admit_ok = false;
        admit_detail = fmt("t=%.0f: admit %.4f", t, admit);
      }
      round.admit_min = std::min(round.admit_min, admit);
      round.digest += fmt("%s t %.0f wips %.17g p95 %llu admit %.17g\n",
                          label_.c_str(), t, bucket.result.wips,
                          static_cast<unsigned long long>(
                              bucket.latency.p95_us()),
                          admit);
      buckets.push_back(std::move(bucket));
    }
    add_check(round, label_ + ": tier sizes sum to the node count", tiers_ok,
              tier_detail);
    add_check(round, label_ + ": admit fraction in [min_admit, 1]", admit_ok,
              admit_detail);
    // The response-time law needs a steady closed loop: only the control.
    check_closed_loop(round, buckets, in_.browsers, label_.c_str(), !scenario_,
                      scenario_ ? in_.flash_peak : 1.0);

    double baseline = 0.0;
    int baseline_count = 0;
    for (std::size_t i = 0; i < buckets.size(); ++i) {
      const double t = static_cast<double>(i) * in_.bucket_s;
      if (t >= in_.baseline_from_s && t + in_.bucket_s <= in_.flash_t0) {
        baseline += buckets[i].result.wips;
        ++baseline_count;
      }
    }
    baseline /= std::max(1, baseline_count);
    for (std::size_t i = 0; i < buckets.size(); ++i) {
      const double t = static_cast<double>(i) * in_.bucket_s;
      report_window(round, buckets[i]);
      if (scenario_ && t >= in_.recovered_from_s &&
          buckets[i].result.wips < in_.recovery_share * baseline) {
        ++round.failed;
      }
    }
    round.admit_final = admission->admit_fraction();
    const std::uint64_t admitted = admission->admitted();
    const std::uint64_t shed = admission->shed();
    round.shed_ratio = admitted + shed > 0
                           ? static_cast<double>(shed) /
                                 static_cast<double>(admitted + shed)
                           : 0.0;
    const std::uint64_t stale =
        system_->metrics().counter_value("proxy.shed_stale");
    round.stale_share =
        shed > 0 ? static_cast<double>(stale) / static_cast<double>(shed) : 0.0;
    round.reconfig_moves += reconfig_->moves().size();
    absorb_model(round, *system_, in_.browsers, label_, scenario_);
    return std::move(part_);
  }

 private:
  const FlashInputs& in_;
  bool scenario_;
  std::string label_;
  Round part_;
  double min_admit_ = 0.0;
  sim::Simulator sim_;
  std::unique_ptr<core::SystemModel> system_;
  std::unique_ptr<core::ReconfigController> reconfig_;
  std::unique_ptr<core::Experiment> experiment_;
};

/// Runs job(0) .. job(count - 1) on `threads` threads, the calling thread
/// included; rethrows the first exception a job threw once all have ended.
template <typename Job>
void run_jobs(std::size_t count, std::size_t threads, Job&& job) {
  std::atomic<std::size_t> next{0};
  std::mutex error_mutex;
  std::exception_ptr error;
  const auto worker = [&] {
    for (std::size_t i; (i = next.fetch_add(1)) < count;) {
      try {
        job(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (!error) error = std::current_exception();
      }
    }
  };
  std::vector<std::thread> pool;
  for (std::size_t t = 1; t < std::min(threads, count); ++t) {
    pool.emplace_back(worker);
  }
  worker();
  for (std::thread& t : pool) t.join();
  if (error) std::rethrow_exception(error);
}

/// Folds a later replay's Round into the first one's.  The ctrl ledger
/// (admission figures) stays the first scenario replay's.
void merge_part(Round& into, Round&& part) {
  into.timer.wall += part.timer.wall;
  into.timer.cpu += part.timer.cpu;
  into.events += part.events;
  into.windows += part.windows;
  into.failed += part.failed;
  into.nodes = std::max(into.nodes, part.nodes);
  into.wips_sum += part.wips_sum;
  into.wips_browse_sum += part.wips_browse_sum;
  into.wips_order_sum += part.wips_order_sum;
  into.reported += part.reported;
  into.ok += part.ok;
  into.errors += part.errors;
  into.latency.merge(part.latency);
  into.requests += part.requests;
  into.messages += part.messages;
  into.bytes += part.bytes;
  into.proxy_served += part.proxy_served;
  into.proxy_hits += part.proxy_hits;
  into.db_queries += part.db_queries;
  into.app_rejections += part.app_rejections;
  into.stale_served += part.stale_served;
  into.router_timeouts += part.router_timeouts;
  into.upstream_retries += part.upstream_retries;
  into.mark_downs += part.mark_downs;
  into.health_probes += part.health_probes;
  into.frontend_hop.merge(part.frontend_hop);
  into.app_hop.merge(part.app_hop);
  into.db_hop.merge(part.db_hop);
  into.pending_max = std::max(into.pending_max, part.pending_max);
  into.cpu_util_max = std::max(into.cpu_util_max, part.cpu_util_max);
  into.disk_util_max = std::max(into.disk_util_max, part.disk_util_max);
  into.reconfig_moves += part.reconfig_moves;
  for (Check& c : part.checks) into.checks.push_back(std::move(c));
  into.digest += part.digest;
}

/// The scenario replays run on fixed seeds (replay 0 on the repository
/// defaults), so the known admission fault shows on the same buckets in
/// every run; the control replay draws its seeds from --seed.  All four
/// models are built first, on the calling thread; the replays then run
/// on `threads` threads and their results are merged in replay order, so
/// the round is the same at any thread count.
Round run_flash_round(std::uint64_t seed, std::size_t threads) {
  const FlashInputs in;
  const core::SystemModel::Config topology_defaults;
  const core::Experiment::Config workload_defaults;
  std::vector<std::unique_ptr<FlashReplay>> replays;
  for (std::uint64_t r = 0; r < in.scenario_replays; ++r) {
    replays.push_back(std::make_unique<FlashReplay>(
        in, topology_defaults.seed + r, workload_defaults.seed + r, true,
        fmt("scenario%llu", static_cast<unsigned long long>(r))));
  }
  replays.push_back(std::make_unique<FlashReplay>(
      in, common::mix_seed(kControlSalt, seed),
      common::mix_seed(kControlSalt + 1, seed), false, "control"));
  const double setup_end_ns = realtime_now_ns();

  std::vector<Round> parts(replays.size());
  run_jobs(replays.size(), threads, [&](std::size_t i) {
    parts[i] = replays[i]->run();
    replays[i].reset();
  });
  Round round = std::move(parts.front());
  for (std::size_t i = 1; i < parts.size(); ++i) {
    merge_part(round, std::move(parts[i]));
  }
  round.setup_end_ns = setup_end_ns;
  return round;
}

// -- Output ------------------------------------------------------------------------

double sum(const std::vector<double>& values) {
  double total = 0.0;
  for (double v : values) total += v;
  return total;
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 1469598103934665603ull;
  for (unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out += c;
  }
  return out;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::size_t threads = 1;
  std::string out;
  std::string digest;
  bool ledger = false;
  std::size_t rounds = 0;  // 0: as many as --seconds allows
  double t0_ns = 0.0;
};

Args parse_args(int argc, char** argv) {
  Args args;
  if (argc < 2) throw std::invalid_argument("missing workload");
  args.workload = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
      return argv[++i];
    };
    if (flag == "--seed") {
      args.seed = std::stoull(value());
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value());
    } else if (flag == "--threads") {
      args.threads = std::stoul(value());
    } else if (flag == "--out") {
      args.out = value();
    } else if (flag == "--digest") {
      args.digest = value();
    } else if (flag == "--t0-ns") {
      args.t0_ns = std::stod(value());
    } else if (flag == "--rounds") {
      args.rounds = std::stoul(value());
    } else if (flag == "--ledger") {
      args.ledger = true;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (args.out.empty()) throw std::invalid_argument("--out is required");
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    std::function<Round(bool)> round_fn;
    if (args.workload == "scale_partition_ordering") {
      const StudyShape shape = scale_shape(args.seed, args.threads);
      round_fn = [shape](bool l) { return run_study_round(shape, l); };
    } else if (args.workload == "flash_rack_browsing") {
      const std::uint64_t seed = args.seed;
      const std::size_t threads = args.threads;
      round_fn = [seed, threads](bool) {
        return run_flash_round(seed, threads);
      };
    } else {
      throw std::invalid_argument("unknown workload " + args.workload);
    }

    // Later rounds are compared with the first and dropped, so the peak
    // resident set is that of one round's models, whatever the run length.
    double started = wall_now();
    const Round first = round_fn(args.ledger);
    std::vector<Check> checks = first.checks;
    std::vector<double> walls{first.timer.wall}, cpus{first.timer.cpu};
    std::uint64_t windows = first.windows, failed = first.failed;
    bool identical = true;
    // Elapsed time decides when to stop: with replays on several threads a
    // round's host time (summed over its replays) exceeds its elapsed time.
    double last = wall_now() - started;
    double elapsed = last;
    // Stop when another round would overshoot by more than it fills.
    while (args.rounds > 0 ? walls.size() < args.rounds
                           : elapsed + 0.5 * last < args.seconds) {
      started = wall_now();
      const Round round = round_fn(false);
      if (round.digest != first.digest) identical = false;
      for (const Check& c : round.checks) {
        if (!c.ok) checks.push_back(c);
      }
      walls.push_back(round.timer.wall);
      cpus.push_back(round.timer.cpu);
      windows += round.windows;
      failed += round.failed;
      last = wall_now() - started;
      elapsed += last;
    }
    checks.push_back({"every round reproduces the first byte for byte",
                      identical, fmt("%zu rounds", walls.size())});

    if (!args.digest.empty()) {
      std::FILE* d = std::fopen(args.digest.c_str(), "w");
      if (d == nullptr) throw std::runtime_error("cannot write " + args.digest);
      std::fputs(first.digest.c_str(), d);
      std::fclose(d);
    }

    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);

    std::FILE* out = std::fopen(args.out.c_str(), "w");
    if (out == nullptr) throw std::runtime_error("cannot write " + args.out);
    const auto num = [out](const char* key, double value) {
      std::fprintf(out, "  \"%s\": %.17g,\n", key, value);
    };
    const auto hist_ms = [](const obs::Histogram& h) {
      return percentile_ms(h, 0.95);
    };
    std::fprintf(out, "{\n");
    std::fprintf(out, "  \"workload\": \"%s\",\n", args.workload.c_str());
    num("seed", static_cast<double>(args.seed));
    num("threads", static_cast<double>(args.threads));
    num("rounds", static_cast<double>(walls.size()));
    num("setup_s", (first.setup_end_ns - args.t0_ns) / 1e9);
    num("model_build_ms", first.first_build_ms);
    // Every round does identical simulated work, so the median round is
    // the run's host time per round; the sums feed the ledger.
    num("median_round_wall_s", median(walls));
    num("median_round_cpu_s", median(cpus));
    num("wall_s", sum(walls));
    num("cpu_s", sum(cpus));
    num("round_events", static_cast<double>(first.events));
    num("events", static_cast<double>(first.events) *
                      static_cast<double>(walls.size()));
    num("attempted", static_cast<double>(windows));
    num("failed", static_cast<double>(failed));
    num("peak_rss_kib", static_cast<double>(usage.ru_maxrss));
    num("nodes", static_cast<double>(first.nodes));
    num("wips", first.wips_sum / static_cast<double>(first.reported));
    num("wips_browse", first.wips_browse_sum / static_cast<double>(first.reported));
    num("wips_order", first.wips_order_sum / static_cast<double>(first.reported));
    num("p95_ms", percentile_ms(first.latency, 0.95));
    num("completions", static_cast<double>(first.ok));
    num("error_ratio", first.ok + first.errors > 0
                           ? static_cast<double>(first.errors) /
                                 static_cast<double>(first.ok + first.errors)
                           : 0.0);
    num("requests", static_cast<double>(first.requests));
    num("messages", static_cast<double>(first.messages));
    num("bytes", static_cast<double>(first.bytes));
    num("proxy_served", static_cast<double>(first.proxy_served));
    num("proxy_hits", static_cast<double>(first.proxy_hits));
    num("db_queries", static_cast<double>(first.db_queries));
    num("app_rejections", static_cast<double>(first.app_rejections));
    num("stale_served", static_cast<double>(first.stale_served));
    num("router_timeouts", static_cast<double>(first.router_timeouts));
    num("upstream_retries", static_cast<double>(first.upstream_retries));
    num("mark_downs", static_cast<double>(first.mark_downs));
    num("health_probes", static_cast<double>(first.health_probes));
    num("frontend_p95_ms", hist_ms(first.frontend_hop));
    num("app_hop_p95_ms", hist_ms(first.app_hop));
    num("db_hop_p95_ms", hist_ms(first.db_hop));
    num("pending_events_max", first.pending_max);
    num("cpu_util_max", first.cpu_util_max);
    num("disk_util_max", first.disk_util_max);
    num("iters_to_90", static_cast<double>(first.iters_to_90));
    num("evaluations", static_cast<double>(first.evaluations));
    num("admit_min", first.admit_min);
    num("admit_final", first.admit_final);
    num("shed_ratio", first.shed_ratio);
    num("stale_share", first.stale_share);
    num("reconfig_moves", static_cast<double>(first.reconfig_moves));
    num("harmony_us_per_report", first.harmony_us_per_report);
    num("apply_us", first.apply_us);
    std::fprintf(out, "  \"round_walls\": [");
    for (std::size_t i = 0; i < walls.size(); ++i) {
      std::fprintf(out, "%s%.9g", i ? ", " : "", walls[i]);
    }
    std::fprintf(out, "],\n");
    std::fprintf(out, "  \"digest_fnv1a\": \"%016llx\",\n",
                 static_cast<unsigned long long>(fnv1a(first.digest)));
    std::fprintf(out, "  \"checks\": [\n");
    for (std::size_t i = 0; i < checks.size(); ++i) {
      std::fprintf(out, "    {\"name\": \"%s\", \"ok\": %s, \"detail\": \"%s\"}%s\n",
                   json_escape(checks[i].name).c_str(),
                   checks[i].ok ? "true" : "false",
                   json_escape(checks[i].detail).c_str(),
                   i + 1 < checks.size() ? "," : "");
    }
    std::fprintf(out, "  ]\n}\n");
    std::fclose(out);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 2;
  }
  return 0;
}
