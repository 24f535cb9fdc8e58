// batchbench runner: runs one JSONL job manifest the way `elrr batch`
// runs it -- every line materialized into an svc::JobSpec, all of them
// submitted to one svc::Scheduler (dispatch paused until the whole
// manifest is in), results collected with wait() -- and prints what it
// measured as JSON lines for run.py to aggregate and check.
//
// Modes:
//   batchbench_runner batch --manifest F [--jobs N] [--threads T]
//       [--seconds S] [--rounds R] [--setup-samples K] [--trace PATH]
//       [--proc-workers N]
//     Repeats the batch in rounds, each on a fresh scheduler (so the
//     cross-job result cache never serves one round from another), until
//     S seconds of rounds have run or R rounds are done. One JSON line
//     per round, one per extra set-up sample, then a footer line.
//   batchbench_runner tput --manifest F
//     Times core::throughput_upper_bound on the identity configuration
//     of the manifest's first 3 distinct circuits, 3 calls each.
//   batchbench_runner work
//     A process-isolated fleet worker (the proc tier spawns
//     /proc/self/exe with this argument, like `elrr work`).
//
// The runner adds no instrumentation to the program: it times only its
// own calls into each layer. With --trace it arms the program's existing
// obs spans and records its own spans (bench.*) into the same rings, so
// one trace file holds both; a traced round also samples fleet
// utilization on a thread of its own.

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/tgmg.hpp"
#include "flow/circuit_flow.hpp"
#include "io/rrg_format.hpp"
#include "obs/trace.hpp"
#include "sim/proc_fleet.hpp"
#include "support/error.hpp"
#include "support/strings.hpp"
#include "svc/manifest.hpp"
#include "svc/scheduler.hpp"

namespace {

using namespace elrr;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double process_cpu_seconds() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string num(double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

/// Minimal "--key value" parser: every option takes one value.
class Options {
 public:
  Options(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      const std::string key = argv[i];
      ELRR_REQUIRE(starts_with(key, "--") && i + 1 < argc,
                   "expected --option value, got '", key, "'");
      values_[key.substr(2)] = argv[++i];
    }
  }
  std::string str(const std::string& key, const std::string& fallback) {
    const auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    used_.insert(key);
    return it->second;
  }
  double real(const std::string& key, double fallback) {
    const std::string text = str(key, "");
    if (text.empty()) return fallback;
    std::size_t end = 0;
    const double value = std::stod(text, &end);
    ELRR_REQUIRE(end == text.size() && value >= 0.0, "bad --", key, " '",
                 text, "'");
    return value;
  }
  std::size_t count(const std::string& key, std::size_t fallback) {
    return static_cast<std::size_t>(real(key, static_cast<double>(fallback)));
  }
  void finish() const {
    for (const auto& [key, value] : values_) {
      ELRR_REQUIRE(used_.count(key) != 0, "unknown option --", key);
    }
  }

 private:
  std::map<std::string, std::string> values_;
  std::set<std::string> used_;
};

/// What the runner remembers about a job before handing its spec over.
struct JobInfo {
  std::string circuit;
  std::uint64_t seed = 0;
  bool heuristic_only = false;
  double timeout_s = 0.0;
  double sim_cycles = 0.0;  ///< simulated cycles per unique simulation
};

/// Samples fleet utilization from outside the program, through the
/// public SimFleet::busy_workers() reading.
class FleetSampler {
 public:
  explicit FleetSampler(const sim::SimFleet& fleet)
      : thread_([this, &fleet] {
          while (!stop_.load(std::memory_order_relaxed)) {
            busy_sum_ += static_cast<double>(fleet.busy_workers());
            ++samples_;
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
          }
        }) {}
  ~FleetSampler() { stop(); }
  FleetSampler(const FleetSampler&) = delete;
  FleetSampler& operator=(const FleetSampler&) = delete;
  void stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }
  double mean_busy() const {
    return samples_ == 0 ? 0.0 : busy_sum_ / static_cast<double>(samples_);
  }

 private:
  std::atomic<bool> stop_{false};
  double busy_sum_ = 0.0;
  std::size_t samples_ = 0;
  std::thread thread_;  // last: starts after the fields it writes exist
};

/// Records a benchmark-side span when tracing is armed.
void bench_span(const char* name, std::int64_t start_ns) {
  obs::record_span(name, start_ns, obs::now_ns_if_armed());
}

struct SetupResult {
  std::vector<svc::JobSpec> specs;
  std::vector<JobInfo> infos;
};

/// Manifest parse + circuit generation: everything set-up does before
/// the scheduler exists.
SetupResult prepare(const std::string& manifest_path) {
  SetupResult setup;
  const std::int64_t span = obs::now_ns_if_armed();
  const std::vector<svc::ManifestEntry> entries =
      svc::parse_manifest(io::load_text_file(manifest_path));
  const flow::FlowOptions base;  // defaults: the manifest sets every knob
  for (const svc::ManifestEntry& entry : entries) {
    svc::JobSpec spec = svc::materialize(entry, base);
    JobInfo info;
    info.circuit = entry.circuit;
    info.seed = spec.flow.seed;
    info.heuristic_only =
        (spec.mode == svc::JobMode::kMinEffCyc ||
         spec.mode == svc::JobMode::kPortfolio) &&
        (spec.flow.heuristic_only ||
         static_cast<int>(spec.rrg.num_edges()) > spec.flow.exact_max_edges);
    info.timeout_s = spec.flow.milp_timeout_s;
    const sim::SimOptions sopt = flow::scoring_options(spec.flow);
    info.sim_cycles = static_cast<double>(sopt.runs) *
                      static_cast<double>(sopt.warmup_cycles +
                                          sopt.measure_cycles);
    setup.infos.push_back(std::move(info));
    setup.specs.push_back(std::move(spec));
  }
  bench_span("bench.generate", span);
  return setup;
}

svc::SchedulerOptions scheduler_options(std::size_t jobs,
                                        std::size_t threads) {
  svc::SchedulerOptions sopt;
  sopt.workers = jobs;
  sopt.sim_threads = threads;
  sopt.start_paused = true;  // as elrr batch: pick order = manifest order
  return sopt;
}

void print_job(std::ostream& out, const svc::JobResult& r,
               const JobInfo& info) {
  const svc::JobStats& st = r.stats;
  out << "{\"name\": \"" << json_escape(r.name) << "\", \"circuit\": \""
      << json_escape(info.circuit) << "\", \"seed\": " << info.seed
      << ", \"mode\": \"" << svc::to_string(r.mode) << "\", \"state\": \""
      << svc::to_string(r.state) << "\", \"degraded\": "
      << (r.degraded ? "true" : "false") << ", \"error\": \""
      << json_escape(r.error.substr(0, 200)) << "\", \"heuristic_only\": "
      << (info.heuristic_only ? "true" : "false")
      << ", \"timeout_s\": " << num(info.timeout_s)
      << ", \"sim_cycles\": " << num(info.sim_cycles)
      << ", \"wall_s\": " << num(st.wall_seconds)
      << ", \"walk_s\": " << num(st.walk_seconds)
      << ", \"sim_wait_s\": " << num(st.sim_wait_seconds)
      << ", \"candidates_walked\": " << st.candidates_walked
      << ", \"sim_jobs\": " << st.sim_jobs
      << ", \"unique_sims\": " << st.unique_simulations;
  const bool walk = r.mode == svc::JobMode::kMinEffCyc ||
                    r.mode == svc::JobMode::kPortfolio;
  if (walk) {
    const flow::CircuitResult& c = r.circuit;
    out << ", \"xi_nee\": " << num(c.xi_nee)
        << ", \"xi_sim_min\": " << num(c.xi_sim_min)
        << ", \"improve_percent\": " << num(c.improve_percent)
        << ", \"all_exact\": " << (c.all_exact ? "true" : "false")
        << ", \"thetas\": [";
    for (std::size_t i = 0; i < c.candidates.size(); ++i) {
      out << (i ? ", " : "") << num(c.candidates[i].theta_sim);
    }
    out << "]";
  } else {
    out << ", \"thetas\": [" << num(r.theta_sim) << "]";
  }
  out << "}";
}

/// One batch round, end to end. Prints its JSON line. Only a traced
/// round samples fleet utilization, so a measured round runs no thread
/// that `elrr batch` would not.
void run_round(const std::string& manifest, std::size_t jobs,
               std::size_t threads, std::size_t round, bool traced) {
  const auto setup_start = Clock::now();
  SetupResult setup = prepare(manifest);
  const std::int64_t span = obs::now_ns_if_armed();
  svc::Scheduler scheduler(scheduler_options(jobs, threads));
  bench_span("bench.start", span);
  const auto first_submit = Clock::now();
  const double cpu0 = process_cpu_seconds();

  std::optional<FleetSampler> sampler;
  if (traced) sampler.emplace(scheduler.fleet());
  std::vector<svc::JobId> ids;
  ids.reserve(setup.specs.size());
  for (svc::JobSpec& spec : setup.specs) {
    ids.push_back(scheduler.submit(std::move(spec)));
  }
  scheduler.resume();
  std::vector<svc::JobResult> results;
  results.reserve(ids.size());
  for (const svc::JobId id : ids) results.push_back(scheduler.wait(id));
  const auto last_result = Clock::now();
  const double cpu1 = process_cpu_seconds();
  if (sampler) sampler->stop();

  std::ostringstream out;
  out << "{\"round\": " << round << ", \"jobs_workers\": " << jobs
      << ", \"fleet_threads\": " << threads
      << ", \"proc_workers\": " << scheduler.fleet().proc_workers()
      << ", \"setup_s\": " << num(seconds_between(setup_start, first_submit))
      << ", \"makespan_s\": " << num(seconds_between(first_submit, last_result))
      << ", \"cpu_s\": " << num(cpu1 - cpu0)
      // The pool only grows, so its size now is the round's maximum.
      << ", \"fleet_pool_size\": " << scheduler.fleet().pool_size();
  if (sampler) out << ", \"fleet_busy_mean\": " << num(sampler->mean_busy());
  out << ", \"stats\": " << scheduler.stats_json() << ", \"results\": [";
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (i) out << ", ";
    print_job(out, results[i], setup.infos[i]);
  }
  out << "]}\n";
  std::cout << out.str() << std::flush;
}

int cmd_batch(Options& opt) {
  const std::string manifest = opt.str("manifest", "");
  ELRR_REQUIRE(!manifest.empty(), "batch needs --manifest");
  const std::size_t jobs = opt.count("jobs", 2);
  const std::size_t threads = opt.count("threads", 2);
  const double seconds = opt.real("seconds", 0.0);
  const std::size_t max_rounds = opt.count("rounds", 0);
  const std::size_t setup_samples = opt.count("setup-samples", 0);
  const std::string trace = opt.str("trace", "");
  const std::size_t proc_workers = opt.count("proc-workers", 0);
  opt.finish();
  ELRR_REQUIRE(jobs >= 1 && threads >= 1, "--jobs and --threads must be >= 1");
  ELRR_REQUIRE(seconds > 0.0 || max_rounds > 0,
               "give --seconds or --rounds");

  if (proc_workers > 0) {
    // Read by SimFleet at construction; the workers are this binary.
    ::setenv("ELRR_PROC_WORKERS", std::to_string(proc_workers).c_str(), 1);
  }
  if (!trace.empty()) {
    // Large rings: a traced round must drop no span (checked by run.py).
    const std::size_t capacity = std::size_t{1} << 18;
    ::setenv("ELRR_TRACE", trace.c_str(), 1);  // proc workers arm too
    ::setenv("ELRR_OBS_BUF", std::to_string(capacity).c_str(), 1);
    obs::configure(trace, capacity);
  }

  // Rounds: always at least one; another only while its predicted end
  // (the median round so far) stays inside the window.
  const auto window_start = Clock::now();
  std::vector<double> round_s;
  for (std::size_t round = 0;; ++round) {
    if (max_rounds > 0 && round >= max_rounds) break;
    if (round > 0 && max_rounds == 0) {
      std::vector<double> sorted = round_s;
      std::sort(sorted.begin(), sorted.end());
      const double typical = sorted[sorted.size() / 2];
      const double elapsed = seconds_between(window_start, Clock::now());
      if (elapsed + typical > seconds) break;
    }
    const auto t0 = Clock::now();
    run_round(manifest, jobs, threads, round, !trace.empty());
    round_s.push_back(seconds_between(t0, Clock::now()));
  }

  // Extra set-up samples (parse + generate + scheduler construction, no
  // submission), so setup_s has a median even when one round fills the
  // window: up to --setup-samples of them, at least 3, within ~1 s.
  const auto samples_start = Clock::now();
  for (std::size_t i = 0; i < setup_samples; ++i) {
    if (i >= 3 && seconds_between(samples_start, Clock::now()) > 1.0) break;
    const auto t0 = Clock::now();
    const SetupResult setup = prepare(manifest);
    const svc::Scheduler scheduler(scheduler_options(jobs, threads));
    std::cout << "{\"setup_sample\": " << i << ", \"setup_s\": "
              << num(seconds_between(t0, Clock::now())) << "}\n";
  }

  std::cout << "{\"footer\": true, \"peak_rss_mb\": " << num(peak_rss_mb())
            << ", \"dropped_spans\": " << obs::dropped_spans() << "}\n"
            << std::flush;
  if (!trace.empty()) obs::write_trace(trace);
  return 0;
}

int cmd_tput(Options& opt) {
  const std::string manifest = opt.str("manifest", "");
  ELRR_REQUIRE(!manifest.empty(), "tput needs --manifest");
  opt.finish();
  constexpr std::size_t kCircuits = 3;
  constexpr std::size_t kCalls = 3;
  const std::vector<svc::ManifestEntry> entries =
      svc::parse_manifest(io::load_text_file(manifest));
  std::set<std::pair<std::string, std::uint64_t>> seen;
  for (const svc::ManifestEntry& entry : entries) {
    if (seen.size() >= kCircuits) break;
    const std::uint64_t seed = entry.seed.value_or(flow::FlowOptions{}.seed);
    if (!seen.insert({entry.circuit, seed}).second) continue;
    const svc::JobSpec spec = svc::materialize(entry, flow::FlowOptions{});
    std::vector<double> per_call;
    double bound = 0.0;
    for (std::size_t k = 0; k < kCalls; ++k) {
      const auto t0 = Clock::now();
      bound = throughput_upper_bound(spec.rrg);
      per_call.push_back(seconds_between(t0, Clock::now()));
    }
    std::sort(per_call.begin(), per_call.end());
    std::cout << "{\"circuit\": \"" << json_escape(entry.circuit)
              << "\", \"seed\": " << seed
              << ", \"edges\": " << spec.rrg.num_edges()
              << ", \"theta_bound\": " << num(bound)
              << ", \"call_s_median\": " << num(per_call[per_call.size() / 2])
              << ", \"calls\": " << kCalls << "}\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const std::string mode = argc > 1 ? argv[1] : "";
    if (mode == "work") {
      // Inherits ELRR_TRACE from a traced supervisor; its spans travel
      // back over the pipe protocol, so it never writes the file itself.
      obs::configure_from_env();
      obs::set_export_on_exit(false);
      return sim::proc::worker_loop(/*in_fd=*/0, /*out_fd=*/1);
    }
    Options opt(argc, argv, 2);
    if (mode == "batch") return cmd_batch(opt);
    if (mode == "tput") return cmd_tput(opt);
    std::cerr << "usage: batchbench_runner batch|tput|work [--option value]...\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "batchbench_runner: " << e.what() << "\n";
    return 1;
  }
}
