// perfbench_driver: runs one benchmark workload against the autolock
// library and prints one JSON object (the last line of stdout). run.py
// builds this binary and drives it; see perfbench/README.md for the
// workloads and metrics.
//
//   perfbench_driver --mode run --workload evolve-c880 --seed 1
//                    --seconds 10 --trace 0 --out DIR
//
// Modes:
//   run      setup, then jobs back to back for --seconds (at least
//            kMinJobs), output checks, and with --trace 1 one traced job
//            whose spans give the per-layer split;
//   setup    the workload's setup only; reports the time since --t0-ns
//            (CLOCK_MONOTONIC at spawn), i.e. process start to the
//            measured phase;
//   probe    calibrated parallel-burn probe of the host.
//
// run spawns perfbench_reference (reference.cpp) before each job and after
// the last; it must sit next to this binary.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include "attacks/sat_attack.hpp"
#include "campaign/campaign.hpp"
#include "core/ga.hpp"
#include "core/heuristics.hpp"
#include "core/nsga2.hpp"
#include "eval/pipeline.hpp"
#include "eval/registry.hpp"
#include "eval/workspace.hpp"
#include "locking/compound.hpp"
#include "locking/verify.hpp"
#include "netlist/bench_io.hpp"
#include "netlist/generator.hpp"
#include "sat/cnf.hpp"
#include "trace.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace autolock;
using perfbench::trace::Recorder;
using perfbench::trace::Span;

// ---- workload shapes -------------------------------------------------------

constexpr std::size_t kMinJobs = 3;
// On the 4-vCPU VM this was tuned on, threads started after an idle spell
// ran serialized for up to ~1 s; every measured phase and probe starts after
// this long a burn on all cores.
constexpr double kWarmUpSeconds = 1.0;

// evolve-c880: the paper's Fig. 1 GA.
constexpr std::size_t kEvolveKeyBits = 32;
constexpr std::size_t kEvolvePopulation = 48;
constexpr std::size_t kEvolveGenerations = 20;
// Simulation vectors of the written winner's unlock check.
constexpr std::size_t kEvolveVerifyVectors = 2048;


const std::vector<std::string>& builtin_attacks() {
  static const std::vector<std::string> names = {
      "muxlink", "muxlink-ensemble", "sat", "scope", "structural"};
  return names;
}

const std::vector<std::string>& optimizers() {
  static const std::vector<std::string> names = {"ga", "nsga2", "hillclimb",
                                                 "random"};
  return names;
}

/// This binary's path (argv[0]); perfbench_reference sits next to it.
std::string& self_path() {
  static std::string path;
  return path;
}

std::size_t nproc() {
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

struct Options {
  std::string mode = "run";
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out = ".";
  long long t0_ns = 0;
};

// ---- small utilities -------------------------------------------------------

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

/// CPU time of every thread of the process.
double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t hash = 14695981039346656037ULL;
  for (unsigned char c : text) {
    hash ^= c;
    hash *= 1099511628211ULL;
  }
  return hash;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

std::string json_escape(const std::string& text) {
  std::string out;
  for (char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
  }
  return out;
}

/// Output checks behind `attempted` / `failed`.
struct Checks {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> failures;

  void expect(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      failures.push_back(what);
    }
  }
};

/// Everything one `run` reports; printed as one JSON object.
struct Report {
  std::map<std::string, double> e2e;
  std::map<std::string, double> layers;
  std::map<std::string, std::string> outputs;
  Checks checks;
};

/// Wall and CPU seconds of one job's measured part, and the CPU seconds of
/// the reference kernel around it (the mean of the passes before and after).
struct JobTime {
  double wall = 0.0;
  double cpu = 0.0;
  double ref = 0.0;
};

template <typename Fn>
JobTime timed(Fn&& fn) {
  const double wall = perfbench::trace::now_s();
  const double cpu = cpu_seconds();
  fn();
  return {perfbench::trace::now_s() - wall, cpu_seconds() - cpu};
}

// ---- reference kernel ------------------------------------------------------

/// Size of the reference kernel (perfbench/reference.cpp) a workload runs
/// between its jobs.
struct ReferenceShape {
  std::size_t gates = 0;    // per thread
  std::size_t threads = 1;  // as many as the workload's jobs use
  std::size_t passes = 1;
};

/// The reference kernel of a workload: the jobs' thread count, a DAG small
/// enough for a core's L1 cache (so the pass measures core speed, not which
/// pages it landed on), and passes for a sixth to a tenth of a job's CPU
/// time.
ReferenceShape reference_shape(const std::string& workload) {
  if (workload == "evolve-c880") return {1 << 11, nproc(), 66000};
  return {1 << 11, nproc(), 240000};
}

/// Runs the workload's reference kernel: the perfbench_reference binary
/// next to this one, in a child process, so its memory never counts toward
/// peak_rss_mb. Waits for it; returns the CPU seconds it reports.
double reference_in_child(const Options& opt) {
  const ReferenceShape shape = reference_shape(opt.workload);
  const std::string& self = self_path();
  const std::size_t slash = self.rfind('/');
  std::vector<std::string> args = {
      (slash == std::string::npos ? std::string(".")
                                  : self.substr(0, slash)) +
          "/perfbench_reference",
      std::to_string(shape.gates), std::to_string(shape.threads),
      std::to_string(shape.passes)};
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("reference: pipe failed");
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  pid_t pid = 0;
  const int spawned =
      posix_spawn(&pid, argv[0], &actions, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  std::string text;
  if (spawned == 0) {
    char buffer[256];
    ssize_t n = 0;
    while ((n = read(fds[0], buffer, sizeof buffer)) > 0) {
      text.append(buffer, static_cast<std::size_t>(n));
    }
  }
  close(fds[0]);
  int status = 0;
  if (spawned != 0 || waitpid(pid, &status, 0) != pid ||
      !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("reference kernel " + args[0] + " failed");
  }
  return std::stod(text);
}

/// Jobs back to back until `seconds` have passed (at least kMinJobs), with a
/// reference pass before each job and after the last. Each job returns the
/// times of its measured part, so per-job set-up and checks can sit outside
/// it.
std::vector<JobTime> run_jobs(double seconds,
                              const std::function<double()>& reference,
                              const std::function<JobTime()>& job) {
  std::vector<JobTime> times;
  std::vector<double> refs{reference()};
  const double begin = perfbench::trace::now_s();
  while (times.size() < kMinJobs ||
         perfbench::trace::now_s() - begin < seconds) {
    times.push_back(job());
    refs.push_back(reference());
  }
  for (std::size_t i = 0; i < times.size(); ++i) {
    times[i].ref = 0.5 * (refs[i] + refs[i + 1]);
  }
  return times;
}

// ---- traced attack decorator ----------------------------------------------

/// Genotypes the fitness attacks saw, so the traced run can replay their
/// decodes through EvalPipeline::decode_into (the in-loop decode happens
/// inside the pipeline, out of the benchmark's reach).
struct DecodeCapture {
  std::mutex mutex;
  bool active = false;
  std::string attack;  // capture on this attack's calls (one per evaluation)
  std::vector<lock::Genotype> genotypes;

  void start(const std::string& first_attack) {
    std::lock_guard<std::mutex> lock(mutex);
    active = true;
    attack = first_attack;
    genotypes.clear();
  }
  void stop() {
    std::lock_guard<std::mutex> lock(mutex);
    active = false;
  }
};

DecodeCapture& decode_capture() {
  static DecodeCapture capture;
  return capture;
}

constexpr const char* kTracedPrefix = "traced/";

/// Counts the key bits an attack reached, for attack.<name>.attacked_fraction.
void count_reach(const eval::AttackReport& report) {
  Recorder& r = Recorder::instance();
  const double bits = static_cast<double>(report.key_bits);
  r.count("attack." + report.attack + ".key_bits", bits);
  r.count("attack." + report.attack + ".reached_bits",
          report.attacked_fraction * bits);
}

/// Wraps a built-in attack: one span per evaluate() plus reached-bit counts.
/// Its reports are the wrapped attack's, so fitness values do not change.
class TracedAttack : public eval::Attack {
 public:
  TracedAttack(const std::string& inner, const eval::AttackOptions& options)
      : inner_(eval::make_attack(inner, options)), span_("attack." + inner) {}

  const std::string& name() const noexcept override { return inner_->name(); }

  eval::AttackReport evaluate(const lock::LockedDesign& design) const override {
    return record(design, [&] { return inner_->evaluate(design); });
  }
  eval::AttackReport evaluate(const lock::LockedDesign& design,
                              eval::EvalWorkspace& workspace) const override {
    return record(design, [&] { return inner_->evaluate(design, workspace); });
  }

 private:
  template <typename Fn>
  eval::AttackReport record(const lock::LockedDesign& design, Fn fn) const {
    DecodeCapture& capture = decode_capture();
    {
      std::lock_guard<std::mutex> lock(capture.mutex);
      if (capture.active && capture.attack == inner_->name()) {
        capture.genotypes.push_back(design.genes);
      }
    }
    eval::AttackReport report;
    {
      Span span("attacks", span_);
      report = fn();
    }
    count_reach(report);
    return report;
  }

  std::unique_ptr<eval::Attack> inner_;
  std::string span_;
};

void register_traced_attacks() {
  for (const std::string& name : builtin_attacks()) {
    eval::AttackRegistry::instance().add(
        kTracedPrefix + name, [name](const eval::AttackOptions& options) {
          return std::make_unique<TracedAttack>(name, options);
        });
  }
}

std::vector<std::string> attack_names(const std::vector<std::string>& names,
                                      bool traced) {
  std::vector<std::string> out;
  for (const std::string& name : names) {
    out.push_back(traced ? kTracedPrefix + name : name);
  }
  return out;
}

/// Replays the captured evaluation decodes through decode_into, one span
/// per call. The replay is extra work of the traced run; its wall time is
/// counted as trace.decode_replay_s so the overhead figure can leave it out.
void replay_decodes(const eval::EvalPipeline& pipeline) {
  const double start = perfbench::trace::now_s();
  eval::EvalWorkspace workspace;
  for (const lock::Genotype& genes : decode_capture().genotypes) {
    Span span("locking", "locking.decode");
    pipeline.decode_into(workspace, genes);
  }
  Recorder::instance().count("trace.decode_replay_s",
                             perfbench::trace::now_s() - start);
}

// ---- per-layer metrics shared by all workloads -----------------------------

/// Fills every per-layer metric with 0 so each workload reports the full
/// set (a layer a workload never calls reads 0).
void zero_layers(Report& report) {
  for (const char* name :
       {"netlist.load_s", "netlist.save_s", "netlist.generate_s",
        "locking.decode.calls", "locking.decode.us_per_call",
        "locking.corruption_s", "locking.verify_sim_s", "sat.dip_iterations",
        "sat.conflicts", "sat.propagations", "sat.mprops_per_s",
        "sat.budget_exhausted", "sat.miter.calls", "sat.miter_s",
        "eval.evaluations", "eval.cache_hits", "eval.cache_hit_ratio",
        "eval.evals_per_s", "eval.pipeline_ctor_s", "core.ga.generations",
        "campaign.lock_phase_s", "campaign.cell_phase_s",
        "campaign.cell_busy_s", "campaign.cell_parallelism",
        "util.job_wall_s", "util.cpu_per_wall", "trace.overhead_frac",
        "trace.uncovered_frac"}) {
    report.layers[name] = 0.0;
  }
  for (const std::string& attack : builtin_attacks()) {
    for (const char* field : {".calls", ".busy_s", ".attacked_fraction"}) {
      report.layers["attack." + attack + field] = 0.0;
    }
  }
  for (const std::string& opt : optimizers()) {
    report.layers["core." + opt + ".busy_s"] = 0.0;
    report.layers["core." + opt + ".evaluations"] = 0.0;
  }
  for (const std::string& layer : perfbench::trace::layers()) {
    report.layers["self." + layer + "_s"] = 0.0;
  }
}

/// Span-derived per-layer metrics of the traced window [begin, end).
void fill_span_layers(Report& report, double begin, double end) {
  const Recorder& r = Recorder::instance();
  report.layers["netlist.load_s"] = r.busy_s("netlist.load");
  report.layers["netlist.save_s"] = r.busy_s("netlist.save");
  report.layers["netlist.generate_s"] = r.busy_s("netlist.generate");
  const std::size_t decodes = r.calls("locking.decode");
  report.layers["locking.decode.calls"] = static_cast<double>(decodes);
  report.layers["locking.decode.us_per_call"] =
      decodes == 0 ? 0.0
                   : 1e6 * r.busy_s("locking.decode") /
                         static_cast<double>(decodes);
  report.layers["locking.corruption_s"] = r.busy_s("locking.corruption");
  report.layers["locking.verify_sim_s"] = r.busy_s("locking.verify_sim");
  report.layers["sat.miter.calls"] =
      static_cast<double>(r.calls("sat.miter"));
  report.layers["sat.miter_s"] = r.busy_s("sat.miter");
  report.layers["eval.pipeline_ctor_s"] = r.busy_s("eval.pipeline_ctor");
  for (const std::string& attack : builtin_attacks()) {
    const std::string span = "attack." + attack;
    report.layers[span + ".calls"] = static_cast<double>(r.calls(span));
    report.layers[span + ".busy_s"] = r.busy_s(span);
    const double bits = r.count_of(span + ".key_bits");
    report.layers[span + ".attacked_fraction"] =
        bits == 0.0 ? 0.0 : r.count_of(span + ".reached_bits") / bits;
  }
  double optimizer_s = 0.0;
  for (const std::string& opt : optimizers()) {
    const double busy = r.busy_s("core." + opt + ".run");
    report.layers["core." + opt + ".busy_s"] = busy;
    optimizer_s += busy;
  }
  const double evals = report.layers["eval.evaluations"];
  const double hits = report.layers["eval.cache_hits"];
  report.layers["eval.cache_hit_ratio"] =
      evals + hits == 0.0 ? 0.0 : hits / (evals + hits);
  report.layers["eval.evals_per_s"] =
      optimizer_s > 0.0 ? evals / optimizer_s : 0.0;
  const auto spans = r.spans();
  for (const auto& [layer, self] :
       perfbench::trace::self_time_by_layer(spans)) {
    report.layers["self." + layer + "_s"] = self;
  }
  report.layers["trace.uncovered_frac"] =
      perfbench::trace::uncovered_fraction(spans, begin, end);
}

/// Adds a traced pipeline's counters (call before fill_span_layers).
void add_eval_counters(Report& report, const eval::EvalPipeline& pipeline) {
  report.layers["eval.evaluations"] +=
      static_cast<double>(pipeline.evaluations());
  report.layers["eval.cache_hits"] +=
      static_cast<double>(pipeline.cache_hits());
}

/// Measured-phase metrics every workload reports.
void set_e2e(Report& report, const std::vector<JobTime>& jobs,
             double units_per_job) {
  std::vector<double> walls;
  std::vector<double> cpus;
  std::vector<double> refs;
  std::vector<double> costs;
  std::vector<double> rates;
  std::ostringstream wall_list;
  std::ostringstream cpu_list;
  std::ostringstream ref_list;
  double cpu_sum = 0.0;
  double wall_sum = 0.0;
  for (const JobTime& t : jobs) {
    walls.push_back(t.wall);
    cpus.push_back(t.cpu);
    refs.push_back(t.ref);
    costs.push_back(t.cpu / t.ref);
    rates.push_back(units_per_job / t.wall);
    cpu_sum += t.cpu;
    wall_sum += t.wall;
    wall_list << (walls.size() > 1 ? " " : "") << t.wall;
    cpu_list << (cpus.size() > 1 ? " " : "") << t.cpu;
    ref_list << (refs.size() > 1 ? " " : "") << t.ref;
  }
  const double cpu_per_wall = cpu_sum / wall_sum;
  report.e2e["cpu_ref"] = median(costs);
  report.e2e["peak_rss_mb"] = peak_rss_mb();
  report.layers["util.job_wall_s"] = median(walls);
  report.layers["util.job_cpu_s"] = median(cpus);
  report.layers["util.ref_cpu_s"] = median(refs);
  report.layers["util.cpu_per_wall"] = cpu_per_wall;
  report.outputs["units_per_s"] = std::to_string(median(rates));
  report.outputs["job_seconds"] = wall_list.str();
  report.outputs["job_cpu_seconds"] = cpu_list.str();
  report.outputs["ref_cpu_seconds"] = ref_list.str();
  report.outputs["cpu_per_wall"] = std::to_string(cpu_per_wall);
}

/// Integer busy work the compiler cannot fold away.
std::uint64_t burn(std::uint64_t iterations, std::uint64_t seed) {
  std::uint64_t x = seed | 1;
  for (std::uint64_t i = 0; i < iterations; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return x;
}

/// Keeps every core busy for `seconds`, so idle cores are awake before the
/// measured phase starts.
void warm_up(double seconds) {
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < nproc(); ++t) {
    threads.emplace_back([seconds, t] {
      volatile std::uint64_t sink = 0;
      const double end = perfbench::trace::now_s() + seconds;
      while (perfbench::trace::now_s() < end) sink = sink + burn(1 << 16, t);
    });
  }
  for (auto& thread : threads) thread.join();
}

/// Measures jobs for --seconds, each between two reference passes.
std::vector<JobTime> measure(const Options& opt,
                             const std::function<JobTime()>& job) {
  warm_up(kWarmUpSeconds);
  return run_jobs(opt.seconds, [&] { return reference_in_child(opt); }, job);
}

// ---- evolve-c880 -----------------------------------------------------------

struct EvolveOutcome {
  double best_fitness = 0.0;
  std::size_t evaluations = 0;
  std::size_t cache_hits = 0;
  std::size_t generations = 0;
  lock::Genotype best;
  bool file_unlocks = false;
  bool operator==(const EvolveOutcome&) const = default;
};

eval::EvalPipelineConfig evolve_pipeline_config(std::uint64_t seed,
                                                bool traced) {
  eval::EvalPipelineConfig config;
  config.attacks = attack_names({"structural", "scope"}, traced);
  config.cache = true;
  config.threads = nproc();
  config.seed = seed;
  return config;
}

EvolveOutcome evolve_once(const netlist::Netlist& original,
                          eval::EvalPipeline& pipeline, std::uint64_t seed) {
  ga::GaConfig config;
  config.population = kEvolvePopulation;
  config.generations = kEvolveGenerations;
  config.seed = seed;
  ga::GeneticAlgorithm engine(original, config);
  const ga::GaResult result = engine.run(kEvolveKeyBits, pipeline);
  return {result.best.eval.fitness, result.evaluations, pipeline.cache_hits(),
          result.history.size(), result.best.genes};
}

/// The designer's last steps after the GA: decode the winner, write it as a
/// .bench file, read the file back and check by simulation that it unlocks
/// under the winner's key.
bool evolve_file_flow(const Options& opt, const netlist::Netlist& original,
                      const eval::EvalPipeline& pipeline,
                      const lock::Genotype& best) {
  const std::string path = opt.out + "/evolve-c880-seed" +
                           std::to_string(opt.seed) + "-locked.bench";
  lock::LockedDesign design;
  {
    Span span("locking", "locking.decode");
    design = pipeline.decode(best);
  }
  {
    Span span("netlist", "netlist.save");
    netlist::bench::save_file(design.netlist, path);
  }
  lock::LockedDesign reloaded;
  {
    Span span("netlist", "netlist.load");
    reloaded.netlist = netlist::bench::load_file(path);
  }
  reloaded.key = design.key;
  Span span("locking", "locking.verify_sim");
  return lock::verify_unlocks(reloaded, original,
                              lock::VerifyMode::kSimulation,
                              kEvolveVerifyVectors, opt.seed);
}

void evolve_setup(std::uint64_t seed) {
  const netlist::Netlist original =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC880);
  eval::EvalPipeline pipeline(original, evolve_pipeline_config(seed, false));
}

Report evolve_run(const Options& opt) {
  Report report;
  zero_layers(report);
  const netlist::Netlist original =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC880);
  std::vector<EvolveOutcome> outcomes;
  const auto times = measure(opt, [&] {
    // A fresh pipeline per job: its fitness cache must start cold. Its
    // construction is set-up, outside the job's wall time.
    eval::EvalPipeline pipeline(original,
                                evolve_pipeline_config(opt.seed, false));
    return timed([&] {
      EvolveOutcome outcome = evolve_once(original, pipeline, opt.seed);
      outcome.file_unlocks =
          evolve_file_flow(opt, original, pipeline, outcome.best);
      outcomes.push_back(std::move(outcome));
    });
  });
  set_e2e(report, times, static_cast<double>(kEvolveGenerations));

  const EvolveOutcome& first = outcomes.front();
  for (std::size_t i = 1; i < outcomes.size(); ++i) {
    report.checks.expect(outcomes[i] == first,
                         "evolve job " + std::to_string(i) +
                             " diverged from job 0");
  }
  report.checks.expect(first.file_unlocks,
                       "written winner does not unlock (simulation)");
  const lock::LockedDesign winner =
      ga::GeneticAlgorithm(original, ga::GaConfig{}).decode(first.best);
  report.checks.expect(
      sat::check_unlocks(winner.netlist, winner.key, original),
      "evolved winner does not unlock (SAT miter)");
  std::ostringstream fitness;
  fitness.precision(17);
  fitness << first.best_fitness;
  report.outputs["best_fitness"] = fitness.str();
  report.outputs["evaluations"] = std::to_string(first.evaluations);
  report.outputs["cache_hits"] = std::to_string(first.cache_hits);

  if (!opt.trace) return report;

  // Traced job: the same steps with spans around each layer call.
  Recorder& r = Recorder::instance();
  r.enable(true);
  const double begin = perfbench::trace::now_s();
  std::unique_ptr<netlist::Netlist> traced_original;
  {
    Span span("netlist", "netlist.generate");
    traced_original = std::make_unique<netlist::Netlist>(
        netlist::gen::make_profile(netlist::gen::ProfileId::kC880));
  }
  std::unique_ptr<eval::EvalPipeline> pipeline;
  {
    Span span("eval", "eval.pipeline_ctor");
    pipeline = std::make_unique<eval::EvalPipeline>(
        *traced_original, evolve_pipeline_config(opt.seed, true));
  }
  decode_capture().start("structural");
  EvolveOutcome traced;
  const double ga_start = perfbench::trace::now_s();
  {
    Span span("core", "core.ga.run");
    traced = evolve_once(*traced_original, *pipeline, opt.seed);
  }
  double job_seconds = perfbench::trace::now_s() - ga_start;
  decode_capture().stop();
  replay_decodes(*pipeline);
  const double file_start = perfbench::trace::now_s();
  traced.file_unlocks =
      evolve_file_flow(opt, *traced_original, *pipeline, traced.best);
  job_seconds += perfbench::trace::now_s() - file_start;
  lock::LockedDesign traced_winner;
  {
    Span span("locking", "locking.decode");
    traced_winner = pipeline->decode(traced.best);
  }
  bool unlocks = false;
  {
    Span span("sat", "sat.miter");
    unlocks = sat::check_unlocks(traced_winner.netlist, traced_winner.key,
                                 *traced_original);
  }
  const double end = perfbench::trace::now_s();
  r.enable(false);

  report.checks.expect(traced == first,
                       "traced evolve job diverged from the untraced jobs");
  report.checks.expect(unlocks, "traced winner does not unlock");
  report.checks.expect(
      decode_capture().genotypes.size() == pipeline->evaluations(),
      "decode capture count != pipeline evaluations");
  add_eval_counters(report, *pipeline);
  fill_span_layers(report, begin, end);
  report.layers["core.ga.evaluations"] =
      static_cast<double>(traced.evaluations);
  report.layers["core.ga.generations"] =
      static_cast<double>(traced.generations);
  report.layers["trace.overhead_frac"] =
      job_seconds / report.layers["util.job_wall_s"] - 1.0;
  r.write_json(opt.out + "/trace-evolve-c880-seed" + std::to_string(opt.seed) +
                   ".json",
               begin);
  return report;
}

// ---- campaign-iscas --------------------------------------------------------

campaign::CampaignSpec campaign_spec(std::uint64_t seed) {
  campaign::CampaignSpec spec = campaign::full_spec();
  spec.name = "campaign-iscas";
  // The three ISCAS rows only: the synth100k row alone costs more than a run.
  spec.circuits.erase(
      std::remove_if(spec.circuits.begin(), spec.circuits.end(),
                     [](const campaign::CircuitAxis& c) {
                       return c.name == "synth100k";
                     }),
      spec.circuits.end());
  // Explicit, so the traced decorators registered in this process never
  // add cells of their own.
  spec.attacks = builtin_attacks();
  spec.threads = nproc();
  spec.seed = seed;
  return spec;
}

/// campaign.cpp's key-layout round trip, replayed through public calls.
bool key_layout_ok(const lock::LockedDesign& design) {
  std::size_t expected = 0;
  for (const auto& gene : design.genes) expected += gene.key_bits();
  if (design.key.size() != expected ||
      design.netlist.key_inputs().size() != expected) {
    return false;
  }
  const auto layout = lock::key_layout(design.genes);
  if (layout.size() != expected) return false;
  std::size_t t = 0;
  for (std::size_t g = 0; g < design.genes.size(); ++g) {
    for (std::size_t b = 0; b < design.genes[g].key_bits(); ++b, ++t) {
      const lock::KeyBitSlot& slot = layout[t];
      if (slot.gene != g || slot.kind != design.genes[g].kind ||
          slot.bit_in_gene != b) {
        return false;
      }
    }
  }
  return true;
}

struct ReplayJob {
  campaign::LockResult summary;
  lock::LockedDesign design;
};

ReplayJob replay_lock_job(const campaign::CampaignSpec& spec,
                          const campaign::CircuitAxis& circuit,
                          const campaign::SchemeAxis& scheme,
                          const std::string& optimizer,
                          const netlist::Netlist& original,
                          eval::EvalPipeline& pipeline) {
  Span job_span("campaign", "campaign.lock_job");
  const std::uint64_t seed =
      campaign::axis_seed(spec.seed, circuit.name, scheme.name, optimizer);
  ga::Genotype best;
  double fitness = 0.0;
  std::size_t evaluations = 0;
  decode_capture().start(spec.fitness_attacks.front());
  {
    Span span("core", "core." + optimizer + ".run");
    if (optimizer == "ga") {
      ga::GaConfig config;
      config.population = spec.budget.ga_population;
      config.generations = spec.budget.ga_generations;
      config.elites = std::min<std::size_t>(2, config.population);
      config.seed = seed;
      ga::GaResult r = ga::GeneticAlgorithm(original, config)
                           .run(scheme.spec, pipeline);
      best = std::move(r.best.genes);
      fitness = r.best.eval.fitness;
      evaluations = r.evaluations;
      Recorder::instance().count("core.ga.generations",
                                 static_cast<double>(r.history.size()));
    } else if (optimizer == "nsga2") {
      ga::Nsga2Config config;
      config.population = spec.budget.nsga2_population;
      config.generations = spec.budget.nsga2_generations;
      config.seed = seed;
      ga::Nsga2Result r =
          ga::Nsga2(original, config).run(scheme.spec, pipeline);
      const ga::MoIndividual* pick = &r.front.front();
      for (const auto& individual : r.front) {
        if (individual.objectives < pick->objectives) pick = &individual;
      }
      best = pick->genes;
      double sum = 0.0;
      for (double objective : pick->objectives) sum += objective;
      fitness = pick->objectives.empty()
                    ? 0.0
                    : 1.0 - sum / static_cast<double>(pick->objectives.size());
      evaluations = r.evaluations;
    } else if (optimizer == "hillclimb") {
      ga::HillClimbConfig config;
      config.evaluations = spec.budget.heuristic_evaluations;
      config.seed = seed;
      ga::HeuristicResult r = ga::hill_climb(pipeline, scheme.spec, config);
      best = std::move(r.best.genes);
      fitness = r.best.eval.fitness;
      evaluations = r.evaluations;
    } else {
      ga::RandomSearchConfig config;
      config.evaluations = spec.budget.heuristic_evaluations;
      config.seed = seed;
      ga::HeuristicResult r = ga::random_search(pipeline, scheme.spec, config);
      best = std::move(r.best.genes);
      fitness = r.best.eval.fitness;
      evaluations = r.evaluations;
    }
  }
  decode_capture().stop();
  Recorder::instance().count("core." + optimizer + ".evaluations",
                             static_cast<double>(evaluations));
  replay_decodes(pipeline);

  ReplayJob job;
  {
    Span span("locking", "locking.decode");
    job.design = pipeline.decode(best);
  }
  campaign::LockResult& lock = job.summary;
  lock.circuit = circuit.name;
  lock.scheme = scheme.name;
  lock.optimizer = optimizer;
  lock.key_bits = job.design.key.size();
  lock.genes = job.design.genes.size();
  lock.original_gates = original.gate_count();
  lock.locked_gates = job.design.netlist.gate_count();
  lock.fitness = fitness;
  lock.optimizer_evaluations = evaluations;
  {
    Span span("locking", "locking.corruption");
    const lock::CorruptionReport corruption = lock::measure_corruption(
        job.design, original, spec.corruption_keys, spec.corruption_vectors,
        campaign::axis_seed(spec.seed, circuit.name, scheme.name, optimizer,
                            "verify.corruption"));
    lock.corruption_mean = corruption.mean_error_rate;
    lock.corruption_min = corruption.min_error_rate;
    lock.silent_wrong_keys = corruption.silent_wrong_keys;
  }
  lock.key_layout_ok = key_layout_ok(job.design);
  lock.equivalence_checked = spec.verify_equivalence;
  if (spec.verify_equivalence) {
    // The ISCAS circuits sit under sat_equivalence_gate_limit: SAT miter.
    Span span("sat", "sat.miter");
    lock.correct_key_equivalent =
        sat::check_unlocks(job.design.netlist, job.design.key, original);
  }
  return job;
}

/// campaign.cpp's report comparison for the determinism re-run.
bool reports_equal(const eval::AttackReport& a, const eval::AttackReport& b) {
  return a.attack == b.attack && a.key_bits == b.key_bits &&
         a.accuracy == b.accuracy && a.precision == b.precision &&
         a.decided_fraction == b.decided_fraction &&
         a.attacked_fraction == b.attacked_fraction &&
         a.key_recovery == b.key_recovery && a.key_recovered == b.key_recovered;
}

/// The "sat" cell's first run goes straight to attack::SatAttack so its
/// solver counts can be read; the report is built as the registry adapter
/// builds it, and the adapter's re-run (the determinism stage) must agree.
eval::AttackReport sat_cell_report(const eval::AttackOptions& options,
                                   const lock::LockedDesign& design,
                                   const netlist::Netlist& original) {
  attack::SatAttackResult result;
  {
    Span span("attacks", "attack.sat");
    result = attack::SatAttack(options.sat).attack(design.netlist, original);
  }
  Recorder& r = Recorder::instance();
  r.count("sat.dip_iterations", static_cast<double>(result.dip_iterations));
  r.count("sat.conflicts", static_cast<double>(result.total_conflicts));
  r.count("sat.propagations", static_cast<double>(result.total_propagations));
  r.count("sat.solve_s", result.seconds);
  if (options.sat.max_iterations != 0 &&
      result.dip_iterations >= options.sat.max_iterations) {
    r.count("sat.budget_exhausted", 1.0);
  }
  eval::AttackReport report;
  report.attack = "sat";
  report.key_bits = design.key.size();
  report.accuracy = result.success ? 1.0 : 0.0;
  report.decided_fraction = result.success ? 1.0 : 0.0;
  std::size_t matching = 0;
  const std::size_t bits = std::min(result.recovered_key.size(),
                                    design.key.size());
  for (std::size_t b = 0; b < bits; ++b) {
    if (result.recovered_key[b] == design.key[b]) ++matching;
  }
  report.key_recovery = design.key.empty()
                            ? (result.success ? 1.0 : 0.0)
                            : static_cast<double>(matching) /
                                  static_cast<double>(design.key.size());
  report.precision = report.key_recovery;
  report.key_recovered = result.success;
  report.seconds = result.seconds;
  count_reach(report);
  return report;
}

campaign::CellResult replay_cell(const campaign::CampaignSpec& spec,
                                 const campaign::CircuitAxis& circuit,
                                 const ReplayJob& job,
                                 const std::string& attack_name,
                                 const netlist::Netlist& original,
                                 eval::EvalWorkspace& workspace) {
  Span cell_span("campaign", "campaign.cell");
  eval::AttackOptions options;
  options.oracle = &original;
  options.muxlink = spec.muxlink;
  options.sat.max_iterations = spec.sat_max_iterations;
  options.seed = campaign::axis_seed(spec.seed, circuit.name,
                                     job.summary.scheme, job.summary.optimizer,
                                     attack_name);
  const eval::AttackReport report =
      attack_name == "sat"
          ? sat_cell_report(options, job.design, original)
          : eval::make_attack(kTracedPrefix + attack_name, options)
                ->evaluate(job.design, workspace);

  campaign::CellResult cell;
  cell.circuit = circuit.name;
  cell.scheme = job.summary.scheme;
  cell.optimizer = job.summary.optimizer;
  cell.attack = attack_name;
  cell.key_bits = job.design.key.size();
  cell.accuracy = report.accuracy;
  cell.precision = report.precision;
  cell.attacked_fraction = report.attacked_fraction;
  cell.key_recovery = report.key_recovery;
  cell.key_recovered = report.key_recovered;
  cell.resilience = 1.0 - report.accuracy;

  campaign::CellVerification& v = cell.verification;
  v.equivalence_checked = job.summary.equivalence_checked;
  v.correct_key_equivalent = job.summary.correct_key_equivalent;
  v.key_layout_ok = job.summary.key_layout_ok;
  const std::string sanity =
      campaign::check_report_invariants(report, job.design.key.size());
  v.report_sane = sanity.empty();
  if (spec.verify_determinism) {
    v.determinism_checked = true;
    const auto rerun = eval::make_attack(kTracedPrefix + attack_name, options);
    v.deterministic = reports_equal(report, rerun->evaluate(job.design,
                                                            workspace));
  }
  if (!v.key_layout_ok) {
    v.failure = "key layout round-trip failed";
  } else if (v.equivalence_checked && !v.correct_key_equivalent) {
    v.failure = "correct-key decode not equivalent to original";
  } else if (!v.report_sane) {
    v.failure = sanity;
  } else if (v.determinism_checked && !v.deterministic) {
    v.failure = "attack re-run diverged";
  }
  return cell;
}

/// campaign::run's lock jobs and cells, replayed through public calls with
/// spans. `spec` is the resolved spec of an untraced run.
campaign::CampaignResult replay_campaign(const campaign::CampaignSpec& spec,
                                         Report& report) {
  campaign::CampaignResult result;
  result.spec = spec;
  util::ThreadPool pool(spec.threads);
  std::size_t max_key_bits = 0;
  for (const auto& scheme : spec.schemes) {
    max_key_bits = std::max(max_key_bits, scheme.spec.key_bits());
  }
  for (const campaign::CircuitAxis& circuit : spec.circuits) {
    std::unique_ptr<netlist::Netlist> original;
    {
      Span span("netlist", "netlist.generate");
      original = std::make_unique<netlist::Netlist>(netlist::gen::make_profile(
          netlist::gen::profile_by_name(circuit.name)));
    }
    eval::EvalPipelineConfig config;
    config.attacks = attack_names(spec.fitness_attacks, true);
    config.attack_options.muxlink = spec.muxlink;
    config.cache = false;
    config.seed = campaign::axis_seed(spec.seed, circuit.name, "", "pipeline");
    config.pool = &pool;
    std::unique_ptr<eval::EvalPipeline> pipeline;
    {
      Span span("eval", "eval.pipeline_ctor");
      pipeline = std::make_unique<eval::EvalPipeline>(*original, config);
    }
    std::vector<std::unique_ptr<eval::EvalWorkspace>> workspaces;
    {
      Span span("eval", "eval.workspace_reserve");
      for (std::size_t s = 0; s < pool.size(); ++s) {
        workspaces.push_back(std::make_unique<eval::EvalWorkspace>());
        workspaces.back()->reserve(*original, max_key_bits);
      }
    }
    std::vector<ReplayJob> jobs;
    for (const campaign::SchemeAxis& scheme : spec.schemes) {
      for (const std::string& optimizer : circuit.optimizers) {
        jobs.push_back(replay_lock_job(spec, circuit, scheme, optimizer,
                                       *original, *pipeline));
      }
    }
    add_eval_counters(report, *pipeline);

    std::vector<std::pair<const ReplayJob*, const std::string*>> plans;
    for (const ReplayJob& job : jobs) {
      for (const std::string& attack : circuit.attacks) {
        plans.push_back({&job, &attack});
      }
    }
    std::vector<campaign::CellResult> cells(plans.size());
    {
      Span span("campaign", "campaign.cells");
      pool.parallel_for_sharded(plans.size(), [&](std::size_t shard,
                                                  std::size_t index) {
        cells[index] = replay_cell(spec, circuit, *plans[index].first,
                                   *plans[index].second, *original,
                                   *workspaces[shard]);
      });
    }
    for (ReplayJob& job : jobs) result.locks.push_back(std::move(job.summary));
    for (auto& cell : cells) result.cells.push_back(std::move(cell));
  }
  for (const auto& cell : result.cells) {
    if (cell.verification.passed()) ++result.cells_passed;
  }
  return result;
}

Report campaign_run(const Options& opt) {
  Report report;
  zero_layers(report);
  const campaign::CampaignSpec spec = campaign_spec(opt.seed);
  std::vector<campaign::CampaignResult> results;
  const auto times = measure(opt, [&] {
    return timed([&] { results.push_back(campaign::run(spec)); });
  });
  const campaign::CampaignResult& first = results.front();
  set_e2e(report, times, static_cast<double>(first.cells_passed));

  const std::string first_json = campaign::to_json(first);
  for (const campaign::CellResult& cell : first.cells) {
    report.checks.expect(cell.verification.passed(),
                         "cell " + cell.circuit + "/" + cell.scheme + "/" +
                             cell.optimizer + "/" + cell.attack + ": " +
                             cell.verification.failure);
  }
  for (std::size_t i = 1; i < results.size(); ++i) {
    report.checks.expect(campaign::to_json(results[i]) == first_json,
                         "campaign job " + std::to_string(i) +
                             " diverged from job 0");
  }
  const std::string cells_path = opt.out + "/campaign-iscas-seed" +
                                 std::to_string(opt.seed) + ".json";
  std::ofstream(cells_path) << first_json;
  report.outputs["cells_json"] = cells_path;
  report.outputs["cells"] = std::to_string(first.cells.size());

  if (!opt.trace) return report;

  double lock_phase = 0.0;
  for (const auto& lock : first.locks) {
    lock_phase += lock.lock_seconds + lock.verify_seconds;
  }
  double cell_busy = 0.0;
  for (const auto& cell : first.cells) cell_busy += cell.attack_seconds;
  const double cell_phase = first.total_seconds - lock_phase;
  report.layers["campaign.lock_phase_s"] = lock_phase;
  report.layers["campaign.cell_phase_s"] = cell_phase;
  report.layers["campaign.cell_busy_s"] = cell_busy;
  report.layers["campaign.cell_parallelism"] =
      cell_phase > 0.0 ? cell_busy / cell_phase : 0.0;

  Recorder& r = Recorder::instance();
  r.enable(true);
  const double begin = perfbench::trace::now_s();
  const campaign::CampaignResult replay = replay_campaign(first.spec, report);
  const double end = perfbench::trace::now_s();
  r.enable(false);

  report.checks.expect(campaign::to_json(replay) == first_json,
                       "traced replay cells differ from campaign::run's");
  fill_span_layers(report, begin, end);
  for (const std::string& opt_name : optimizers()) {
    report.layers["core." + opt_name + ".evaluations"] =
        r.count_of("core." + opt_name + ".evaluations");
  }
  report.layers["core.ga.generations"] = r.count_of("core.ga.generations");
  report.layers["sat.dip_iterations"] = r.count_of("sat.dip_iterations");
  report.layers["sat.conflicts"] = r.count_of("sat.conflicts");
  report.layers["sat.propagations"] = r.count_of("sat.propagations");
  const double solve_s = r.count_of("sat.solve_s");
  report.layers["sat.mprops_per_s"] =
      solve_s > 0.0 ? r.count_of("sat.propagations") / solve_s / 1e6 : 0.0;
  report.layers["sat.budget_exhausted"] = r.count_of("sat.budget_exhausted");
  report.layers["trace.overhead_frac"] =
      (end - begin - r.count_of("trace.decode_replay_s")) /
          report.layers["util.job_wall_s"] -
      1.0;
  r.write_json(opt.out + "/trace-campaign-iscas-seed" +
                   std::to_string(opt.seed) + ".json",
               begin);
  return report;
}

// ---- host probe ------------------------------------------------------------

/// Parallel efficiency of the host right now: the time one thread needs
/// for a calibrated amount of work, over the wall time nproc threads need
/// for that amount each (1.0 = every core free; a starved run reads lower).
void probe(std::map<std::string, double>& host) {
  warm_up(kWarmUpSeconds);
  volatile std::uint64_t sink = 0;
  std::uint64_t iterations = 1 << 20;
  double single = 0.0;
  for (;;) {  // calibrate to ~40 ms of single-thread work
    const double start = perfbench::trace::now_s();
    sink = sink + burn(iterations, 1);
    single = perfbench::trace::now_s() - start;
    if (single > 0.04) break;
    iterations *= 2;
  }
  std::vector<double> ratios;
  for (int round = 0; round < 3; ++round) {
    const double start1 = perfbench::trace::now_s();
    sink = sink + burn(iterations, 3);
    const double t1 = perfbench::trace::now_s() - start1;
    const double start = perfbench::trace::now_s();
    std::vector<std::thread> threads;
    std::vector<std::uint64_t> out(nproc());
    for (std::size_t t = 0; t < nproc(); ++t) {
      threads.emplace_back([&, t] { out[t] = burn(iterations, t + 5); });
    }
    for (auto& thread : threads) thread.join();
    const double tn = perfbench::trace::now_s() - start;
    for (auto v : out) sink = sink + v;
    ratios.push_back(t1 / tn);
  }
  host["nproc"] = static_cast<double>(nproc());
  host["parallel_efficiency"] = median(ratios);
  // Single-thread speed: a fixed amount of work, comparable across runs on
  // one host (memory-bound neighbours slow the one-thread workload too).
  const double start = perfbench::trace::now_s();
  sink = sink + burn(1 << 24, 7);
  host["burn_ms"] = 1e3 * (perfbench::trace::now_s() - start);
}

// ---- output ----------------------------------------------------------------

void print_map(std::ostream& os, const std::map<std::string, double>& map) {
  os << '{';
  bool first = true;
  for (const auto& [name, value] : map) {
    os << (first ? "" : ", ") << '"' << name << "\": " << value;
    first = false;
  }
  os << '}';
}

void print_report(const Report& report) {
  std::ostringstream os;
  os.precision(10);
  os << "{\"e2e\": ";
  print_map(os, report.e2e);
  os << ", \"layers\": ";
  print_map(os, report.layers);
  os << ", \"outputs\": {";
  bool first = true;
  for (const auto& [name, value] : report.outputs) {
    os << (first ? "" : ", ") << '"' << name << "\": \"" << json_escape(value)
       << '"';
    first = false;
  }
  os << "}, \"attempted\": " << report.checks.attempted
     << ", \"failed\": " << report.checks.failed << ", \"failures\": [";
  for (std::size_t i = 0; i < report.checks.failures.size(); ++i) {
    os << (i == 0 ? "" : ", ") << '"'
       << json_escape(report.checks.failures[i]) << '"';
  }
  os << "]}";
  std::cout << os.str() << std::endl;
}

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--mode") opt.mode = value;
    else if (key == "--workload") opt.workload = value;
    else if (key == "--seed") opt.seed = std::stoull(value);
    else if (key == "--seconds") opt.seconds = std::stod(value);
    else if (key == "--trace") opt.trace = value == "1";
    else if (key == "--out") opt.out = value;
    else if (key == "--t0-ns") opt.t0_ns = std::stoll(value);
    else throw std::invalid_argument("unknown flag " + key);
  }
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options opt = parse(argc, argv);
    self_path() = argv[0];
    Recorder::instance().set_driver_thread();
    register_traced_attacks();

    if (opt.mode == "probe") {
      std::map<std::string, double> host;
      probe(host);
      std::ostringstream os;
      os.precision(10);
      print_map(os, host);
      std::cout << os.str() << std::endl;
      return 0;
    }
    const bool evolve = opt.workload == "evolve-c880";
    const bool campaign_iscas = opt.workload == "campaign-iscas";
    if (!evolve && !campaign_iscas) {
      throw std::invalid_argument("unknown workload '" + opt.workload + "'");
    }
    if (opt.mode == "setup") {
      if (evolve) evolve_setup(opt.seed);
      if (campaign_iscas) (void)campaign_spec(opt.seed);
      const auto now = std::chrono::steady_clock::now().time_since_epoch();
      const long long now_ns =
          std::chrono::duration_cast<std::chrono::nanoseconds>(now).count();
      std::cout.precision(10);
      std::cout << "{\"setup_s\": "
                << 1e-9 * static_cast<double>(now_ns - opt.t0_ns)
                << "}" << std::endl;
      return 0;
    }
    if (opt.mode != "run") {
      throw std::invalid_argument("unknown mode '" + opt.mode + "'");
    }
    const Report report = evolve ? evolve_run(opt) : campaign_run(opt);
    print_report(report);
    return report.checks.failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "perfbench_driver: " << e.what() << "\n";
    return 2;
  }
}
