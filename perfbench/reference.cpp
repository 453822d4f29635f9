// perfbench_reference: the benchmark's reference kernel, a fixed amount of
// netlist-like work that the driver runs before each job and after the last.
//
//   perfbench_reference GATES THREADS PASSES
//
// prints the process CPU seconds of PASSES passes on each of THREADS
// threads, each thread simulating its own random DAG of GATES gates.
//
// The kernel is its own binary, built from this file alone and linked to
// nothing of the library. The time of a tight loop moves with where the
// linker puts it: linked into the driver, this kernel ran about 40% slower
// after an unrelated edit elsewhere in the driver. Built apart, it is the same
// machine code on every commit, while a host that slows down slows it and
// the jobs beside it alike. A job's CPU time divided by it is the job's
// cost with host speed drift taken out.
#include <sys/prctl.h>

#include <algorithm>
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <ctime>
#include <iostream>
#include <thread>
#include <vector>

namespace {

constexpr std::size_t kInputs = 64;
constexpr std::size_t kLocalSpan = 64;

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

std::uint64_t next(std::uint64_t& x) {
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return x;
}

/// Each gate reads one fan-in among the kLocalSpan gates before it and one
/// anywhere before it, through a switch on a random gate type.
struct Dag {
  std::vector<std::uint32_t> near;
  std::vector<std::uint32_t> far;
  std::vector<std::uint8_t> op;
  std::vector<std::uint64_t> value;
};

Dag make_dag(std::size_t gates, std::uint64_t seed) {
  Dag dag;
  dag.near.resize(gates);
  dag.far.resize(gates);
  dag.op.resize(gates);
  dag.value.resize(gates);
  std::uint64_t x = seed | 1;
  for (std::size_t g = kInputs; g < gates; ++g) {
    dag.near[g] =
        static_cast<std::uint32_t>(g - 1 - next(x) % std::min(g, kLocalSpan));
    dag.far[g] = static_cast<std::uint32_t>(next(x) % g);
    dag.op[g] = static_cast<std::uint8_t>(next(x) % 4);
  }
  return dag;
}

/// One 64-bit parallel simulation pass over random input words.
std::uint64_t simulate(Dag& dag, std::uint64_t pass) {
  std::uint64_t x = 0xD1B54A32D192ED03ULL * pass;
  for (std::size_t g = 0; g < kInputs; ++g) dag.value[g] = next(x);
  std::uint64_t fold = 0;
  const std::size_t gates = dag.value.size();
  for (std::size_t g = kInputs; g < gates; ++g) {
    const std::uint64_t a = dag.value[dag.near[g]];
    const std::uint64_t b = dag.value[dag.far[g]];
    std::uint64_t v;
    switch (dag.op[g]) {
      case 0: v = a & b; break;
      case 1: v = a | b; break;
      case 2: v = a ^ b; break;
      default: v = ~(a & b); break;
    }
    dag.value[g] = v;
    if ((v & 0xFF) == 0) fold += v;
  }
  return fold ^ dag.value[gates - 1];
}

}  // namespace

int main(int argc, char** argv) {
  // Dies with the driver, should that be killed mid-pass.
  prctl(PR_SET_PDEATHSIG, SIGKILL);
  if (argc != 4) {
    std::cerr << "usage: perfbench_reference GATES THREADS PASSES\n";
    return 2;
  }
  const std::size_t gates = std::strtoull(argv[1], nullptr, 10);
  const std::size_t threads = std::strtoull(argv[2], nullptr, 10);
  const std::size_t passes = std::strtoull(argv[3], nullptr, 10);
  if (gates <= kInputs || threads == 0 || passes == 0) {
    std::cerr << "perfbench_reference: GATES must exceed " << kInputs
              << ", THREADS and PASSES must be positive\n";
    return 2;
  }
  std::vector<Dag> dags;
  for (std::size_t t = 0; t < threads; ++t) {
    dags.push_back(make_dag(gates, 0x9E3779B97F4A7C15ULL * (t + 1)));
  }
  const double cpu = cpu_seconds();
  std::vector<std::thread> workers;
  std::vector<std::uint64_t> out(threads);
  for (std::size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&dags, &out, passes, t] {
      for (std::size_t p = 0; p < passes; ++p) {
        out[t] ^= simulate(dags[t], p + 1);
      }
    });
  }
  for (auto& worker : workers) worker.join();
  const double seconds = cpu_seconds() - cpu;
  std::uint64_t sink = 0;
  for (std::uint64_t v : out) sink ^= v;
  std::cout.precision(10);
  // The fold keeps the passes from being optimized away.
  std::cout << seconds << (sink == 1 ? " " : "") << std::endl;
  return 0;
}
