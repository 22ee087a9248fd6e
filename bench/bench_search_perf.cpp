// Scaling of the OSTR search on the bundled corpus and on random and
// planted-decomposable machines (google-benchmark).
//
// Reported counters (per benchmark):
//   nodes          search-tree nodes investigated by one solve
//   nodes_per_sec  node throughput (rate counter; the headline trajectory
//                  metric -- see CHANGES.md for the per-PR history)
//   join_hit,      PartitionStore memo hit rates for the lattice join and
//   mM_hit         the m/M operator caches
//   interned       distinct partitions in the store after one solve
//
// Machine-readable output: google-benchmark's native JSON writer already
// serializes every counter, so the canonical trajectory invocation is
//   ./bench_search_perf --benchmark_format=json > search_perf.json
// (or --benchmark_out=search_perf.json --benchmark_out_format=json to keep
// the human-readable table on stdout).

#include <benchmark/benchmark.h>

#include "benchdata/iwls93.hpp"
#include "fsm/generate.hpp"
#include "ostr/ostr.hpp"

namespace {

using namespace stc;

void report_solve(benchmark::State& state, const OstrResult& res) {
  const auto& c = res.stats.cache;
  state.counters["nodes"] =
      benchmark::Counter(static_cast<double>(res.stats.nodes_investigated));
  state.counters["nodes_per_sec"] =
      benchmark::Counter(static_cast<double>(res.stats.nodes_investigated),
                         benchmark::Counter::kIsIterationInvariantRate);
  state.counters["join_hit"] = benchmark::Counter(c.join.hit_rate());
  PartitionStore::OpStats mM = c.m_op;
  mM += c.M_op;
  state.counters["mM_hit"] = benchmark::Counter(mM.hit_rate());
  state.counters["interned"] = benchmark::Counter(static_cast<double>(c.interned));
  state.counters["flipflops"] =
      benchmark::Counter(static_cast<double>(res.best.flipflops));
}

// --- bundled corpus (the trajectory anchor) ----------------------------------

void BM_OstrCorpus(benchmark::State& state, const std::string& name) {
  const MealyMachine m = load_benchmark(name);
  OstrOptions opts;
  opts.max_nodes = 20000;
  OstrResult res;
  for (auto _ : state) {
    res = solve_ostr(m, opts);
    benchmark::DoNotOptimize(res.best.flipflops);
  }
  report_solve(state, res);
}

void RegisterCorpusBenches() {
  for (const auto& name : benchmark_names(/*table1_only=*/true)) {
    benchmark::RegisterBenchmark(("BM_OstrCorpus/" + name).c_str(),
                                 [name](benchmark::State& s) {
                                   BM_OstrCorpus(s, name);
                                 });
  }
}

// --- synthetic scaling -------------------------------------------------------

void BM_OstrRandom(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const MealyMachine m = random_mealy(7 + n, n, 2, 2);
  OstrOptions opts;
  opts.max_nodes = 500000;
  OstrResult res;
  for (auto _ : state) {
    res = solve_ostr(m, opts);
    benchmark::DoNotOptimize(res.best.flipflops);
  }
  report_solve(state, res);
}
BENCHMARK(BM_OstrRandom)->Arg(4)->Arg(6)->Arg(8)->Arg(10)->Arg(12);

void BM_OstrDecomposable(benchmark::State& state) {
  const std::size_t n1 = static_cast<std::size_t>(state.range(0));
  const MealyMachine m = decomposable_mealy(21, n1, 3, 2, 2);
  OstrOptions opts;
  opts.max_nodes = 500000;
  OstrResult res;
  for (auto _ : state) {
    res = solve_ostr(m, opts);
    benchmark::DoNotOptimize(res.best.flipflops);
  }
  report_solve(state, res);
}
BENCHMARK(BM_OstrDecomposable)->Arg(2)->Arg(3)->Arg(4);

void BM_MmBasis(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const MealyMachine m = random_mealy(3 * n, n, 2, 2);
  for (auto _ : state) {
    auto basis = mm_basis(m);
    benchmark::DoNotOptimize(basis.size());
  }
}
BENCHMARK(BM_MmBasis)->Arg(8)->Arg(16)->Arg(24)->Arg(32);

}  // namespace

int main(int argc, char** argv) {
  RegisterCorpusBenches();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
