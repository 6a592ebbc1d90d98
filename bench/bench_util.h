// Helpers shared by the plain-executable benches (bench_paper,
// bench_search_throughput, bench_tournament, bench_streaming).
#pragma once

#include <cstdint>
#include <iostream>
#include <memory>
#include <string>

#include "common/rng.h"
#include "exp/experiment.h"
#include "exp/table.h"
#include "sched/registry.h"

namespace rtds::bench {

/// Builds a portfolio member from its registry spec — the ONE way benches
/// construct algorithms, so every bench accepts the same spec strings as
/// rtds_fuzz --algo and the tournament, and a spec typo fails loudly at
/// startup instead of silently benchmarking the wrong configuration.
inline std::unique_ptr<sched::PhaseAlgorithm> make_algo(
    const std::string& spec) {
  return sched::AlgorithmRegistry::builtin().make(spec);
}

/// Workload seed for repetition `rep` of the named bench: a named rng
/// substream off the shared experiment default base seed (common/rng.h).
/// All benches derive their seeds here — one convention instead of
/// per-bench magic base-seed constants — and distinct names guarantee
/// distinct streams.
inline std::uint64_t bench_seed(const char* bench_name, std::uint64_t rep) {
  return derive_seed(exp::ExperimentConfig{}.base_seed, stream_id(bench_name),
                     rep);
}

/// Prints the standard bench header.
inline void print_header(const std::string& title,
                         const std::string& paper_ref,
                         const std::string& expectation) {
  std::cout << "==============================================================="
               "=\n"
            << title << "\n"
            << "Reproduces: " << paper_ref << "\n"
            << "Expected shape: " << expectation << "\n"
            << "==============================================================="
               "=\n";
}

}  // namespace rtds::bench
