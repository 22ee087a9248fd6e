#pragma once
// Output checks run outside the timed regions. Each returns an empty
// string when the output is right and a description of the first
// mismatch otherwise.

#include <cstdint>
#include <string>
#include <vector>

#include "bist/session.hpp"
#include "fsm/mealy.hpp"

namespace stcbench {

/// Co-simulate a structure in system mode (test_mode = 0) on 64 lanes of
/// seeded random input symbols through the compiled lane evaluator, and
/// compare every primary output, every cycle, against a walk of the
/// machine's own transition/output tables.
std::string cosim_against_table(const stc::ControllerStructure& cs,
                                const stc::MealyMachine& m, std::uint64_t seed,
                                std::size_t cycles);

/// Draw `n` distinct faults of `faults` with a seeded generator.
std::vector<stc::Fault> sample_faults(const std::vector<stc::Fault>& faults,
                                      std::size_t n, std::uint64_t seed);

/// Compare two fault sweeps' verdicts on `sample`: a sweep detected a
/// fault iff the fault is not in its `undetected` list.
std::string same_verdicts(const std::vector<stc::Fault>& sample,
                          const stc::CoverageResult& a, const stc::CoverageResult& b);

/// Re-run `sample` through the serial oracle (measure_coverage) and
/// compare each verdict with the campaign's.
std::string oracle_agrees(const stc::ControllerStructure& cs,
                          const stc::SelfTestPlan& plan,
                          const stc::CampaignResult& campaign,
                          const std::vector<stc::Fault>& sample);

}  // namespace stcbench
