#pragma once
// KISS2 reader/writer -- the interchange format of the MCNC / IWLS'93 FSM
// benchmark suite the paper evaluates on.
//
// Supported directives: .i .o .p .s .r .e and transition lines
//   <input-cube> <current-state> <next-state> <output-vector>
// Input cubes may contain '-' (don't care); such a row is expanded to all
// matching fully specified input symbols. Output '-' bits are resolved to 0
// (the machines used in the paper are fully specified, so this only matters
// for defensive parsing). '*' as next state (unspecified) is rejected unless
// `options.complete_with_reset` is set, in which case the machine is
// completed with a self-loop-to-reset convention.

#include <string>

#include "fsm/mealy.hpp"
#include "util/error.hpp"

namespace stc {

struct KissOptions {
  /// Complete a partially specified table by sending every unspecified
  /// (state, input) to the reset state with all-zero output.
  bool complete_with_reset = false;
};

/// Malformed KISS2 text. An stc::Error(kInvalidInput); the message carries
/// the 1-based line number of the offending directive or row.
struct KissParseError : Error {
  explicit KissParseError(const std::string& what, std::string context = "")
      : Error(ErrorCode::kInvalidInput, what, std::move(context)) {}
};

/// Parse KISS2 text. Input symbols are the 2^.i binary input vectors
/// (value = the vector read MSB-first), output symbols the 2^.o vectors.
/// `.o` is at most kMaxOutputBits (32), the width of an Output; a wider
/// machine is a KissParseError.
MealyMachine parse_kiss2(const std::string& text, const KissOptions& options = {});

/// Parse from a file path. A file that cannot be opened raises
/// Error(kIo) with `path=` and `errno=` in the context (distinct from the
/// KissParseError raised for malformed contents).
MealyMachine load_kiss2_file(const std::string& path, const KissOptions& options = {});

/// Serialize a machine back to KISS2 (one fully specified row per
/// (state, input) pair).
std::string write_kiss2(const MealyMachine& m);

}  // namespace stc
