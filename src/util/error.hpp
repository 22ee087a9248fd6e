#pragma once
// Structured error taxonomy for the whole flow.
//
// Every failure a caller can act on is an stc::Error with a machine-
// readable code plus an optional context string (key=value pairs), so a
// batch service can classify failures without string-matching what().
// The contract of the anytime layer (util/budget.hpp): a stage throws
// Error(kBudgetExhausted) ONLY when no valid partial result exists --
// stages with a valid-partial-result invariant (espresso, factoring,
// OSTR, fault campaigns) return their labeled degraded artifact instead.

#include <stdexcept>
#include <string>

namespace stc {

enum class ErrorCode {
  /// Malformed input: bad file contents, out-of-range options, an
  /// inconsistent specification. The request can never succeed as given.
  kInvalidInput,
  /// A budget (deadline, node allowance, cancellation) expired at a point
  /// where no valid partial result exists. Stages that can degrade
  /// gracefully never throw this; they return a Degradation-labeled
  /// result.
  kBudgetExhausted,
  /// Valid input outside the implemented envelope (e.g. more outputs than
  /// a representation can carry where no fallback exists).
  kUnsupported,
  /// File-system failure; context carries path= and errno=. Injected
  /// faults (util/faultpoint.hpp) also surface as kIo: this is the
  /// TRANSIENT class -- the only code the daemon's RetryPolicy retries.
  kIo,
  /// An unexpected exception escaped a stage (a bug, not an input
  /// problem). Permanent for retry purposes: re-running the same job
  /// would hit the same bug.
  kInternal,
};

/// Stable lowercase identifier of a code ("invalid_input", ...).
const char* error_code_name(ErrorCode code);

class Error : public std::runtime_error {
 public:
  Error(ErrorCode code, const std::string& message, std::string context = "");

  ErrorCode code() const noexcept { return code_; }
  /// This error with `outer` in front of its context: how an enclosing
  /// parser adds the file, line or key it was reading.
  Error within(const std::string& outer) const;
  /// Machine-readable context ("path=/x/y; errno=13"), may be empty.
  const std::string& context() const noexcept { return context_; }

 private:
  ErrorCode code_;
  std::string message_;
  std::string context_;
};

}  // namespace stc
