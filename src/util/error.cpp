#include "util/error.hpp"

namespace stc {
namespace {

std::string format_what(ErrorCode code, const std::string& message,
                        const std::string& context) {
  std::string out = "[";
  out += error_code_name(code);
  out += "] ";
  out += message;
  if (!context.empty()) {
    out += " (";
    out += context;
    out += ")";
  }
  return out;
}

}  // namespace

const char* error_code_name(ErrorCode code) {
  switch (code) {
    case ErrorCode::kInvalidInput: return "invalid_input";
    case ErrorCode::kBudgetExhausted: return "budget_exhausted";
    case ErrorCode::kUnsupported: return "unsupported";
    case ErrorCode::kIo: return "io";
    case ErrorCode::kInternal: return "internal";
  }
  return "unknown";
}

Error::Error(ErrorCode code, const std::string& message, std::string context)
    : std::runtime_error(format_what(code, message, context)),
      code_(code),
      message_(message),
      context_(std::move(context)) {}

Error Error::within(const std::string& outer) const {
  return Error(code_, message_,
               context_.empty() ? outer : outer + "; " + context_);
}

}  // namespace stc
