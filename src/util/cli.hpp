#pragma once
// Minimal command-line option parsing for the example binaries and benches.
// Supports `--flag`, `--key value` and `--key=value`; positional arguments
// are collected in order. A driver declares the flags it reads (run_cli);
// any other flag is a usage error.

#include <limits>
#include <string>
#include <unordered_map>
#include <vector>

namespace stc {

class Cli {
 public:
  Cli(int argc, char** argv);

  /// True if `--name` was present (with or without a value).
  bool has(const std::string& name) const;

  /// Value of `--name`, or `fallback` when absent.
  std::string get(const std::string& name, const std::string& fallback) const;

  /// Integer value of `--name`, or `fallback` when absent. The whole
  /// value must be one base-10 integer that fits a long: a missing value
  /// ("--cycles" with nothing after it), trailing characters ("64x") or
  /// overflow throw Error(kInvalidInput) naming the flag (drivers exit 2
  /// with its message).
  long get_int(const std::string& name, long fallback) const;

  /// Count value of `--name` in [0, max], or `fallback` when absent. A
  /// missing value, or a negative or larger one, throws Error(kInvalidInput)
  /// naming the flag instead of defaulting or wrapping around to a huge
  /// unsigned count.
  std::size_t get_count(const std::string& name, std::size_t fallback,
                        std::size_t max = std::numeric_limits<long>::max()) const;

  /// Names of the `--flags` given, in command-line order.
  const std::vector<std::string>& flags() const { return flags_; }

  const std::vector<std::string>& positional() const { return positional_; }
  const std::string& program() const { return program_; }

 private:
  std::string program_;
  std::unordered_map<std::string, std::string> options_;
  std::vector<std::string> flags_;
  std::vector<std::string> positional_;
};

/// "usage: <program> [<operands>] [--a N] [--b]" for a driver's declared
/// flags, each given as "name" or "name VALUE" (VALUE only names the
/// argument).
std::string cli_usage(const std::string& program,
                      const std::vector<std::string>& declared,
                      const std::string& operands = "");

/// A driver's main: parse the command line and return body(cli).
/// `declared` lists the flags body reads, as in cli_usage; `operands`, when
/// given, names the positional arguments in the usage line. --help prints
/// the usage line and exits 0 without running body. An undeclared flag
/// prints "error: unknown flag --x" plus the usage line to stderr and
/// exits 2; so does a malformed value (the Error(kInvalidInput) that
/// get_int/get_count or body throws), with its message.
int run_cli(int argc, char** argv, const std::vector<std::string>& declared,
            int (*body)(const Cli&), const std::string& operands = "");

}  // namespace stc
