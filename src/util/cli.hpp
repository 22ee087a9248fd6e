#pragma once
// Minimal command-line option parsing for the example binaries and benches.
// Supports `--flag`, `--key value` and `--key=value`; positional arguments
// are collected in order.

#include <optional>
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

  /// Integer value of `--name`, or `fallback` when absent or empty. The
  /// whole value must be one base-10 integer that fits a long: trailing
  /// characters ("64x") or overflow throw Error(kInvalidInput) naming the
  /// flag (drivers exit 2 with its message).
  long get_int(const std::string& name, long fallback) const;

  const std::vector<std::string>& positional() const { return positional_; }
  const std::string& program() const { return program_; }

 private:
  std::string program_;
  std::unordered_map<std::string, std::string> options_;
  std::vector<std::string> positional_;
};

/// A driver's main: parse the command line and return body(cli). A
/// malformed flag value -- the Error(kInvalidInput) get_int throws --
/// prints "error: <message>" to stderr and exits 2 instead of terminating.
int run_cli(int argc, char** argv, int (*body)(const Cli&));

}  // namespace stc
