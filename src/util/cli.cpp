#include "util/cli.hpp"

#include <cerrno>
#include <cstdio>
#include <cstdlib>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace stc {

Cli::Cli(int argc, char** argv) {
  program_ = argc > 0 ? argv[0] : "";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (starts_with(arg, "--")) {
      std::string body = arg.substr(2);
      auto eq = body.find('=');
      const std::string name = body.substr(0, eq);
      if (eq != std::string::npos) {
        options_[name] = body.substr(eq + 1);
      } else if (i + 1 < argc && !starts_with(argv[i + 1], "--")) {
        options_[name] = argv[++i];
      } else {
        options_[name] = "";
      }
      flags_.push_back(name);
    } else {
      positional_.push_back(arg);
    }
  }
}

bool Cli::has(const std::string& name) const { return options_.count(name) > 0; }

std::string Cli::get(const std::string& name, const std::string& fallback) const {
  auto it = options_.find(name);
  return it == options_.end() ? fallback : it->second;
}

long Cli::get_int(const std::string& name, long fallback) const {
  auto it = options_.find(name);
  if (it == options_.end()) return fallback;
  if (it->second.empty())
    throw Error(ErrorCode::kInvalidInput,
                "missing value for --" + name + ": expected a base-10 integer",
                "flag=--" + name);
  const char* text = it->second.c_str();
  char* end = nullptr;
  errno = 0;
  const long value = std::strtol(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE)
    throw Error(ErrorCode::kInvalidInput,
                "invalid value '" + it->second + "' for --" + name +
                    ": expected a base-10 integer that fits a long",
                "flag=--" + name);
  return value;
}

std::size_t Cli::get_count(const std::string& name, std::size_t fallback,
                           std::size_t max) const {
  if (!has(name)) return fallback;
  const long value = get_int(name, 0);
  if (value < 0 || static_cast<unsigned long>(value) > max)
    throw Error(ErrorCode::kInvalidInput,
                "invalid value '" + get(name, "") + "' for --" + name +
                    ": expected a count in [0, " + std::to_string(max) + "]",
                "flag=--" + name);
  return static_cast<std::size_t>(value);
}

std::string cli_usage(const std::string& program,
                      const std::vector<std::string>& declared,
                      const std::string& operands) {
  std::string usage = "usage: " + program;
  if (!operands.empty()) usage += " " + operands;
  for (const std::string& flag : declared) usage += " [--" + flag + "]";
  return usage;
}

int run_cli(int argc, char** argv, const std::vector<std::string>& declared,
            int (*body)(const Cli&), const std::string& operands) {
  const Cli cli(argc, argv);
  const std::string usage = cli_usage(cli.program(), declared, operands);
  if (cli.has("help")) {
    std::printf("%s\n", usage.c_str());
    return 0;
  }
  for (const std::string& flag : cli.flags()) {
    bool known = false;
    for (const std::string& d : declared)
      known = known || d.compare(0, d.find(' '), flag) == 0;
    if (!known) {
      std::fprintf(stderr, "error: unknown flag --%s\n%s\n", flag.c_str(),
                   usage.c_str());
      return 2;
    }
  }
  try {
    return body(cli);
  } catch (const Error& e) {
    if (e.code() != ErrorCode::kInvalidInput) throw;
    std::fprintf(stderr, "error: %s\n%s\n", e.what(), usage.c_str());
    return 2;
  }
}

}  // namespace stc
