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
      if (eq != std::string::npos) {
        options_[body.substr(0, eq)] = body.substr(eq + 1);
      } else if (i + 1 < argc && !starts_with(argv[i + 1], "--")) {
        options_[body] = argv[++i];
      } else {
        options_[body] = "";
      }
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
  if (it == options_.end() || it->second.empty()) return fallback;
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

int run_cli(int argc, char** argv, int (*body)(const Cli&)) {
  const Cli cli(argc, argv);
  try {
    return body(cli);
  } catch (const Error& e) {
    if (e.code() != ErrorCode::kInvalidInput) throw;
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}

}  // namespace stc
