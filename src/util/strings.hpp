#pragma once
// Small string helpers shared by the KISS2 parser, CLI, and report writers.

#include <string>
#include <string_view>
#include <vector>

namespace stc {

/// Split on any run of whitespace; never returns empty tokens.
std::vector<std::string> split_ws(std::string_view s);

/// Split on a single delimiter character; may return empty tokens.
std::vector<std::string> split_on(std::string_view s, char delim);

/// Strip leading and trailing whitespace.
std::string trim(std::string_view s);

std::string to_lower(std::string_view s);

bool starts_with(std::string_view s, std::string_view prefix);
bool ends_with(std::string_view s, std::string_view suffix);

/// Parse a non-negative base-10 integer; throws std::invalid_argument on
/// garbage and on values that overflow std::size_t.
std::size_t parse_size(std::string_view s);

/// printf-style formatting into std::string.
std::string strprintf(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace stc
