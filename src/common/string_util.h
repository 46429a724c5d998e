// Small string helpers shared across modules.
//
// Ownership and thread-safety: stateless free functions; inputs are borrowed
// read-only and results are fresh caller-owned values, so concurrent calls
// are safe.

#ifndef CAJADE_COMMON_STRING_UTIL_H_
#define CAJADE_COMMON_STRING_UTIL_H_

#include <string>
#include <vector>

namespace cajade {

/// Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts, const std::string& sep);

/// ASCII lowercase copy.
std::string ToLower(const std::string& s);

/// ASCII uppercase copy.
std::string ToUpper(const std::string& s);

/// printf-style formatting into a std::string.
std::string Format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace cajade

#endif  // CAJADE_COMMON_STRING_UTIL_H_
