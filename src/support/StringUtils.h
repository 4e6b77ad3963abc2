//===- StringUtils.h - Small string formatting helpers ----------*- C++-*-===//
//
// Helpers shared by the IR printer, benchmark reporters and tests. Kept
// deliberately small; the standard library provides the heavy lifting.
//
//===----------------------------------------------------------------------===//

#ifndef LIMPET_SUPPORT_STRINGUTILS_H
#define LIMPET_SUPPORT_STRINGUTILS_H

#include <string>
#include <string_view>
#include <vector>

namespace limpet {

/// Formats a double with enough precision to round-trip (%.17g trimmed).
std::string formatDouble(double Value);

/// Formats with a fixed number of decimals, e.g. formatFixed(1.234, 2) ==
/// "1.23".
std::string formatFixed(double Value, int Decimals);

/// Left-pads \p S with spaces to \p Width characters.
std::string padLeft(std::string_view S, size_t Width);

/// Right-pads \p S with spaces to \p Width characters.
std::string padRight(std::string_view S, size_t Width);

/// Splits \p S on \p Sep, keeping empty fields.
std::vector<std::string> splitString(std::string_view S, char Sep);

/// Strips leading and trailing whitespace.
std::string trim(std::string_view S);

/// Returns true if \p S starts with \p Prefix.
bool startsWith(std::string_view S, std::string_view Prefix);

/// Returns true if \p S ends with \p Suffix.
bool endsWith(std::string_view S, std::string_view Suffix);

/// The value of command-line flag \p Flag at argv[I], given as
/// "--flag=value" or as "--flag value" (I then moves past the value).
/// False when argv[I] is another flag or the value is missing.
bool flagValue(int Argc, char **Argv, int &I, std::string_view Flag,
               std::string &Out);

} // namespace limpet

#endif // LIMPET_SUPPORT_STRINGUTILS_H
