//===- StringUtils.cpp ----------------------------------------------------===//

#include "support/StringUtils.h"

#include <cstdio>

using namespace limpet;

std::string limpet::formatDouble(double Value) {
  char Buf[64];
  // Moderate integral values read best in plain form ("200", not "2e+02").
  if (Value == (double)(long long)Value && Value > -1e15 && Value < 1e15) {
    std::snprintf(Buf, sizeof(Buf), "%lld", (long long)Value);
    return std::string(Buf);
  }
  std::snprintf(Buf, sizeof(Buf), "%.17g", Value);
  std::string S(Buf);
  // Try shorter representations that still round-trip exactly.
  for (int Prec = 1; Prec < 17; ++Prec) {
    char Short[64];
    std::snprintf(Short, sizeof(Short), "%.*g", Prec, Value);
    double Back = 0;
    std::sscanf(Short, "%lf", &Back);
    if (Back == Value)
      return std::string(Short);
  }
  return S;
}

std::string limpet::formatFixed(double Value, int Decimals) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.*f", Decimals, Value);
  return std::string(Buf);
}

std::string limpet::padLeft(std::string_view S, size_t Width) {
  if (S.size() >= Width)
    return std::string(S);
  return std::string(Width - S.size(), ' ') + std::string(S);
}

std::string limpet::padRight(std::string_view S, size_t Width) {
  if (S.size() >= Width)
    return std::string(S);
  return std::string(S) + std::string(Width - S.size(), ' ');
}

std::vector<std::string> limpet::splitString(std::string_view S, char Sep) {
  std::vector<std::string> Parts;
  size_t Start = 0;
  while (true) {
    size_t Pos = S.find(Sep, Start);
    if (Pos == std::string_view::npos) {
      Parts.emplace_back(S.substr(Start));
      return Parts;
    }
    Parts.emplace_back(S.substr(Start, Pos - Start));
    Start = Pos + 1;
  }
}

std::string limpet::trim(std::string_view S) {
  size_t B = S.find_first_not_of(" \t\r\n");
  if (B == std::string_view::npos)
    return "";
  size_t E = S.find_last_not_of(" \t\r\n");
  return std::string(S.substr(B, E - B + 1));
}

bool limpet::startsWith(std::string_view S, std::string_view Prefix) {
  return S.size() >= Prefix.size() && S.substr(0, Prefix.size()) == Prefix;
}

bool limpet::endsWith(std::string_view S, std::string_view Suffix) {
  return S.size() >= Suffix.size() &&
         S.substr(S.size() - Suffix.size()) == Suffix;
}

bool limpet::flagValue(int Argc, char **Argv, int &I, std::string_view Flag,
                       std::string &Out) {
  std::string_view Arg = Argv[I];
  if (Arg.size() > Flag.size() && startsWith(Arg, Flag) &&
      Arg[Flag.size()] == '=') {
    Out = Arg.substr(Flag.size() + 1);
    return true;
  }
  if (Arg != Flag || I + 1 >= Argc)
    return false;
  Out = Argv[++I];
  return true;
}
