//===- KernelSpec.cpp -----------------------------------------------------===//

#include "codegen/KernelSpec.h"

#include "support/Casting.h"

using namespace limpet;
using namespace limpet::codegen;

std::string_view codegen::stateLayoutName(StateLayout L) {
  switch (L) {
  case StateLayout::AoS:
    return "aos";
  case StateLayout::SoA:
    return "soa";
  case StateLayout::AoSoA:
    return "aosoa";
  }
  limpet_unreachable("invalid layout");
}

std::optional<StateLayout> codegen::stateLayoutFromName(std::string_view N) {
  for (StateLayout L : {StateLayout::AoS, StateLayout::SoA, StateLayout::AoSoA})
    if (stateLayoutName(L) == N)
      return L;
  return std::nullopt;
}
