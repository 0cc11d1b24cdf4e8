// The word-packed simulator is PatternSim at words > 1 (sim/pattern_sim.hpp).
// This name stays for perfbench/src/probes.cpp, which spells
// `PackedSim(nl, words)`.
#pragma once

#include "sim/pattern_sim.hpp"

namespace flh {

using PackedSim = PatternSim;

} // namespace flh
