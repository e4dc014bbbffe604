// Discrete-event network simulator core.
//
// This is the substitute for the paper's AURORA testbed (DESIGN.md §4):
// a deterministic event-driven simulation whose links reproduce the
// disordering processes the paper describes — loss-induced gaps (§1),
// multipath skew across parallel lanes ("obtaining gigabit rates on a
// SONET OC-3 ATM network requires using eight 155 Mbps ATM connections
// in parallel"), route changes, and duplication. All randomness comes
// from one seeded Rng, so experiments replay exactly.
//
// The event scheduler (Simulator) and the packet unit live in
// src/common/runtime.hpp, shared with the transport and real-I/O code.
#pragma once

#include "src/common/runtime.hpp"
