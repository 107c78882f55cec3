// Launch-level switch for the convergence fast path (DESIGN.md §3.6).
//
// Which bodies may batch is a static fact of the call site: the
// front-end passes dsl::convergent's declaration to rt::simd /
// rt::simdLoopReduceAdd. This header only names the launch-level knob
// in the omprt namespace.
#pragma once

#include "gpusim/knobs.h"

namespace simtomp::omprt {

/// Launch-level fast-path switch. kAuto consults the SIMTOMP_FAST knob
/// ("0"/"off"/"false" disable; anything else, or unset, enables).
using FastPathMode = gpusim::FastPathMode;

}  // namespace simtomp::omprt
