// replay.h - Per-layer replay of the live phase's inputs.
#pragma once

#include "common.h"
#include "live.h"
#include "workload.h"

namespace perfbench {

/// Times each layer's public calls on `in`, single-threaded, and adds the
/// per-layer rows to `report`.
void runReplay(const WorkloadSpec& spec, const ReplayInputs& in, Report& report);

}  // namespace perfbench
