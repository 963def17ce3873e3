// calibrate.h - Traffic check of the emulated agents against the real
// resource_agentd / customer_agentd.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "live.h"

namespace perfbench {

struct CalibrationResult {
  FrameMix real;      ///< frames per placed job, real daemons
  FrameMix emulated;  ///< frames per placed job, emulated agents
  int threads = 0;    ///< peak process threads during the real-daemon run
  std::vector<std::string> problems;  ///< empty = the mixes agree
};

CalibrationResult calibrate(std::uint64_t seed);

}  // namespace perfbench
