#pragma once
// Names of the lane kernel's evaluator pins (CampaignOptions::engine), for
// the suites that run each evaluator: failure messages and test names.

#include "bist/session.hpp"

namespace stc {

inline const char* engine_name(CampaignEngine engine) {
  return engine == CampaignEngine::kFlat ? "flat" : "event";
}

}  // namespace stc
