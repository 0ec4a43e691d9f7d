// The k-ary grouped hypercube overlay for the robust DHT (Section 7.2): the
// servers' groups represent the vertices of a d-dimensional k-ary hypercube
// (Definition 1) and are reconfigured exactly like Section 5's overlay, so
// this is dos::DosOverlay at arity k, with its own epoch salt (11; 3 there).
#pragma once

#include "dos/overlay.hpp"

namespace reconfnet::apps {

class KaryGroupedOverlay final : public dos::DosOverlay {
 public:
  explicit KaryGroupedOverlay(const Config& config)
      : DosOverlay(config, /*salt=*/11) {}
};

}  // namespace reconfnet::apps
