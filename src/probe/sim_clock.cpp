#include "probe/sim_clock.hpp"

#include "common/assert.hpp"

namespace qvg {

SimClock::SimClock(double dwell_seconds) : dwell_(dwell_seconds) {
  QVG_EXPECTS(dwell_seconds >= 0.0);
}

}  // namespace qvg
