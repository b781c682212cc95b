// Trace transforms for scenario construction: build a piecewise-constant
// step trace, and black out a window. The adaptive-scheduler example
// builds its regime-shift scenario with one step_trace, the fault model's
// blackout windows go through blackout_trace, and tests use them to craft
// exact edge cases.
#pragma once

#include <vector>

#include "trace/bandwidth_trace.hpp"

namespace fedra {

/// Piecewise-constant trace from (duration_seconds, bandwidth) segments at
/// the given resolution. Durations are rounded to whole samples (at least
/// one per segment).
BandwidthTrace step_trace(
    const std::vector<std::pair<double, double>>& segments, double dt = 1.0);

/// Radio-outage transform: zeroes every sample overlapping the absolute
/// time window [start, start + duration). The window is mapped into trace
/// period coordinates (periodic extension), wrapping across the period
/// boundary if needed. Requires duration < one period and that the
/// surviving samples still carry positive mean bandwidth (a trace that can
/// never move a byte is invalid). duration == 0 returns the trace as-is.
BandwidthTrace blackout_trace(const BandwidthTrace& trace, double start,
                              double duration);

}  // namespace fedra
