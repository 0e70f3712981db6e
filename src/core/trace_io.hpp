// Trace serialization: CSV export/import for offline analysis and replay.
//
// Format: a header line, one line `I,robot,x,y` per initial position, then
// one line `A,robot,t_look,t_move_start,t_move_end,frac,from_x,from_y,
// planned_x,planned_y,realized_x,realized_y,seen` per activation record in
// look order. Round-trips exactly (doubles printed with max_digits10).
#pragma once

#include <iosfwd>
#include <string>

#include "core/trace.hpp"

namespace cohesion::core {

void write_trace_csv(const Trace& trace, std::ostream& out);
void write_trace_csv(const Trace& trace, const std::string& path);

/// Parse a trace written by write_trace_csv. Throws std::runtime_error on
/// malformed input, including a non-finite ("nan", "inf") time, fraction
/// or coordinate.
Trace read_trace_csv(std::istream& in);
Trace read_trace_csv_file(const std::string& path);

}  // namespace cohesion::core
