// Post-hoc validation that a trace obeys a scheduling model (paper §2.3.1
// and Fig. 1-2). Tests use these to certify the generative schedulers; the
// benches use them to certify that counterexample schedules really are
// 1-Async / 2-NestA / k-Async.
#pragma once

#include "core/trace.hpp"
#include "core/types.hpp"

namespace cohesion::core {

/// Tolerance ε of every comparison below: two times within ε of each other
/// are treated as equal.
inline constexpr Time kScheduleEps = 1e-9;

/// Largest number of activations of any single robot whose Look falls
/// inside one activity interval [s, e] = [t_look, t_move_end] of another
/// robot. "Inside" is the open, ε-shrunk window: a Look at time t counts
/// iff s + ε < t < e − ε (each side computed in double), so a Look within ε
/// of either endpoint does not count, and neither do the robot's own
/// activations. A trace is k-Async iff this is <= k.
///
/// O(A log A + W) for A records, where W is the total number of Looks
/// inside all windows (at most k·(n−1) per window on a k-Async trace).
/// Throws std::invalid_argument, naming the record index, if a t_look or
/// t_move_end is not finite.
std::size_t max_activations_within_interval(const Trace& trace);

/// True iff all pairs of activity intervals of distinct robots are disjoint
/// or nested — the NestA restriction. For intervals a, b with
/// a.start <= b.start, the pair crosses (and the trace is not nested) iff
///   a.start < b.start − ε,  a.end > b.start + ε  and  a.end + ε < b.end
/// (each side computed in double). So intervals that overlap by at most ε
/// count as disjoint, and starts or ends within ε of each other count as
/// nested; equal and touching intervals never cross.
///
/// O(A log A) on traces whose robots' own intervals do not overlap.
/// Throws std::invalid_argument, naming the record index, if a t_look or
/// t_move_end is not finite.
bool is_nested_activation(const Trace& trace);

/// True iff the trace is k-NestA: nested and at most k activations of one
/// robot within any single interval of another.
bool is_k_nesta(const Trace& trace, std::size_t k);

/// True iff the trace is k-Async.
bool is_k_async(const Trace& trace, std::size_t k);

/// True iff the trace is SSync-shaped: time partitions into rounds of length
/// `round_length` such that every activation is fully contained in one round
/// and every activated robot's interval spans look-to-move within the round.
bool is_ssync(const Trace& trace, double round_length = 1.0);

/// Fairness check: no robot goes more than `window` time units without
/// starting an activation, over the traced horizon (final partial window
/// exempt).
bool is_fair(const Trace& trace, Time window);

}  // namespace cohesion::core
