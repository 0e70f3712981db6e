#include "run/registry.hpp"

#include <cmath>

#include "algo/baselines.hpp"
#include "algo/kknps.hpp"
#include "algo/kknps3d.hpp"
#include "algo/lens_midpoint.hpp"
#include "core/activation.hpp"
#include "metrics/configurations.hpp"
#include "sched/asynchronous.hpp"
#include "sched/synchronous.hpp"

namespace cohesion::run {

namespace {

std::size_t size_or(const Json& params, std::string_view key, std::size_t fallback) {
  return static_cast<std::size_t>(params.uint_or(key, fallback));
}

std::unique_ptr<core::Scheduler> make_kasync(std::size_t n, std::uint64_t seed, const Json& params,
                                             bool unrestricted) {
  sched::KAsyncScheduler::Params p;
  // k = 0 (or the "async" key) selects unrestricted Async.
  p.k = unrestricted ? static_cast<std::size_t>(-1) : size_or(params, "k", p.k);
  if (p.k == 0) p.k = static_cast<std::size_t>(-1);
  p.min_duration = params.number_or("min_duration", p.min_duration);
  p.max_duration = params.number_or("max_duration", p.max_duration);
  p.min_gap = params.number_or("min_gap", p.min_gap);
  p.max_gap = params.number_or("max_gap", p.max_gap);
  p.xi = params.number_or("xi", p.xi);
  p.seed = params.uint_or("seed", seed);
  return std::make_unique<sched::KAsyncScheduler>(n, p);
}

void register_algorithms(Registry<AlgorithmFactory>& r) {
  r.add("kknps", [](const Json& params) -> std::unique_ptr<core::Algorithm> {
    algo::KknpsAlgorithm::Params p;
    p.k = size_or(params, "k", p.k);
    p.distance_delta = params.number_or("distance_delta", p.distance_delta);
    p.halfplane_tolerance = params.number_or("halfplane_tolerance", p.halfplane_tolerance);
    p.radius_divisor = params.number_or("radius_divisor", p.radius_divisor);
    return std::make_unique<algo::KknpsAlgorithm>(p);
  });
  r.add("kknps3d", [](const Json& params) -> std::unique_ptr<core::Algorithm> {
    algo::Kknps3dParams p;
    p.k = size_or(params, "k", p.k);
    p.hull_tolerance = params.number_or("hull_tolerance", p.hull_tolerance);
    return std::make_unique<algo::Kknps3dPlanarAlgorithm>(p);
  });
  r.add("ando", [](const Json& params) -> std::unique_ptr<core::Algorithm> {
    // v <= 0 selects the weakened "furthest neighbour" variant (footnote 9).
    return std::make_unique<algo::AndoAlgorithm>(params.number_or("v", 1.0));
  });
  r.add("katreniak", [](const Json&) -> std::unique_ptr<core::Algorithm> {
    return std::make_unique<algo::KatreniakAlgorithm>();
  });
  r.add("cog", [](const Json&) -> std::unique_ptr<core::Algorithm> {
    return std::make_unique<algo::CogAlgorithm>();
  });
  r.add("gcm", [](const Json&) -> std::unique_ptr<core::Algorithm> {
    return std::make_unique<algo::GcmAlgorithm>();
  });
  r.add("null", [](const Json&) -> std::unique_ptr<core::Algorithm> {
    return std::make_unique<algo::NullAlgorithm>();
  });
  r.add("lens_midpoint", [](const Json& params) -> std::unique_ptr<core::Algorithm> {
    algo::LensMidpointAlgorithm::Params p;
    p.colinearity_tolerance = params.number_or("colinearity_tolerance", p.colinearity_tolerance);
    return std::make_unique<algo::LensMidpointAlgorithm>(p);
  });
}

void register_schedulers(Registry<SchedulerFactory>& r) {
  r.add("fsync", [](std::size_t n, std::uint64_t, const Json&) -> std::unique_ptr<core::Scheduler> {
    return std::make_unique<sched::FSyncScheduler>(n);
  });
  r.add("ssync",
        [](std::size_t n, std::uint64_t seed, const Json& params) -> std::unique_ptr<core::Scheduler> {
          sched::SSyncScheduler::Params p;
          p.activation_probability = params.number_or("activation_probability", p.activation_probability);
          p.fairness_window = size_or(params, "fairness_window", p.fairness_window);
          p.xi = params.number_or("xi", p.xi);
          p.seed = params.uint_or("seed", seed);
          return std::make_unique<sched::SSyncScheduler>(n, p);
        });
  r.add("kasync",
        [](std::size_t n, std::uint64_t seed, const Json& params) -> std::unique_ptr<core::Scheduler> {
          return make_kasync(n, seed, params, /*unrestricted=*/false);
        });
  r.add("async",
        [](std::size_t n, std::uint64_t seed, const Json& params) -> std::unique_ptr<core::Scheduler> {
          return make_kasync(n, seed, params, /*unrestricted=*/true);
        });
  r.add("knesta",
        [](std::size_t n, std::uint64_t seed, const Json& params) -> std::unique_ptr<core::Scheduler> {
          sched::KNestAScheduler::Params p;
          p.k = size_or(params, "k", p.k);
          p.xi = params.number_or("xi", p.xi);
          p.seed = params.uint_or("seed", seed);
          return std::make_unique<sched::KNestAScheduler>(n, p);
        });
  r.add("scripted",
        [](std::size_t, std::uint64_t, const Json& params) -> std::unique_ptr<core::Scheduler> {
          // params.script: [[robot, t_look, t_move_start, t_move_end, frac], ...]
          std::vector<core::Activation> script;
          for (const Json& row : params.at("script").items()) {
            const JsonArray& f = row.items();
            if (f.size() != 5) throw std::runtime_error("scripted: rows need 5 fields");
            core::Activation a;
            a.robot = static_cast<core::RobotId>(f[0].as_uint());
            a.t_look = f[1].as_double();
            a.t_move_start = f[2].as_double();
            a.t_move_end = f[3].as_double();
            a.realized_fraction = f[4].as_double();
            script.push_back(a);
          }
          return std::make_unique<sched::ScriptedScheduler>(std::move(script));
        });
}

void register_errors(Registry<ErrorModelFactory>& r) {
  // "exact": identity frames, no noise — the validator/test setting.
  r.add("exact", [](const Json&) {
    core::ErrorModel m;
    m.random_rotation = false;
    return m;
  });
  // "noisy": the engine's general setting — rotated local frames plus
  // whatever error magnitudes the params set (all default 0, which is the
  // engine's own default ErrorModel).
  r.add("noisy", [](const Json& params) {
    core::ErrorModel m;
    m.distance_delta = params.number_or("distance_delta", m.distance_delta);
    m.skew_lambda = params.number_or("skew_lambda", m.skew_lambda);
    m.motion_quad_coeff = params.number_or("motion_quad_coeff", m.motion_quad_coeff);
    m.random_rotation = params.bool_or("random_rotation", m.random_rotation);
    m.allow_reflection = params.bool_or("allow_reflection", m.allow_reflection);
    return m;
  });
}

void register_initials(Registry<InitialConfigFactory>& r) {
  // Spacing-style params are in units of the visibility radius v.
  r.add("line", [](std::size_t n, double v, std::uint64_t, const Json& params) {
    return metrics::line_configuration(n, params.number_or("spacing", 0.9) * v);
  });
  r.add("grid", [](std::size_t n, double v, std::uint64_t, const Json& params) {
    return metrics::grid_configuration(n, params.number_or("spacing", 0.9) * v);
  });
  r.add("circle", [](std::size_t n, double v, std::uint64_t, const Json& params) {
    return metrics::regular_polygon_configuration(n, params.number_or("side", 0.9) * v);
  });
  r.add("random", [](std::size_t n, double v, std::uint64_t seed, const Json& params) {
    // world_radius wins when given; otherwise radius scales with sqrt(n)
    // for asymptotically constant density.
    double radius = params.number_or("world_radius", -1.0);
    if (radius <= 0.0) {
      radius = params.number_or("world_radius_per_sqrt_n", 0.4) * v *
               std::sqrt(static_cast<double>(n));
    }
    return metrics::random_connected_configuration(n, radius, v, params.uint_or("seed", seed));
  });
  r.add("two_cluster", [](std::size_t n, double v, std::uint64_t seed, const Json& params) {
    return metrics::two_cluster_configuration(
        n, static_cast<std::size_t>(params.uint_or("bridge", 3)), v, params.uint_or("seed", seed));
  });
  r.add("spiral", [](std::size_t, double v, std::uint64_t, const Json& params) {
    // Robot count is dictated by the construction; RunSpec.n is overridden.
    return metrics::spiral_configuration(params.number_or("psi", 0.3),
                                         params.number_or("edge_scale", 0.92) * v)
        .positions;
  });
}

}  // namespace

Registry<AlgorithmFactory>& algorithms() {
  static Registry<AlgorithmFactory>* r = [] {
    auto* reg = new Registry<AlgorithmFactory>("algorithm");
    register_algorithms(*reg);
    return reg;
  }();
  return *r;
}

Registry<SchedulerFactory>& schedulers() {
  static Registry<SchedulerFactory>* r = [] {
    auto* reg = new Registry<SchedulerFactory>("scheduler");
    register_schedulers(*reg);
    return reg;
  }();
  return *r;
}

Registry<ErrorModelFactory>& errors() {
  static Registry<ErrorModelFactory>* r = [] {
    auto* reg = new Registry<ErrorModelFactory>("error model");
    register_errors(*reg);
    return reg;
  }();
  return *r;
}

Registry<InitialConfigFactory>& initials() {
  static Registry<InitialConfigFactory>* r = [] {
    auto* reg = new Registry<InitialConfigFactory>("initial configuration");
    register_initials(*reg);
    return reg;
  }();
  return *r;
}

}  // namespace cohesion::run
