#include "run/instantiate.hpp"

#include <string>

#include "run/registry.hpp"

namespace cohesion::run {

RunInstance instantiate(const RunSpec& spec) {
  const RunSeeds seeds = seed_streams(spec.seed);
  RunInstance inst;
  inst.algorithm = algorithms().get(spec.algorithm.type)(spec.algorithm.params);
  inst.initial = initials().get(spec.initial.type)(spec.n, spec.visibility_radius, seeds.initial,
                                                   spec.initial.params);
  inst.scheduler = schedulers().get(spec.scheduler.type)(inst.initial.size(), seeds.scheduler,
                                                         spec.scheduler.params);
  inst.config.visibility.radius = spec.visibility_radius;
  inst.config.visibility.open_ball = spec.open_ball;
  inst.config.visibility.multiplicity_detection = spec.multiplicity_detection;
  inst.config.error = errors().get(spec.error.type)(spec.error.params);
  inst.config.seed = seeds.engine;
  // One snapshot path per schedule class: a synchronous round puts all its
  // Looks at one instant, so one grid rebuild serves the round; every other
  // scheduler gives each Look its own time and keeps the grid per commit.
  const std::string& key = spec.scheduler.type;
  inst.config.snapshot_path = key == "fsync" || key == "ssync" ? core::SnapshotPath::kRebuild
                                                               : core::SnapshotPath::kIncremental;
  inst.config.record_history = spec.trace.mode == "memory";
  inst.engine = std::make_unique<core::Engine>(inst.initial, *inst.algorithm, *inst.scheduler,
                                               inst.config);
  return inst;
}

}  // namespace cohesion::run
