// Spec presets: layered experiment files via "extends".
//
// A spec JSON document (RunSpec or ExperimentSpec alike) may carry a
// top-level
//
//   "extends": "base.json"              // single base
//   "extends": ["a.json", "b.json"]     // chain: later bases override earlier
//
// naming other spec files whose contents it refines. load_spec_file()
// resolves the whole chain at load time: each base is loaded (recursively —
// a base may itself extend further), the bases are deep-merged in order,
// and the referring document's own keys are merged last, so the override
// always wins. Merge semantics match the sweep empty-path override
// (docs/experiments.md): objects merge key-by-key recursively; scalars and
// arrays replace. Base paths are resolved relative to the directory of the
// file that names them, so preset libraries relocate as a unit.
//
// The "extends" key itself is consumed — the resolved document contains no
// trace of the layering, which is the property the result cache leans on:
// resolution happens *before* fingerprinting, so refactoring a spec into
// presets (or reshuffling the preset stack) that resolves to the same
// document keeps every fingerprint, checkpoint and cache entry valid.
//
// Failure modes are permanent spec errors (exit 1 in the CLI taxonomy),
// and every message names the full chain of files that led to the problem:
// a cycle ("a.json -> b.json -> a.json"), a missing or unreadable base, a
// non-string "extends" entry, or a base whose document is not a JSON
// object. Only top-level "extends" is honored; the key has no meaning
// inside nested objects.
#pragma once

#include <string>

#include "run/json.hpp"
#include "run/spec.hpp"

namespace cohesion::run {

/// Deep-merge `overlay` into `base`, override-wins: objects merge
/// recursively, anything else (scalars, arrays, nulls) replaces. Exposed
/// for tests; the grain of both "extends" and empty-path sweep overrides.
void deep_merge(Json& base, const Json& overlay);

/// Parse the spec file at `path` and resolve its "extends" chain (see file
/// header). With no "extends" key this is exactly Json::parse_file.
/// Throws std::runtime_error naming the preset chain on cycles, missing
/// bases, or malformed "extends" values.
[[nodiscard]] Json load_spec_file(const std::string& path);

/// Load an experiment the way every CLI does: resolve the "extends" chain
/// (load_spec_file), then wrap a bare RunSpec (no "base") as a one-run
/// experiment named after it. An unreadable file throws TransientError (it
/// may not have been copied yet); an invalid one throws std::runtime_error.
[[nodiscard]] ExperimentSpec load_experiment(const std::string& path);

/// Resolve an already-parsed document against bases located relative to
/// `source_dir` (the directory of the file `doc` came from; "" means the
/// process CWD). load_spec_file is parse_file + this.
[[nodiscard]] Json resolve_extends(Json doc, const std::string& source_dir);

}  // namespace cohesion::run
