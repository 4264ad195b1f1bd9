// The facade build API: one options struct folding everything the scattered
// overloads used to thread by hand — CrsdConfig construction knobs, storage
// compaction (already inside CrsdConfig::storage) and tuning-cache
// defaulting — behind a single crsd::build() entry point.
//
// This header sits at the facade layer: it deliberately reaches down into
// kernels/crsd_autotune.hpp for the persistent tuning cache, the same way
// crsd.hpp aggregates every subsystem.
#pragma once

#include <optional>
#include <string>

#include "common/thread_pool.hpp"
#include "core/builder.hpp"
#include "gpusim/device.hpp"
#include "kernels/crsd_autotune.hpp"
#include "matrix/coo.hpp"

namespace crsd {

/// Unified build options. Implicitly constructible from CrsdConfig so
/// build(a, cfg) pins a configuration; a default-constructed BuildOptions
/// builds with CrsdConfig{}.
struct BuildOptions {
  /// Construction knobs, including storage compaction (config.storage).
  CrsdConfig config;

  /// When true, consult the persistent autotuner cache
  /// (kernels::load_cached_tuning) for this matrix structure on `device`
  /// and adopt the cached winner's construction knobs; config.storage and
  /// config.threads always stay the caller's. Off by default so build()
  /// stays bitwise-deterministic for callers that pin configurations.
  bool tune_from_cache = false;

  /// Device the tuning-cache entries are keyed by. Callers that run on a
  /// simulated device should pass dev.spec(); the default spec keys its own
  /// cache namespace.
  gpusim::DeviceSpec device{};

  /// Cache directory override; empty resolves $CRSD_TUNE_CACHE, then
  /// <tmp>/crsd-tune-cache (kernels/crsd_autotune.hpp).
  std::string cache_dir;

  BuildOptions() = default;
  // NOLINTNEXTLINE(google-explicit-constructor): build(a, cfg) is the
  // common call shape.
  BuildOptions(const CrsdConfig& cfg) : config(cfg) {}
};

/// Builds a CRSD matrix from canonical COO — the facade entry point. With opts.tune_from_cache set, a
/// persistent-cache hit replaces the construction knobs with the cached
/// winner's (zero measured trials, the OSKI re-ingest path); otherwise the
/// build is exactly detail::build_crsd_impl(a, opts.config, pool).
template <Real T>
CrsdMatrix<T> build(const Coo<T>& a, const BuildOptions& opts = {},
                    ThreadPool* pool = nullptr) {
  CrsdConfig cfg = opts.config;
  if (opts.tune_from_cache) {
    kernels::AutotuneOptions aopts;
    aopts.cache_dir = opts.cache_dir;
    aopts.storage = cfg.storage;
    if (std::optional<kernels::CachedTuning> tuned =
            kernels::load_cached_tuning(opts.device, a, {}, aopts)) {
      const StorageOptions storage = cfg.storage;
      const int threads = cfg.threads;
      cfg = tuned->config;
      cfg.storage = storage;
      cfg.threads = threads;
    }
  }
  return detail::build_crsd_impl(a, cfg, pool);
}

}  // namespace crsd
