// CrashTortureRunner: power-cut torture for the crash-consistency
// subsystem. Each cut cycle arms the sim::FaultInjector with a random
// crash point, drives acked safe-write/delete/get traffic until the
// power dies mid-workload, materializes the post-crash volume image,
// remounts (journal/log replay), runs the repository fsck, and checks
// the surviving state against a deterministic host-side oracle:
//
//   * an object whose commit record reached the platter is never lost;
//   * every surviving payload is byte-identical to SOME version the
//     client was acked (stable pre-window, or acked during the window)
//     — torn writes must be rolled back, never surfaced;
//   * acked-but-rolled-back operations are counted, not failed: they
//     are the data-loss window the recovery-mode ablation measures.
//
// Works over both back ends, any queue depth, batched or per-op journal
// charging (filesystem) and bulk-logged or fully-logged commits
// (database). Deterministic from the seed.

#ifndef LOREPO_WORKLOAD_CRASH_TORTURE_H_
#define LOREPO_WORKLOAD_CRASH_TORTURE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/db_repository.h"
#include "core/fs_repository.h"
#include "core/object_repository.h"
#include "sim/fault_injector.h"
#include "sim/media_fault.h"
#include "util/random.h"
#include "util/result.h"
#include "util/status.h"

namespace lor {
namespace workload {

/// Which back end the torture drives.
enum class CrashBackend { kFilesystem, kDatabase };

/// Torture configuration.
struct CrashTortureOptions {
  CrashBackend backend = CrashBackend::kFilesystem;
  /// Data volume size (the database adds a log volume of 1/8 this).
  uint64_t volume_bytes = 256 * kMiB;
  /// Mean object size; per-version sizes vary deterministically around
  /// half to all of this.
  uint64_t object_bytes = 256 * kKiB;
  /// Live objects bulk-loaded before the first cut.
  uint64_t objects = 48;
  /// Crash cycles to run.
  uint64_t cuts = 25;
  /// Safe-write replacements per object applied (unarmed) before the
  /// cut phase — the volume-age axis of the recovery benchmark.
  uint64_t aging_rounds = 0;
  /// Submission queue depth for the data volume (1 = synchronous).
  uint32_t queue_depth = 1;
  /// Filesystem: NTFS-like lazy-commit journal batching.
  bool batch_journal_charges = true;
  /// Database: bulk-logged (the paper's mode) vs fully logged commits.
  bool bulk_logged = true;
  /// kRetain verifies payload bytes; kMetadataOnly verifies existence
  /// and per-version sizes only (cheap enough for big sweeps).
  sim::DataMode data_mode = sim::DataMode::kRetain;
  /// Operations issued per armed window before giving up on the trip.
  uint64_t max_ops_per_window = 48;
  uint64_t seed = 1;
  /// Buffer-pool capacity on the data volume. 0 (the default) runs the
  /// historical uncached torture; nonzero exercises the write-back
  /// cache against power cuts (the pool forces write-through while the
  /// injector is armed, so the oracle's durability rules are unchanged).
  uint64_t cache_bytes = 0;

  // -- Media torture (RunMedia) ----------------------------------------
  /// Media-fault cycles to run; each cycle re-arms the model with a
  /// fresh derived seed (new fault map) over the same volume.
  uint64_t media_cycles = 25;
  /// Per-cycle fault mix. The seed field is overridden per cycle; the
  /// rates default to zero, so callers set the mix they want.
  sim::MediaFaultSpec media;
  /// Acked operations driven per armed media cycle.
  uint64_t ops_per_media_cycle = 96;
  /// Run a repairing scrub pass while the cycle's faults are armed.
  bool scrub_between_cycles = true;
};

/// Outcome of one cut cycle.
struct CrashCutResult {
  /// False when the window closed cleanly before the crash point.
  bool tripped = false;
  sim::CrashReport crash;
  core::MountReport mount;
  bool fsck_clean = true;
  uint64_t fsck_issues = 0;
  /// Objects live at the last quiescent point that recovery lost.
  uint64_t committed_lost = 0;
  /// Surviving payloads matching no acked version (torn bytes served).
  uint64_t torn_surfaced = 0;
  /// Window-acked operations whose effect did not survive (the
  /// data-loss window).
  uint64_t acked_rolled_back = 0;
};

/// Outcome of one media-fault cycle.
struct MediaCycleResult {
  uint64_t ops = 0;
  /// Typed Status::IoError reads surfaced to the client (retries
  /// exhausted on a latent sector error).
  uint64_t read_errors = 0;
  /// Typed Status::Corruption reads (checksum caught wrong bytes).
  uint64_t corruptions_detected = 0;
  /// OK-status reads delivering bytes matching no acked version — the
  /// failure the checksums exist to prevent. Must stay zero.
  uint64_t silent_corruptions = 0;
  /// Keys rewritten by the end-of-cycle heal pass.
  uint64_t healed = 0;
  /// Transient LSE regions that recovered under retry this cycle.
  uint64_t transient_clears = 0;
  core::ScrubReport scrub;
  bool fsck_clean = true;
};

/// Aggregates over a RunMedia run.
struct MediaTortureSummary {
  uint64_t cycles_executed = 0;
  uint64_t ops = 0;
  uint64_t read_errors = 0;
  uint64_t corruptions_detected = 0;
  uint64_t silent_corruptions = 0;
  uint64_t scrub_objects_scanned = 0;
  uint64_t scrub_repaired = 0;
  uint64_t scrub_unrecoverable = 0;
  uint64_t healed = 0;
  uint64_t transient_clears = 0;
  uint64_t fsck_dirty_cycles = 0;
  /// Final quarantine size (filesystem clusters / database pages).
  uint64_t quarantined_units = 0;
};

/// Aggregates over a whole torture run.
struct CrashTortureSummary {
  uint64_t cuts_executed = 0;
  uint64_t windows_untripped = 0;
  uint64_t committed_lost = 0;
  uint64_t torn_surfaced = 0;
  uint64_t acked_rolled_back = 0;
  uint64_t fsck_dirty_cuts = 0;
  uint64_t entries_replayed = 0;
  uint64_t ops_rolled_back = 0;
  uint64_t data_loss_bytes = 0;
  double total_recovery_seconds = 0.0;
  double max_recovery_seconds = 0.0;
};

/// Drives one repository through seeded power-cut cycles.
class CrashTortureRunner {
 public:
  explicit CrashTortureRunner(CrashTortureOptions options);
  ~CrashTortureRunner();

  /// Builds the repository, attaches the injector, bulk-loads the
  /// object population, and applies the configured unarmed aging.
  Status Setup();

  /// One arm → workload → cut → mount → fsck → oracle cycle. A window
  /// that never trips is closed cleanly (tripped = false) and does not
  /// count against `cuts`.
  Result<CrashCutResult> RunCut();

  /// Setup + `cuts` tripped cycles (untripped windows retried).
  Result<CrashTortureSummary> Run();

  /// One media cycle: arm a derived fault map → acked traffic under a
  /// byte oracle (an OK read must deliver correct bytes; wrong bytes
  /// without a typed error count as silent corruption) → optional
  /// repairing scrub → disarm and heal every damaged key by rewrite →
  /// fsck (must be clean after the heal) → CheckConsistency. Requires
  /// DataMode::kRetain and a prior Setup with media faults attached
  /// (RunMedia does both).
  Result<MediaCycleResult> RunMediaCycle();

  /// Setup + media attach + `media_cycles` cycles.
  Result<MediaTortureSummary> RunMedia();

  core::ObjectRepository* repository() { return repo_.get(); }
  sim::FaultInjector* injector() { return &injector_; }
  sim::MediaFaultModel* media_model() { return &media_model_; }

 private:
  /// Host-side truth for one key. `version` / `size` / `hash` describe
  /// the newest state known durable at the last quiescent point.
  struct KeyState {
    bool live = false;
    uint64_t version = 0;
    uint64_t size = 0;
    uint64_t hash = 0;
    uint64_t versions_issued = 0;
  };
  /// One acked mutation inside the current armed window.
  struct WindowOp {
    bool deleted = false;
    uint64_t version = 0;
    uint64_t size = 0;
    uint64_t hash = 0;
  };

  std::string KeyName(uint64_t idx) const;
  /// Deterministic per-(key, version) size and payload.
  uint64_t SizeFor(uint64_t idx, uint64_t version) const;
  std::vector<uint8_t> PayloadFor(uint64_t idx, uint64_t version) const;

  /// Issues one random acked operation; records it in `window` when
  /// non-null (armed) or folds it into the stable oracle (aging).
  Status IssueOp(std::unordered_map<uint64_t, std::vector<WindowOp>>* window);

  /// One acked operation under the media oracle (no crash window: state
  /// folds straight into the stable truth; reads are byte-verified).
  Status IssueMediaOp(MediaCycleResult* cycle);

  /// Releases rollback holds after a window that never tripped.
  void EndCrashWindowOnStore();
  /// Folds the acked window into the stable oracle (clean close: a
  /// drained queue makes every acked op durable).
  void FoldWindowIntoStable();
  /// Compares post-recovery state against the oracle for every key
  /// touched in the window, then adopts the observed state.
  Status VerifyAfterCrash(CrashCutResult* cut);

  CrashTortureOptions options_;
  Rng rng_;
  sim::FaultInjector injector_;
  sim::MediaFaultModel media_model_;
  std::unique_ptr<core::VolumeRepository> repo_;
  /// repo_ as its back end, for the store-specific hooks (null for the
  /// other back end).
  core::FsRepository* fs_ = nullptr;
  core::DbRepository* db_ = nullptr;
  std::vector<KeyState> keys_;
  std::unordered_map<uint64_t, std::vector<WindowOp>> window_;
  /// Upper bound fed to the crash-point draw (writes per window).
  uint64_t writes_horizon_ = 64;
};

}  // namespace workload
}  // namespace lor

#endif  // LOREPO_WORKLOAD_CRASH_TORTURE_H_
