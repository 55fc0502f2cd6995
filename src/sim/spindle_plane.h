// SpindlePlane: the shared-spindle execution plane — several shards'
// volumes on disjoint regions of ONE simulated disk, one head, one
// clock, with concurrent submission from the owners' threads and a
// deterministic service interleave.
//
// Topology. The plane owns a *hub* BlockDevice whose capacity is
// owners × stride (stride = the per-owner region, aligned up to the
// slab size) and hands each owner a view device (`CreateOwnerDevice`)
// aliasing its region. Each owner's IoScheduler is re-homed onto the
// plane with IoScheduler::AttachSpindle: sealed op chains accumulate
// into batches of `queue_depth` ops and are *delivered* to the plane
// instead of being serviced against a private device.
//
// Service model — rounds. The plane services *rounds*: one delivered
// batch from every active owner whose queue front is a batch. A round
// cannot form until every active owner has something queued (a batch or
// a fence), which is what makes the interleave a function of the
// per-owner submission sequences alone — never of host thread timing.
// Within a round the service order is:
//
//   * FIFO  — a salted slot shuffle: positions are permuted by a hash
//     of (plane seed, round number, position), then each owner's
//     positions are refilled with its ops in program order. Different
//     owners interleave pseudo-randomly but reproducibly; one owner's
//     ops never reorder against each other.
//   * SPTF  — NCQ-style: repeatedly pick, among the owners' earliest
//     unserviced ops, the one whose first device request has the
//     smallest positioning cost from the current head (ties broken by
//     the salted key). Starvation is bounded by construction: a round
//     is a finite set and every op in it is serviced before the next
//     round begins.
//
// Charging — exact synchronous replay. An op's chain is serviced
// *contiguously*: every entry goes through BlockDevice::Apply on the
// owner's view, the very function the dedicated synchronous path
// charges with (ServiceRequest / ServiceFlush / CPU seconds /
// stream-window penalty over the op's own span). One owner alone on a
// spindle at queue depth 1 therefore reproduces the dedicated
// synchronous timeline bit for bit — clock, stats, and latency
// records. With several owners, consecutive chains from
// different owners pay the head movement between their regions; the
// hub attributes those as interference seeks on the owners' views.
//
// Closed loop & latency. Each owner runs its own closed loop of
// `depth` logical clients: an op's arrival is the completion time of
// the slot it reuses, service starts when the head reaches it, and
// completion − arrival is the recorded latency; start − arrival
// accumulates as the owner's queue_wait_s. Single owner at depth 1:
// arrival == start, queue wait identically zero.
//
// Fences. `IoScheduler::Settle` (regular fence — Drain/Engage/
// Disengage) pops in lockstep: one fence from every active owner, once
// every active owner's front is a fence; each popped owner resets its
// closed loop. `IoScheduler::SettlePhase` (phase fence — workload
// phase boundaries) pops eagerly when it reaches its owner's front and
// *parks* the owner; when every live owner is parked the plane resets
// the epoch — all owners unparked with their loops re-based at the hub
// clock — so the next phase starts aligned. Contract: SettlePhase must
// be phase-aligned (every owner calls it, and a barrier separates it
// from the owner's next submissions); regular fences should likewise
// be issued symmetrically across owners (the workload runners do both).
//
// Threading. All plane state is guarded by one mutex; rounds are
// serviced with the mutex *released* under a baton flag by whichever
// owner thread trips the condition, so other owners' host-side work
// (object assembly, cache lookups, verification) overlaps the spindle
// replay — that overlap is the wall-clock win the contended figures
// measure. Payload bytes still move at submission time on the owners'
// threads into disjoint, pre-allocated slab sets of the hub arena.
//
// Destruction. A scheduler being destroyed retires its owner:
// leftovers are delivered, the owner leaves the active set, and the
// last retirement drains any stragglers solo in owner order.

#ifndef LOREPO_SIM_SPINDLE_PLANE_H_
#define LOREPO_SIM_SPINDLE_PLANE_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <queue>
#include <vector>

#include "sim/block_device.h"
#include "sim/io_scheduler.h"
#include "sim/latency_recorder.h"

namespace lor {
namespace sim {

/// One shared spindle serving several owners' volumes.
class SpindlePlane {
 public:
  struct Params {
    /// Disk parameterization template; its capacity is replaced by
    /// owners × stride, so the seek curve and zone layout are those of
    /// one physical disk spanning every owner's region.
    DiskParams disk;
    /// Per-owner region (one shard's volume), aligned up to
    /// BlockDevice::kSlabBytes internally.
    uint64_t region_bytes = 0;
    uint32_t owners = 1;
    DataMode data_mode = DataMode::kMetadataOnly;
    /// Service policy of the shared head — fixed for every owner.
    SchedPolicy policy = SchedPolicy::kSptf;
    /// Salts the FIFO shuffle / SPTF tie-breaks per round.
    uint64_t seed = 0;
  };

  explicit SpindlePlane(const Params& params);
  ~SpindlePlane();

  SpindlePlane(const SpindlePlane&) = delete;
  SpindlePlane& operator=(const SpindlePlane&) = delete;

  /// Creates owner `owner`'s view device (callable once per owner,
  /// before any traffic; typically all at construction time, serially).
  std::unique_ptr<BlockDevice> CreateOwnerDevice(uint32_t owner);

  /// Registers the scheduler ported onto `owner` (from
  /// IoScheduler::AttachSpindle).
  void BindOwner(uint32_t owner, IoScheduler* sched);

  SchedPolicy policy() const { return policy_; }
  uint32_t owners() const { return static_cast<uint32_t>(states_.size()); }
  uint64_t stride_bytes() const { return stride_; }
  BlockDevice* hub() { return hub_.get(); }
  const BlockDevice* hub() const { return hub_.get(); }

  /// Simulated time from `owner`'s perspective: its completion frontier
  /// (the hub clock before any traffic / after an epoch reset).
  double OwnerNow(uint32_t owner) const;

  // -- Submission protocol (called by ported IoSchedulers) -------------

  /// Queues a batch of sealed ops. Blocks (driving service) while the
  /// owner's queue is at the backpressure window.
  void Deliver(uint32_t owner, std::vector<IoScheduler::Op> ops);

  /// Queues a fence and blocks until the plane has popped it — i.e.
  /// every op this owner submitted before the fence has been serviced.
  /// A phase fence (`phase_end`) additionally blocks through the epoch
  /// reset, so on return every peer has reached its own phase boundary
  /// (or retired) and OwnerNow reads the re-based phase-end clock —
  /// deterministic regardless of which owner arrived last.
  void Fence(uint32_t owner, bool phase_end);

  /// Owner teardown: queues `leftovers` (if any), removes the owner
  /// from the active set, and — on the last retirement — services any
  /// remaining queued work solo in owner order.
  void Retire(uint32_t owner, std::vector<IoScheduler::Op> leftovers);

  /// Updates the owner's closed-loop width (callers fence first:
  /// IoScheduler::Engage/Disengage settle before calling this).
  void SetOwnerDepth(uint32_t owner, uint32_t depth);

  // -- Introspection (tests) -------------------------------------------

  /// Service rounds completed so far.
  uint64_t rounds() const;
  /// Order-sensitive fingerprint of (owner, completion) over every
  /// serviced op — equal fingerprints mean identical service
  /// interleaves and timelines.
  uint64_t service_hash() const;

 private:
  /// Queue entry: a delivered batch or a fence marker.
  struct Item {
    bool is_fence = false;
    bool is_phase = false;                // phase fences park the owner
    std::vector<IoScheduler::Op> ops;     // batch payload
  };

  struct OwnerState {
    std::deque<Item> queue;
    uint64_t fences_pushed = 0;
    uint64_t fences_popped = 0;
    bool bound = false;
    bool parked = false;
    bool retired = false;
    uint32_t depth = 1;
    /// Closed-loop state: slots allocated this epoch and the completion
    /// times of freed, not-yet-reused slots.
    uint32_t allocated = 0;
    std::priority_queue<double, std::vector<double>, std::greater<double>>
        slots;
    double base = 0.0;             ///< Arrival floor for this epoch.
    double last_completion = 0.0;  ///< The owner's completion frontier.
    IoScheduler* sched = nullptr;
    BlockDevice* view = nullptr;
  };

  /// One op extracted into a service round.
  struct RoundOp {
    uint32_t owner = 0;
    uint64_t key = 0;       // salted shuffle / tie-break key
    uint64_t seq = 0;       // position in the round's service order
    uint32_t device_reqs = 0;  // kIo/kFlush entries serviced
    double arrival = 0.0;   // assigned at extraction (closed loop)
    double start = 0.0;     // head reached the chain (filled at service)
    double completion = 0.0;
    IoScheduler::Op op;
  };

  bool active(const OwnerState& st) const {
    return st.bound && !st.parked && !st.retired;
  }

  /// First-traffic initialization: bases every owner's closed loop at
  /// the hub clock (repositories construct serially before traffic, so
  /// this instant is deterministic).
  void EnsureInitLocked();

  /// Tries one step of progress (phase pops → fence layer → round).
  /// Releases and reacquires `lk` around round service. Returns true
  /// when anything advanced.
  bool AdvanceLocked(std::unique_lock<std::mutex>& lk);

  /// Fires the epoch reset (unpark everyone, re-base the closed loops
  /// at the hub clock) once every live owner is parked.
  void MaybeEpochResetLocked();

  /// Pops phase fences at queue fronts, parking their owners; fires the
  /// epoch reset when every live owner is parked.
  bool TryPhasePopsLocked();

  /// Pops one regular fence from every active owner once all their
  /// fronts are fences, resetting each popped owner's closed loop.
  bool TryFenceLayerLocked();

  /// Extracts and services a round when every active owner has queued
  /// work and at least one front is a batch.
  bool TryRoundLocked(std::unique_lock<std::mutex>& lk);

  /// Blocks until `pred()` holds, driving AdvanceLocked while progress
  /// is possible.
  template <typename Pred>
  void WaitLocked(std::unique_lock<std::mutex>& lk, Pred pred) {
    while (!pred()) {
      if (!servicing_ && AdvanceLocked(lk)) continue;
      cv_.wait(lk);
    }
  }

  /// Services the round against the hub (caller holds the baton; the
  /// mutex may be held or released).
  void ServiceRound(std::vector<RoundOp>* round);

  /// Replays one op's chain contiguously on the hub clock with the
  /// synchronous charging arithmetic; fills start/completion.
  void ServiceChain(RoundOp* rop);

  /// Publishes a serviced round under the lock: slots, frontiers,
  /// latency records, queue waits, counters.
  void PublishRoundLocked(std::vector<RoundOp>* round);

  /// Pops the closed-loop arrival for the next op of `st`.
  double NextArrivalLocked(OwnerState* st);

  /// Services everything `st` still has queued, solo (retirement path;
  /// the owner's scheduler and view are still alive at that point).
  void DrainOwnerLocked(OwnerState* st);

  const SchedPolicy policy_;
  const uint64_t seed_;
  const uint64_t stride_;
  const uint64_t region_bytes_;
  std::unique_ptr<BlockDevice> hub_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool servicing_ = false;   // baton: a round is being replayed unlocked
  bool initialized_ = false;
  uint64_t round_counter_ = 0;
  uint64_t service_hash_ = 1469598103934665603ull;  // FNV offset basis
  std::vector<OwnerState> states_;
};

}  // namespace sim
}  // namespace lor

#endif  // LOREPO_SIM_SPINDLE_PLANE_H_
