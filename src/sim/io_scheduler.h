// IoScheduler: the queued-service front end for one BlockDevice.
//
// Model. Repository operations are bracketed by OpScope markers. In
// synchronous mode (the default; never engaged, or engaged at nothing)
// the scope just stamps the device clock at the boundaries and records
// the op's latency while the device applies every charge at once. When
// the scheduler is *engaged* at queue depth N, the device's one charge
// branch (BlockDevice::Charge) hands each Request made inside an op
// scope to `Enqueue` instead, and the scheduler replays the op chains
// against the device on a separate event timeline:
//
//   * Closed loop: N logical clients. An op's arrival time is the
//     completion time of the slot it reuses (the earliest-freeing
//     slot), so at most N ops are in flight, exactly an application
//     keeping N requests outstanding with zero think time.
//   * Chains: requests within one op service in submission order (the
//     op's own program order — a safe write must write before it
//     fsyncs). CPU charges and stream-penalty windows attach to the
//     chain and extend the op without occupying the device.
//   * Device: one request at a time. Among the ready chain fronts the
//     scheduler picks FIFO (submission order) or SPTF (NCQ-style
//     shortest positioning time from the current head, ties broken by
//     submission order). Positioning is charged in *actual service
//     order* — an interleaved service order pays the seeks the
//     interleaving causes, which is how queueing delay and head
//     interference become visible in simulated time.
//
// Data plane note: payload bytes move at submission time, in host
// program order, so reads always observe the host-order store contents;
// only the *timing* is deferred. Scratch buffers reused across
// in-flight ops therefore behave as they do synchronously.
//
// Determinism: everything is integer/double arithmetic over the same
// submission sequence — no host time, no randomness — so a given
// (workload, queue depth, policy) triple always produces the same
// service order, clock, and histograms.
//
// Threading: an IoScheduler is confined to its device's thread, like
// the device itself. Cross-shard latency aggregation merges
// LatencyRecorder snapshots after the phase barrier.
//
// Port mode (shared spindles): `AttachSpindle` re-homes the scheduler
// onto a device-owned sim::SpindlePlane as owner `owner`. Ops are then
// ALWAYS queued (even at depth 1): sealed ops are held in batches of
// `queue_depth` ops and handed to the plane in one call once at least
// kHandoffOps are held, and the plane services interleaved rounds — one
// batch per owner — against the shared head with a deterministic
// (seed, round) interleave. The hand-over size only moves *when* a
// round forms, never what it holds. The thread-confinement contract
// relaxes to: submission stays on the owner's thread; servicing
// happens under the plane's baton on whichever owner thread drives it.
// `Settle`/`SettlePhase` are the port-mode drain: hand over every held
// op (the last batch may be partial), fence, and wait until the plane
// has serviced everything this owner submitted. The plane replays each
// chain through BlockDevice::Apply — the synchronous path's own
// charging function — so a single owner at depth 1 is bit-identical to
// a dedicated spindle by construction.

#ifndef LOREPO_SIM_IO_SCHEDULER_H_
#define LOREPO_SIM_IO_SCHEDULER_H_

#include <cstdint>
#include <list>
#include <queue>
#include <vector>

#include "sim/latency_recorder.h"
#include "util/status.h"

namespace lor {
namespace sim {

class BlockDevice;
class SpindlePlane;

/// Per-device submission queue and service-order scheduler.
class IoScheduler {
 public:
  /// `recorder` may be null (no latency accounting). The scheduler
  /// keeps raw pointers; both must outlive it.
  IoScheduler(BlockDevice* device, LatencyRecorder* recorder);
  ~IoScheduler();

  IoScheduler(const IoScheduler&) = delete;
  IoScheduler& operator=(const IoScheduler&) = delete;

  /// Engages asynchronous mode at `queue_depth` ops in flight.
  /// Drains any previous state first; fails inside an op scope.
  Status Engage(uint32_t queue_depth, SchedPolicy policy = SchedPolicy::kSptf);

  /// Drains and returns to the synchronous path. In port mode the
  /// scheduler never truly runs synchronously — depth 1 just means one
  /// op per delivered batch — but the sync/async figure semantics are
  /// preserved because a single-owner plane replays chains with the
  /// synchronous arithmetic.
  Status Disengage();

  // -- Port mode (shared spindles) -------------------------------------

  /// Re-homes this scheduler onto `plane` as `owner`. The device must
  /// be an owner view of the plane's hub. Callable once, outside any op
  /// scope, before any async engagement. The plane must outlive the
  /// scheduler.
  void AttachSpindle(SpindlePlane* plane, uint32_t owner);

  bool port_mode() const { return plane_ != nullptr; }

  /// Current simulated time from this owner's perspective: the device
  /// clock in dedicated mode, the owner's closed-loop completion
  /// frontier in port mode.
  double Now() const;

  /// Port mode: delivers the partial batch and fences — returns once
  /// the plane has serviced everything this owner submitted. A no-op
  /// in dedicated mode. Callable only between ops.
  void Settle();

  /// Like Settle but marks a phase boundary: the owner parks at the
  /// fence, and when every live owner has parked the plane resets its
  /// closed-loop epoch so the next phase starts aligned. Workload
  /// runners call this via ObjectRepository::SettleIo before reading
  /// phase-end clocks.
  void SettlePhase();

  /// Services every queued request and advances the device clock to the
  /// completion horizon. Callable only between ops.
  void Drain();

  /// Discards every queued request without servicing or charging it and
  /// returns to the synchronous path — the power just died. Tagged
  /// writes are never reported serviced (the FaultInjector classifies
  /// them as lost). Callable
  /// only between ops; the crash harness invokes it after
  /// FaultInjector::MaterializeCrash and before mount-time recovery.
  void Abandon();

  bool engaged() const { return engaged_; }
  uint32_t queue_depth() const { return queue_depth_; }
  SchedPolicy policy() const { return policy_; }
  LatencyRecorder* recorder() { return recorder_; }

  // -- Op lifecycle (driven by OpScope) --------------------------------

  /// Opens an op. In async mode this is the closed-loop admission
  /// point: when all slots are busy, queued work is serviced until one
  /// frees, and the op arrives at that completion time. Nested calls
  /// attach to the outermost op.
  void BeginOp(OpClass cls);

  /// Closes the current op (records sync latency / seals the chain).
  void EndOp();

  /// True when the device should queue charges instead of applying
  /// them: engaged (or ported) and inside an op scope.
  bool ShouldQueue() const {
    return (engaged_ || plane_ != nullptr) && op_depth_ > 0;
  }

  // -- Introspection (tests) -------------------------------------------

  uint64_t completed_ops() const { return completed_ops_; }
  uint64_t serviced_requests() const { return serviced_requests_; }
  /// Ops admitted and not yet completed. In port mode: the ops this
  /// owner still holds — the open op, the partial batch and the full
  /// batches not yet handed to the plane.
  uint32_t inflight_ops() const;

  // -- Wire types (shared with BlockDevice and SpindlePlane) ----------

  /// One device charge: an I/O run, a flush barrier, CPU seconds or a
  /// stream-window marker. The device builds it; this scheduler queues
  /// it, and the device (or the plane) applies it.
  struct Request {
    enum class Kind : uint8_t { kIo, kFlush, kCpu, kWinBegin, kWinEnd };
    Kind kind = Kind::kIo;
    bool write = false;
    uint64_t offset = 0;
    uint64_t len = 0;
    double cpu_s = 0.0;   // kCpu
    double cap = 0.0;     // kWinEnd: bandwidth cap (bytes/s)
    uint64_t seq = 0;     // global submission order (FIFO + tie-break)
    uint64_t tag = 0;     // fault-injector tag (0 = untracked)
  };

  /// An op's request storage; port mode recycles it through the plane.
  using Chain = std::vector<Request>;

  /// One in-flight operation and its request chain.
  struct Op {
    OpClass cls = OpClass::kControl;
    double arrival = 0.0;      // slot reuse time (closed loop)
    double ready = 0.0;        // completion time of the serviced prefix
    double busy = 0.0;         // serviced seconds (device + cpu + penalties)
    double window_base = 0.0;  // `busy` at the open stream window's start
    /// Requests in submission order; `chain[head]` is the first
    /// unserviced one. A flat vector read through a cursor, not a
    /// deque: an op is built on its owner's thread and moved into
    /// batches and rounds, and a libstdc++ deque allocates a map and a
    /// node on every construction and every move, while an empty vector
    /// allocates nothing. On the port path the owner consumes nothing,
    /// so the plane reads the chain from head 0, then hands its storage
    /// back to the owner for a later op.
    Chain chain;
    size_t head = 0;

    bool done() const { return head == chain.size(); }
  };

  /// Port mode: sealed ops an owner accumulates, in whole batches,
  /// before it hands them to the plane in one call. Taking the plane's
  /// lock once per 16 ops rather than once per op is what keeps a
  /// depth-1 bulk load from paying a lock hand-off (and a wake-up of
  /// blocked peers) per op.
  static constexpr size_t kHandoffOps = 16;

  // -- Charge intake from the device (async mode only) -----------------

  /// Appends `r` to the open op's chain, stamping its submission order.
  /// A nonzero `r.tag` is reported back to the device when serviced.
  void Enqueue(Request r);

 private:
  friend class SpindlePlane;  // Publishes completion counters at service.

  /// Port mode: hands every held op to the plane, in batches of
  /// queue_depth_ ops, and takes back spent chain storage.
  void HandOver();

  /// Consumes any non-device entries at the chain front (CPU, window
  /// markers): they extend the op without occupying the device.
  void SettleFront(Op* op);

  /// Completion bookkeeping: latency record, horizon, freed slot.
  void CompleteOp(const Op& op);

  /// Services exactly one device request (the scheduling decision);
  /// false when nothing is pending.
  bool ServiceOne();

  /// Seals the op being built and moves it to the pending list (or
  /// completes it outright when its chain is already empty).
  void SealCurrentOp();

  BlockDevice* device_;
  LatencyRecorder* recorder_;

  bool engaged_ = false;
  uint32_t queue_depth_ = 1;
  SchedPolicy policy_ = SchedPolicy::kSptf;

  // Op-scope state (both modes).
  int op_depth_ = 0;
  OpClass sync_class_ = OpClass::kControl;
  double sync_t0_ = 0.0;

  // Async state.
  bool building_open_ = false;
  Op building_;                 // op currently accepting requests
  std::list<Op> pending_;       // sealed ops with unserviced chains
  double device_free_ = 0.0;    // absolute time the device frees up
  double horizon_ = 0.0;        // latest completion seen
  uint32_t allocated_slots_ = 0;
  /// Completion times of freed, not-yet-reused slots (earliest first).
  std::priority_queue<double, std::vector<double>, std::greater<double>>
      free_slots_;
  uint64_t next_seq_ = 0;
  uint64_t completed_ops_ = 0;
  uint64_t serviced_requests_ = 0;

  // Port-mode state.
  SpindlePlane* plane_ = nullptr;
  uint32_t port_owner_ = 0;
  /// Sealed ops not yet handed to the plane: whole batches of
  /// queue_depth_ ops, then the partial one being filled.
  std::vector<Op> held_;
  /// Storage of serviced chains, reused by the next ops this owner
  /// builds (cleared, capacity kept).
  std::vector<Chain> spare_chains_;
};

/// RAII op-boundary marker for repository operations. Constructing with
/// a null scheduler is a no-op, so wrapper back ends without a pipeline
/// need no special casing.
class OpScope {
 public:
  OpScope(IoScheduler* scheduler, OpClass cls) : scheduler_(scheduler) {
    if (scheduler_ != nullptr) scheduler_->BeginOp(cls);
  }
  ~OpScope() {
    if (scheduler_ != nullptr) scheduler_->EndOp();
  }

  OpScope(const OpScope&) = delete;
  OpScope& operator=(const OpScope&) = delete;

 private:
  IoScheduler* scheduler_;
};

}  // namespace sim
}  // namespace lor

#endif  // LOREPO_SIM_IO_SCHEDULER_H_
