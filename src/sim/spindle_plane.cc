#include "sim/spindle_plane.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <limits>
#include <utility>

namespace lor {
namespace sim {
namespace {

constexpr uint64_t kGolden = 0x9E3779B97F4A7C15ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;
/// Batches an owner may have queued before Deliver blocks (and drives
/// service itself). Bounds memory and keeps owners loosely in step.
constexpr size_t kBackpressureWindow = 64;
/// Queue length a blocked Deliver waits down to before it resumes.
/// Resuming at half the window rather than one below it lets a blocked
/// owner sleep once per 32 serviced batches instead of once per batch.
constexpr size_t kBackpressureResume = kBackpressureWindow / 2;
/// Spent chains kept per owner for its next Deliver to take back; a
/// few hand-overs' worth covers an owner's steady state, and the cap
/// keeps a burst of service from parking storage for a whole window.
constexpr size_t kSpentChainsKept = 4 * IoScheduler::kHandoffOps;

uint64_t SplitMix64(uint64_t x) {
  x += kGolden;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

}  // namespace

SpindlePlane::SpindlePlane(const Params& params)
    : policy_(params.policy),
      seed_(params.seed),
      stride_((params.region_bytes + BlockDevice::kSlabBytes - 1) /
              BlockDevice::kSlabBytes * BlockDevice::kSlabBytes),
      region_bytes_(params.region_bytes) {
  assert(params.owners >= 1);
  assert(params.region_bytes > 0);
  hub_ = std::make_unique<BlockDevice>(
      params.disk.WithCapacity(stride_ * params.owners), params.data_mode);
  hub_->PreallocateArenaGroups();
  states_.resize(params.owners);
}

SpindlePlane::~SpindlePlane() = default;

std::unique_ptr<BlockDevice> SpindlePlane::CreateOwnerDevice(uint32_t owner) {
  std::lock_guard<std::mutex> lk(mu_);
  assert(owner < states_.size());
  assert(states_[owner].view == nullptr && "owner view already created");
  auto view = hub_->CreateOwnerView(static_cast<int32_t>(owner),
                                    static_cast<uint64_t>(owner) * stride_,
                                    region_bytes_);
  states_[owner].view = view.get();
  return view;
}

void SpindlePlane::BindOwner(uint32_t owner, IoScheduler* sched) {
  std::lock_guard<std::mutex> lk(mu_);
  OwnerState& st = states_[owner];
  assert(st.view != nullptr && "bind before CreateOwnerDevice");
  assert(!st.bound && "owner already bound");
  st.bound = true;
  st.sched = sched;
  cv_.notify_all();
}

void SpindlePlane::EnsureInitLocked() {
  if (initialized_) return;
  initialized_ = true;
  // Repositories construct serially (synchronous charges on the hub
  // clock) before any plane traffic, so this instant is deterministic.
  const double t0 = hub_->clock().now();
  for (OwnerState& st : states_) {
    st.base = t0;
    st.frontier = t0;
    st.last_completion = t0;
  }
}

double SpindlePlane::OwnerNow(uint32_t owner) const {
  std::lock_guard<std::mutex> lk(mu_);
  // Pre-traffic there can be no concurrent clock writer: servicing only
  // ever starts from queued work, which initializes first.
  if (!initialized_) return hub_->clock().now();
  return states_[owner].last_completion;
}

uint64_t SpindlePlane::rounds() const {
  std::lock_guard<std::mutex> lk(mu_);
  return round_counter_;
}

uint64_t SpindlePlane::service_hash() const {
  std::lock_guard<std::mutex> lk(mu_);
  return service_hash_;
}

void SpindlePlane::Deliver(uint32_t owner, std::vector<IoScheduler::Op>* ops,
                           uint32_t batch_ops,
                           std::vector<IoScheduler::Chain>* spare_chains) {
  std::unique_lock<std::mutex> lk(mu_);
  EnsureInitLocked();
  OwnerState& st = states_[owner];
  const size_t n = ops->size();
  for (size_t first = 0; first < n; first += batch_ops) {
    if (st.queue.size() >= kBackpressureWindow) {
      WaitLocked(lk, [&] { return st.queue.size() <= kBackpressureResume; });
    }
    QueueBatchLocked(&st, ops, first, std::min<size_t>(n, first + batch_ops));
  }
  ops->clear();
  for (IoScheduler::Chain& chain : st.spent_chains) {
    spare_chains->push_back(std::move(chain));
  }
  st.spent_chains.clear();
  NotifyLocked();
}

void SpindlePlane::QueueBatchLocked(OwnerState* st,
                                    std::vector<IoScheduler::Op>* ops,
                                    size_t first, size_t end) {
  Item item;
  item.ops = static_cast<uint32_t>(end - first);
  st->queue.push_back(item);
  for (size_t i = first; i < end; ++i) st->ops.push_back(std::move((*ops)[i]));
}

void SpindlePlane::Fence(uint32_t owner, bool phase_end) {
  std::unique_lock<std::mutex> lk(mu_);
  EnsureInitLocked();
  OwnerState& st = states_[owner];
  Item f;
  f.is_fence = true;
  f.is_phase = phase_end;
  st.queue.push_back(f);
  const uint64_t my_seq = ++st.fences_pushed;
  NotifyLocked();
  if (!phase_end) {
    WaitLocked(lk, [&] { return st.fences_popped >= my_seq; });
    return;
  }
  // A phase fence waits past its own pop (which parks the owner) for
  // the epoch reset that unparks it — only the reset unparks, so
  // popped-and-unparked means every peer reached its phase boundary
  // (or retired) and the loops were re-based. Returning earlier would
  // let the owner read a phase-end clock that nondeterministically
  // predates or postdates its peers' tails.
  WaitLocked(lk, [&] { return st.fences_popped >= my_seq && !st.parked; });
}

void SpindlePlane::Retire(uint32_t owner,
                          std::vector<IoScheduler::Op>* leftovers,
                          uint32_t batch_ops) {
  std::unique_lock<std::mutex> lk(mu_);
  OwnerState& st = states_[owner];
  if (!st.bound || st.retired) return;
  while (servicing_) cv_.wait(lk);
  const size_t n = leftovers->size();
  if (n > 0) EnsureInitLocked();
  for (size_t first = 0; first < n; first += batch_ops) {
    QueueBatchLocked(&st, leftovers, first,
                     std::min<size_t>(n, first + batch_ops));
  }
  leftovers->clear();
  st.retired = true;
  st.parked = false;
  // Stragglers are serviced solo, now, while this owner's scheduler and
  // view are still alive (we are inside the scheduler's destructor;
  // other owners may already be gone). Normal flows settle before
  // destruction, so the queue is almost always empty here.
  DrainOwnerLocked(&st);
  st.spent_chains = {};
  MaybeEpochResetLocked();
  cv_.notify_all();
}

void SpindlePlane::SetOwnerDepth(uint32_t owner, uint32_t depth) {
  std::lock_guard<std::mutex> lk(mu_);
  states_[owner].depth = depth == 0 ? 1 : depth;
}

bool SpindlePlane::DrainLocked(std::unique_lock<std::mutex>& lk) {
  assert(!servicing_);
  servicing_ = true;
  bool progress = false;
  while (TryPhasePopsLocked() || TryFenceLayerLocked() || TryRoundsLocked(lk)) {
    progress = true;
  }
  servicing_ = false;
  if (progress) cv_.notify_all();
  return progress;
}

void SpindlePlane::NotifyLocked() {
  // A baton holder re-examines every queue before it lets go and wakes
  // the waiters once when it does, so waking them now would only make
  // them sleep again.
  if (!servicing_) cv_.notify_all();
}

void SpindlePlane::MaybeEpochResetLocked() {
  bool any = false;
  for (const OwnerState& st : states_) {
    if (!st.bound || st.retired) continue;
    any = true;
    if (!st.parked) return;
  }
  if (!any) return;
  // Every live owner is parked at its phase boundary: re-base the
  // closed loops at the hub clock so the next phase starts aligned.
  const double t = hub_->clock().now();
  for (OwnerState& st : states_) {
    if (st.retired) continue;
    st.parked = false;
    st.allocated = 0;
    st.slots = {};
    st.base = t;
    st.frontier = t;
    st.last_completion = t;
  }
}

bool SpindlePlane::TryPhasePopsLocked() {
  bool progress = false;
  bool again = true;
  while (again) {
    again = false;
    for (OwnerState& st : states_) {
      if (st.retired || st.queue.empty()) continue;
      const Item& front = st.queue.front();
      if (!front.is_fence || !front.is_phase) continue;
      st.queue.pop_front();
      ++st.fences_popped;
      st.parked = true;
      progress = again = true;
    }
  }
  if (progress) MaybeEpochResetLocked();
  return progress;
}

bool SpindlePlane::TryFenceLayerLocked() {
  bool any = false;
  for (const OwnerState& st : states_) {
    if (!active(st)) continue;
    if (st.queue.empty()) return false;
    const Item& front = st.queue.front();
    if (!front.is_fence || front.is_phase) return false;
    any = true;
  }
  if (!any) return false;
  // Lockstep layer: one regular fence from every active owner; each
  // resets its closed loop (the Drain/Engage semantics — everything
  // settled, the next op arrives at the current time).
  const double t = hub_->clock().now();
  for (OwnerState& st : states_) {
    if (!active(st)) continue;
    st.queue.pop_front();
    ++st.fences_popped;
    st.allocated = 0;
    st.slots = {};
    st.base = t;
  }
  return true;
}

double SpindlePlane::NextArrival(OwnerState* st) {
  if (st->allocated < st->depth) {
    ++st->allocated;
    return st->base;
  }
  double arrival = st->base;
  if (!st->slots.empty()) {
    arrival = std::max(arrival, st->slots.top());
    st->slots.pop();
  }
  return arrival;
}

bool SpindlePlane::TryRoundsLocked(std::unique_lock<std::mutex>& lk) {
  bool any_active = false;
  bool any_batch = false;
  bool all_batch = true;
  for (const OwnerState& st : states_) {
    if (!active(st)) continue;
    any_active = true;
    if (st.queue.empty()) return false;  // rounds gate on every owner
    if (st.queue.front().is_fence) {
      all_batch = false;
    } else {
      any_batch = true;
    }
  }
  if (!any_active || !any_batch) return false;

  // While every active owner's front is a batch, the next rounds are
  // already fixed: round j takes each active owner's j-th leading
  // batch, and nothing can pop a fence or change the active set before
  // the shortest run of leading batches ends. Take them all at once.
  size_t rounds = 1;
  if (all_batch) {
    rounds = std::numeric_limits<size_t>::max();
    for (const OwnerState& st : states_) {
      if (!active(st)) continue;
      size_t lead = 0;
      while (lead < rounds && lead < st.queue.size() &&
             !st.queue[lead].is_fence) {
        ++lead;
      }
      rounds = lead;
    }
  }
  round_.clear();
  round_ends_.clear();
  for (size_t j = 0; j < rounds; ++j) {
    for (uint32_t o = 0; o < states_.size(); ++o) {
      const OwnerState& st = states_[o];
      if (active(st) && !st.queue.front().is_fence) TakeBatchLocked(o);
    }
    round_ends_.push_back(round_.size());
  }

  // Replay against the hub with the lock released: other owners keep
  // doing host-side work (and queueing) while the spindle turns. The
  // caller's baton keeps state advances serialized.
  lk.unlock();
  size_t begin = 0;
  for (size_t end : round_ends_) {
    ++rounds_serviced_;
    const uint64_t salt = SplitMix64(seed_ ^ rounds_serviced_);
    for (size_t i = begin; i < end; ++i) {
      RoundOp& rop = round_[i];
      rop.key = SplitMix64(salt ^ (static_cast<uint64_t>(rop.owner) * kGolden) ^
                           static_cast<uint64_t>(i - begin));
      rop.arrival = NextArrival(&states_[rop.owner]);
    }
    ServiceRound(begin, end);
    PublishRound();
    begin = end;
  }
  lk.lock();
  CommitLocked();
  return true;
}

void SpindlePlane::TakeBatchLocked(uint32_t owner) {
  OwnerState& st = states_[owner];
  const uint32_t n = st.queue.front().ops;
  st.queue.pop_front();
  for (uint32_t i = 0; i < n; ++i) {
    RoundOp& rop = round_.emplace_back();
    rop.owner = owner;
    rop.op = std::move(st.ops.front());
    st.ops.pop_front();
  }
}

void SpindlePlane::ServiceRound(size_t begin, size_t end) {
  // Each owner's ops sit contiguously in the round, in program order;
  // next_[o] is its earliest unserviced one and stop_[o] one past its
  // last. Only an owner's earliest op is ever a candidate, so no owner's
  // ops reorder against each other under either policy.
  next_.assign(states_.size(), 0);
  stop_.assign(states_.size(), 0);
  for (size_t i = end; i-- > begin;) {
    next_[round_[i].owner] = i;
    if (stop_[round_[i].owner] == 0) stop_[round_[i].owner] = i + 1;
  }
  served_.clear();
  auto serve = [&](uint32_t owner) {
    const size_t i = next_[owner]++;
    served_.push_back(i);
    ServiceChain(&round_[i]);
  };
  if (policy_ == SchedPolicy::kFifo) {
    // Salted slot shuffle: permute positions by key, then refill each
    // owner's positions with its ops in program order. A single owner
    // holds every position, so its ops service in submission order
    // regardless of the salt.
    order_.resize(end - begin);
    for (size_t i = begin; i < end; ++i) order_[i - begin] = i;
    std::stable_sort(order_.begin(), order_.end(), [&](size_t a, size_t b) {
      return round_[a].key < round_[b].key;
    });
    for (size_t pos : order_) serve(round_[pos].owner);
    return;
  }
  // SPTF: among the owners' earliest unserviced ops, pick the one whose
  // first device request has the cheapest positioning from the current
  // head; the salted key breaks ties.
  const uint32_t owners = static_cast<uint32_t>(states_.size());
  for (size_t served = begin; served < end; ++served) {
    uint32_t pick = owners;
    double pick_cost = std::numeric_limits<double>::infinity();
    uint64_t pick_key = std::numeric_limits<uint64_t>::max();
    for (uint32_t o = 0; o < owners; ++o) {
      if (next_[o] == stop_[o]) continue;
      const RoundOp& rop = round_[next_[o]];
      const IoScheduler::Op& op = rop.op;
      double cost = 0.0;
      for (size_t k = op.head; k < op.chain.size(); ++k) {
        const IoScheduler::Request& r = op.chain[k];
        if (r.kind == IoScheduler::Request::Kind::kIo) {
          cost = states_[o].view->PeekPositioningCost(r.offset);
          break;
        }
        if (r.kind == IoScheduler::Request::Kind::kFlush) break;
      }
      if (cost < pick_cost || (cost == pick_cost && rop.key < pick_key)) {
        pick = o;
        pick_cost = cost;
        pick_key = rop.key;
      }
    }
    assert(pick < owners);
    serve(pick);
  }
}

void SpindlePlane::ServiceChain(RoundOp* rop) {
  BlockDevice* view = states_[rop->owner].view;
  SimClock& clk = hub_->clock();
  rop->start = clk.now();
  // The synchronous path's own Apply, chain-contiguous: a single owner
  // at depth 1 is therefore bit-identical to the dedicated path.
  double win_t0 = 0.0;
  IoScheduler::Op& op = rop->op;
  for (; !op.done(); ++op.head) {
    const IoScheduler::Request& r = op.chain[op.head];
    view->Apply(r, &win_t0);
    using Kind = IoScheduler::Request::Kind;
    if (r.kind == Kind::kIo || r.kind == Kind::kFlush) ++rop->device_reqs;
  }
  rop->completion = clk.now();
}

void SpindlePlane::PublishRound() {
  // In service order, so the fingerprint (and float accumulation)
  // reflect the actual interleave.
  for (size_t i : served_) {
    RoundOp& rop = round_[i];
    OwnerState& st = states_[rop.owner];
    st.slots.push(rop.completion);
    st.frontier = std::max(st.frontier, rop.completion);
    st.view->stats_.queue_wait_s += rop.start - rop.arrival;
    if (st.sched != nullptr) {
      ++st.sched->completed_ops_;
      st.sched->serviced_requests_ += rop.device_reqs;
      LatencyRecorder* rec = st.sched->recorder();
      if (rec != nullptr && rop.op.cls != OpClass::kControl) {
        rec->Record(rop.op.cls, rop.completion - rop.arrival);
      }
    }
    hash_ = (hash_ ^ rop.owner) * kFnvPrime;
    uint64_t bits = 0;
    std::memcpy(&bits, &rop.completion, sizeof(bits));
    hash_ = (hash_ ^ bits) * kFnvPrime;
    // The chain's storage goes back to its owner for the next op it
    // builds, so chains are mostly allocated and freed on the owner's
    // thread rather than freed on whichever thread serviced them.
    if (st.spent.size() < kSpentChainsKept) {
      st.spent.push_back(std::move(rop.op.chain));
    }
  }
}

void SpindlePlane::CommitLocked() {
  round_counter_ = rounds_serviced_;
  service_hash_ = hash_;
  for (OwnerState& st : states_) {
    st.last_completion = st.frontier;
    for (IoScheduler::Chain& chain : st.spent) {
      if (st.spent_chains.size() == kSpentChainsKept) break;
      st.spent_chains.push_back(std::move(chain));
    }
    st.spent.clear();
  }
}

void SpindlePlane::DrainOwnerLocked(OwnerState* st) {
  assert(!servicing_);
  const uint32_t owner = static_cast<uint32_t>(st - states_.data());
  while (!st->queue.empty()) {
    if (st->queue.front().is_fence) {
      st->queue.pop_front();
      ++st->fences_popped;
      continue;
    }
    round_.clear();
    TakeBatchLocked(owner);
    for (RoundOp& rop : round_) rop.arrival = NextArrival(st);
    // Single-owner rounds service in program order under both policies;
    // holding the lock is fine — nothing else can be servicing.
    ServiceRound(0, round_.size());
    PublishRound();
  }
  CommitLocked();
}

}  // namespace sim
}  // namespace lor
