#include "machine/comm_stats.hpp"

#include <bit>

#include "util/error.hpp"

namespace camb {

CommStats::CommStats(int nprocs) : nprocs_(nprocs) {
  CAMB_CHECK_MSG(nprocs >= 1, "machine needs at least one processor");
  slots_.resize(static_cast<std::size_t>(nprocs));
  // Id 0: the phase every rank starts in.  Interned, not listed — phases()
  // shows "default" only once some rank sets it by name.
  std::lock_guard<std::mutex> lock(phase_mutex_);
  intern_locked("default", /*list=*/false);
}

CommStats::~CommStats() = default;

CommStats::PhaseName& CommStats::entry(PhaseId id) const {
  // Chunk c starts at id kFirstChunk * (2^c - 1) and holds kFirstChunk << c.
  const int c = std::bit_width(id / kFirstChunk + 1) - 1;
  const PhaseId offset = id - kFirstChunk * ((PhaseId{1} << c) - 1);
  return chunks_[c][offset];
}

PhaseId CommStats::find_phase(std::string_view name) const {
  // Entries below the published size are immutable except for `listed`, and
  // the acquire pairs with intern_locked's release, so no lock is needed.
  const PhaseId n = names_.load(std::memory_order_acquire);
  for (PhaseId id = 0; id < n; ++id) {
    if (entry(id).name == name) return id;
  }
  return kNoPhase;
}

PhaseId CommStats::intern_locked(std::string_view name, bool list) {
  PhaseId id = find_phase(name);
  if (id == kNoPhase) {
    id = names_.load(std::memory_order_relaxed);
    const int c = std::bit_width(id / kFirstChunk + 1) - 1;
    CAMB_CHECK_MSG(c < kMaxChunks, "too many distinct phase names");
    if (!chunks_[c]) {
      chunks_[c] = std::make_unique<PhaseName[]>(kFirstChunk << c);
    }
    entry(id).name.assign(name);
    names_.store(id + 1, std::memory_order_release);
  }
  PhaseName& e = entry(id);
  if (list && !e.listed.load(std::memory_order_relaxed)) {
    phase_order_.push_back(id);
    e.listed.store(true, std::memory_order_release);
  }
  return id;
}

PhaseId CommStats::intern(std::string_view name) {
  const PhaseId id = find_phase(name);
  if (id != kNoPhase) return id;
  std::lock_guard<std::mutex> lock(phase_mutex_);
  return intern_locked(name, /*list=*/false);
}

const std::string& CommStats::phase_name(PhaseId id) const {
  CAMB_CHECK(id < names_.load(std::memory_order_acquire));
  return entry(id).name;
}

void CommStats::set_phase(int rank, std::string_view phase) {
  CAMB_CHECK(rank >= 0 && rank < nprocs_);
  PhaseId id = find_phase(phase);
  if (id == kNoPhase || !entry(id).listed.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> lock(phase_mutex_);
    id = intern_locked(phase, /*list=*/true);
  }
  slots_[rank].active = id;
}

void CommStats::set_phase_id(int rank, PhaseId id) {
  PhaseName& e = entry(id);
  if (!e.listed.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> lock(phase_mutex_);
    intern_locked(e.name, /*list=*/true);
  }
  slots_[rank].active = id;
}

const std::string& CommStats::phase(int rank) const {
  CAMB_CHECK(rank >= 0 && rank < nprocs_);
  return entry(slots_[rank].active).name;
}

void CommStats::grow(RankSlot& slot) {
  // One allocation covers the handful of phases a typical rank body uses.
  slot.by_phase.resize(std::max<std::size_t>(slot.active + 1, 8));
}

const PhaseCounters& CommStats::rank_total(int rank) const {
  CAMB_CHECK(rank >= 0 && rank < nprocs_);
  return slots_[rank].total;
}

PhaseCounters CommStats::rank_phase(int rank, std::string_view phase) const {
  return rank_phase(rank, find_phase(phase));
}

PhaseCounters CommStats::rank_phase(int rank, PhaseId id) const {
  CAMB_CHECK(rank >= 0 && rank < nprocs_);
  const auto& by_phase = slots_[rank].by_phase;
  return id < by_phase.size() ? by_phase[id] : PhaseCounters{};
}

double CommStats::critical_path_received_words() const {
  i64 worst = 0;
  for (const RankSlot& slot : slots_) {
    worst = std::max(worst, slot.total.bytes_received);
  }
  return static_cast<double>(worst) / 8.0;
}

double CommStats::critical_path_sent_words() const {
  i64 worst = 0;
  for (const RankSlot& slot : slots_) {
    worst = std::max(worst, slot.total.bytes_sent);
  }
  return static_cast<double>(worst) / 8.0;
}

double CommStats::critical_path_cost(const AlphaBeta& machine) const {
  double worst = 0.0;
  for (const RankSlot& slot : slots_) {
    worst = std::max(worst, machine.cost(slot.total));
  }
  return worst;
}

double CommStats::total_words_sent() const {
  i64 total = 0;
  for (const RankSlot& slot : slots_) total += slot.total.bytes_sent;
  return static_cast<double>(total) / 8.0;
}

double CommStats::phase_critical_path_received_words(
    std::string_view phase) const {
  const PhaseId id = find_phase(phase);
  i64 worst = 0;
  for (const RankSlot& slot : slots_) {
    if (id < slot.by_phase.size()) {
      worst = std::max(worst, slot.by_phase[id].bytes_received);
    }
  }
  return static_cast<double>(worst) / 8.0;
}

std::vector<std::string> CommStats::phases() const {
  std::lock_guard<std::mutex> lock(phase_mutex_);
  std::vector<std::string> out;
  out.reserve(phase_order_.size());
  for (PhaseId id : phase_order_) out.push_back(entry(id).name);
  return out;
}

TransportCounters& CommStats::transport_mut(int rank) {
  CAMB_CHECK(rank >= 0 && rank < nprocs_);
  return slots_[rank].transport;
}

const TransportCounters& CommStats::transport(int rank) const {
  CAMB_CHECK(rank >= 0 && rank < nprocs_);
  return slots_[rank].transport;
}

TransportCounters CommStats::transport_total() const {
  TransportCounters total;
  for (const RankSlot& slot : slots_) total += slot.transport;
  return total;
}

void CommStats::reset() {
  for (auto& slot : slots_) {
    std::fill(slot.by_phase.begin(), slot.by_phase.end(), PhaseCounters{});
    slot.total = PhaseCounters{};
    slot.transport = TransportCounters{};
  }
}

}  // namespace camb
