#include "analysis/mpi_analysis.hpp"

#include "common/error.hpp"

namespace perfknow::analysis {

using runtime::MpiEvent;

runtime::MpiWorld::Hook CommRecorder::hook() {
  wait_matrix_.assign(per_rank_.size() * per_rank_.size(), 0);
  return [this](const MpiEvent& ev) {
    if (ev.rank >= per_rank_.size()) {
      throw InvalidArgumentError("CommRecorder: event rank out of range");
    }
    RankStats& s = per_rank_[ev.rank];
    const std::uint64_t dt = ev.end_cycles - ev.start_cycles;
    switch (ev.kind) {
      case MpiEvent::Kind::kIsend:
        s.post_cycles += dt;
        s.bytes_sent += ev.bytes;
        ++s.messages_sent;
        break;
      case MpiEvent::Kind::kIrecv:
        s.post_cycles += dt;
        break;
      case MpiEvent::Kind::kWait:
        s.wait_cycles += dt;
        if (ev.bytes > 0 && ev.peer < per_rank_.size() &&
            ev.peer != ev.rank) {
          s.bytes_received += ev.bytes;
          ++s.messages_received;
          wait_matrix_[ev.rank * per_rank_.size() + ev.peer] += dt;
        }
        break;
      case MpiEvent::Kind::kBarrier:
      case MpiEvent::Kind::kAllreduce:
        s.collective_cycles += dt;
        break;
      case MpiEvent::Kind::kCopy:
        s.copy_cycles += dt;
        break;
    }
  };
}

const CommRecorder::RankStats& CommRecorder::rank(unsigned r) const {
  if (r >= per_rank_.size()) {
    throw InvalidArgumentError("CommRecorder: rank out of range");
  }
  return per_rank_[r];
}

std::uint64_t CommRecorder::wait_from(unsigned dst, unsigned src) const {
  if (dst >= per_rank_.size() || src >= per_rank_.size()) {
    throw InvalidArgumentError("CommRecorder: rank out of range");
  }
  if (wait_matrix_.empty()) return 0;
  return wait_matrix_[dst * per_rank_.size() + src];
}

std::uint64_t CommRecorder::total_cycles() const noexcept {
  std::uint64_t total = 0;
  for (const auto& s : per_rank_) total += s.total_comm_cycles();
  return total;
}

void CommRecorder::clear() {
  for (auto& s : per_rank_) s = RankStats{};
  wait_matrix_.assign(wait_matrix_.size(), 0);
}

std::size_t assert_communication_facts(rules::RuleHarness& harness,
                                       const CommRecorder& recorder,
                                       std::uint64_t elapsed_cycles) {
  if (elapsed_cycles == 0) {
    throw InvalidArgumentError(
        "assert_communication_facts: elapsed_cycles must be positive");
  }
  const rules::ProvenanceSource source(harness,
                                       "assert_communication_facts()");
  const auto elapsed = static_cast<double>(elapsed_cycles);
  const auto communication = harness.schema(
      "CommunicationFact",
      {"rank", "commFraction", "waitFraction", "copyFraction",
       "collectiveFraction", "bytesSent", "bytesReceived", "messagesSent"});
  std::size_t n = 0;
  for (unsigned r = 0; r < recorder.ranks(); ++r) {
    const auto& s = recorder.rank(r);
    harness.emit(communication)
        .num("rank", static_cast<double>(r))
        .num("commFraction",
             static_cast<double>(s.total_comm_cycles()) / elapsed)
        .num("waitFraction", static_cast<double>(s.wait_cycles) / elapsed)
        .num("copyFraction", static_cast<double>(s.copy_cycles) / elapsed)
        .num("collectiveFraction",
             static_cast<double>(s.collective_cycles) / elapsed)
        .num("bytesSent", static_cast<double>(s.bytes_sent))
        .num("bytesReceived", static_cast<double>(s.bytes_received))
        .num("messagesSent", static_cast<double>(s.messages_sent))
        .commit();
    ++n;
  }
  return n;
}

std::size_t assert_late_sender_facts(rules::RuleHarness& harness,
                                     const CommRecorder& recorder,
                                     std::uint64_t elapsed_cycles,
                                     double min_fraction) {
  if (elapsed_cycles == 0) {
    throw InvalidArgumentError(
        "assert_late_sender_facts: elapsed_cycles must be positive");
  }
  const rules::ProvenanceSource source(harness, "assert_late_sender_facts()");
  const auto elapsed = static_cast<double>(elapsed_cycles);
  const auto late_sender = harness.schema(
      "LateSenderFact", {"receiver", "sender", "waitFraction"});
  std::size_t n = 0;
  for (unsigned dst = 0; dst < recorder.ranks(); ++dst) {
    for (unsigned src = 0; src < recorder.ranks(); ++src) {
      if (src == dst) continue;
      const double frac =
          static_cast<double>(recorder.wait_from(dst, src)) / elapsed;
      if (frac < min_fraction) continue;
      harness.emit(late_sender)
          .num("receiver", static_cast<double>(dst))
          .num("sender", static_cast<double>(src))
          .num("waitFraction", frac)
          .commit();
      ++n;
    }
  }
  return n;
}

}  // namespace perfknow::analysis
