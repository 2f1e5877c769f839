#include "power/dvs.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace perfknow::power {

std::vector<DvsOperatingPoint> dvs_sweep(
    const hwcounters::CounterVector& per_cpu, double measured_seconds,
    double measured_watts, const std::vector<double>& frequencies_ghz,
    const DvsModel& model) {
  if (measured_seconds <= 0.0 || measured_watts <= 0.0) {
    throw InvalidArgumentError(
        "dvs_sweep: measured run must have positive time and power");
  }
  if (frequencies_ghz.empty()) {
    throw InvalidArgumentError("dvs_sweep: no frequencies");
  }
  const double cycles =
      per_cpu.get(hwcounters::Counter::kCpuCycles);
  const double mem_stalls =
      per_cpu.get(hwcounters::Counter::kL1dStallCycles);
  // Fraction of wall time pinned to memory latency (does not scale).
  const double memory_fraction =
      cycles > 0.0 ? std::clamp(mem_stalls / cycles, 0.0, 1.0) : 0.0;
  const double f0 = model.nominal_frequency_ghz;
  const double static_watts = measured_watts * model.static_power_fraction;
  const double dynamic_watts = measured_watts - static_watts;

  std::vector<DvsOperatingPoint> out;
  out.reserve(frequencies_ghz.size());
  for (const double f : frequencies_ghz) {
    if (f <= 0.0) {
      throw InvalidArgumentError("dvs_sweep: frequencies must be positive");
    }
    DvsOperatingPoint p;
    p.frequency_ghz = f;
    p.relative_voltage =
        model.voltage_floor + (1.0 - model.voltage_floor) * (f / f0);
    p.seconds = measured_seconds *
                ((1.0 - memory_fraction) * (f0 / f) + memory_fraction);
    p.watts = static_watts + dynamic_watts * (f / f0) *
                                 p.relative_voltage * p.relative_voltage;
    p.joules = p.watts * p.seconds;
    p.energy_delay_product = p.joules * p.seconds;
    out.push_back(p);
  }
  const auto min_energy = std::min_element(
      out.begin(), out.end(),
      [](const DvsOperatingPoint& a, const DvsOperatingPoint& b) {
        return a.joules < b.joules;
      });
  min_energy->is_min_energy = true;
  const auto min_edp = std::min_element(
      out.begin(), out.end(),
      [](const DvsOperatingPoint& a, const DvsOperatingPoint& b) {
        return a.energy_delay_product < b.energy_delay_product;
      });
  min_edp->is_min_edp = true;
  return out;
}

std::size_t assert_dvs_facts(rules::RuleHarness& harness,
                             const std::vector<DvsOperatingPoint>& sweep,
                             double nominal_frequency_ghz) {
  const DvsOperatingPoint* nominal = nullptr;
  for (const auto& p : sweep) {
    if (p.frequency_ghz == nominal_frequency_ghz) nominal = &p;
  }
  if (nominal == nullptr) {
    throw InvalidArgumentError(
        "assert_dvs_facts: sweep does not contain the nominal frequency");
  }
  const rules::ProvenanceSource source(harness, "assert_dvs_facts()");
  const auto dvs = harness.schema(
      "DvsFact", {"frequencyGhz", "relativeTime", "relativeWatts",
                  "relativeJoules", "isMinEnergy", "isMinEdp"});
  std::size_t n = 0;
  for (const auto& p : sweep) {
    harness.emit(dvs)
        .num("frequencyGhz", p.frequency_ghz)
        .num("relativeTime", p.seconds / nominal->seconds)
        .num("relativeWatts", p.watts / nominal->watts)
        .num("relativeJoules", p.joules / nominal->joules)
        .flag("isMinEnergy", p.is_min_energy)
        .flag("isMinEdp", p.is_min_edp)
        .commit();
    ++n;
  }
  return n;
}

}  // namespace perfknow::power
