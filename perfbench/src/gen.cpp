#include "gen.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/rng.hpp"

namespace perfbench {

namespace {

namespace pp = perfknow::profile;

constexpr double kTotalUs = 1.0e6;        // main's mean inclusive TIME
constexpr double kPlantedShare = 0.07;    // each planted loop's share
constexpr double kImbalance = 0.7;        // planted per-thread amplitude
constexpr double kNoise = 0.03;           // ordinary per-thread noise
constexpr std::size_t kMaxDepth = 5;
constexpr int kPairs = 2;

}  // namespace

std::vector<std::string> metric_names(const Shape& shape) {
  if (!shape.counters) return {"TIME"};
  return {"TIME",
          "CPU_CYCLES",
          "BACK_END_BUBBLE_ALL",
          "L1D_STALL_CYCLES",
          "FP_STALL_CYCLES",
          "L3_MISSES",
          "REMOTE_MEMORY_ACCESSES",
          "LOCAL_MEMORY_ACCESSES"};
}

Plan make_plan(const Shape& shape, std::uint64_t seed) {
  Plan p;
  p.shape = shape;
  const std::size_t n = std::max<std::size_t>(shape.events, 1 + 2 * kPairs + 8);
  p.shape.events = n;
  perfknow::Rng rng(seed ^ 0x5eedf00dULL);

  // Callpath tree: main, then the planted loop pairs, then random nodes
  // under any earlier node that is not too deep.
  std::vector<std::size_t> depth(n, 0);
  p.names.resize(n);
  p.parent.assign(n, 0);
  p.pair.assign(n, -1);
  p.inner.assign(n, false);
  p.names[0] = "main";
  std::vector<std::size_t> open{0};
  for (int k = 0; k < kPairs; ++k) {
    const std::size_t outer = 1 + 2 * static_cast<std::size_t>(k);
    const std::size_t in = outer + 1;
    p.names[outer] = "main => solver_loop_" + std::to_string(k);
    p.names[in] = p.names[outer] + " => sweep_kernel_" + std::to_string(k);
    p.parent[outer] = 0;
    p.parent[in] = outer;
    depth[outer] = 1;
    depth[in] = 2;
    p.pair[outer] = p.pair[in] = k;
    p.inner[in] = true;
    p.planted_inner.push_back(p.names[in]);
    open.push_back(outer);
    open.push_back(in);
  }
  for (std::size_t e = 1 + 2 * kPairs; e < n; ++e) {
    const std::size_t par = open[rng.uniform_int(0, open.size() - 1)];
    p.parent[e] = par;
    depth[e] = depth[par] + 1;
    p.names[e] = p.names[par] + " => region_" + std::to_string(e);
    if (depth[e] < kMaxDepth) open.push_back(e);
  }

  // Power-law exclusive times over a random ranking of the ordinary
  // events; the planted loops take a fixed share each.
  std::vector<std::size_t> ordinary;
  for (std::size_t e = 0; e < n; ++e) {
    if (p.pair[e] < 0) ordinary.push_back(e);
  }
  for (std::size_t i = ordinary.size(); i > 1; --i) {
    std::swap(ordinary[i - 1], ordinary[rng.uniform_int(0, i - 1)]);
  }
  std::vector<double> zipf(ordinary.size());
  for (std::size_t r = 0; r < zipf.size(); ++r) {
    zipf[r] = 1.0 / std::pow(static_cast<double>(r + 1), 1.1);
  }
  const double zsum = std::accumulate(zipf.begin(), zipf.end(), 0.0);
  const double ordinary_share = 1.0 - 2.0 * kPairs * kPlantedShare;
  p.weight.assign(n, 0.0);
  double best_gap = 1.0;
  for (std::size_t r = 0; r < ordinary.size(); ++r) {
    const double share = ordinary_share * zipf[r] / zsum;
    p.weight[ordinary[r]] = kTotalUs * share;
    if (ordinary[r] != 0 && std::abs(share - 0.01) < best_gap) {
      best_gap = std::abs(share - 0.01);
      p.regression_event = ordinary[r];
    }
  }
  for (std::size_t e = 0; e < n; ++e) {
    if (p.pair[e] >= 0) p.weight[e] = kTotalUs * kPlantedShare;
  }
  for (std::size_t e = 0; e < n; ++e) {
    if (p.weight[e] > 0.05 * kTotalUs) ++p.hot_events;
  }

  // Per-thread position of each planted pair: the inner loop is slow
  // exactly where the outer loop (its barrier wait) is fast. Fixed per
  // plan, so versions differ only by noise and planted regressions.
  // Centered and scaled to a standard deviation of 0.5 per pair, so the
  // planted coefficient of variation is 0.35 at any thread count.
  const std::size_t nt = shape.threads;
  p.skew.resize(static_cast<std::size_t>(kPairs) * nt);
  for (std::size_t k = 0; k < static_cast<std::size_t>(kPairs); ++k) {
    double* s = &p.skew[k * nt];
    double mean = 0.0;
    for (std::size_t t = 0; t < nt; ++t) {
      s[t] = rng.uniform(-1.0, 1.0);
      mean += s[t] / static_cast<double>(nt);
    }
    double var = 0.0;
    for (std::size_t t = 0; t < nt; ++t) {
      s[t] -= mean;
      var += s[t] * s[t] / static_cast<double>(nt);
    }
    for (std::size_t t = 0; t < nt; ++t) {
      s[t] = var > 0.0 ? s[t] * 0.5 / std::sqrt(var) : 0.0;
    }
  }

  p.calls.resize(n);
  p.cycles_per_us.resize(n);
  p.stall_rate.resize(n);
  p.memfp_share.resize(n);
  p.l3_rate.resize(n);
  p.remote_share.resize(n);
  for (std::size_t e = 0; e < n; ++e) {
    p.calls[e] = e == 0 ? 1 : static_cast<std::uint32_t>(
                                  1 + rng.uniform_int(0, 1000 - 1));
    p.cycles_per_us[e] = rng.uniform(1350.0, 1650.0);
    p.stall_rate[e] = rng.uniform(0.05, 0.6);
    p.memfp_share[e] = rng.uniform(0.3, 1.0);
    p.l3_rate[e] = rng.uniform(1e-4, 5e-3);
    p.remote_share[e] = rng.uniform(0.05, 0.8);
  }
  return p;
}

pp::Trial build_trial(const Plan& plan, std::uint64_t noise_seed,
                      const std::string& name, double regression_scale,
                      bool reader_order) {
  const std::size_t n = plan.names.size();
  const std::size_t threads = plan.shape.threads;
  const auto metrics = metric_names(plan.shape);
  const std::size_t nm = metrics.size();

  pp::Trial trial(name);
  if (reader_order) trial.set_thread_count(threads);
  for (const auto& m : metrics) {
    trial.add_metric(m, m == "TIME" ? "usec" : "count");
  }
  std::vector<pp::EventId> ids(n);
  for (std::size_t e = 0; e < n; ++e) {
    ids[e] = trial.add_event(plan.names[e], e == 0 ? pp::kNoEvent
                                                   : ids[plan.parent[e]],
                             plan.pair[e] >= 0 ? "LOOP" : "TAU_DEFAULT");
  }
  if (!reader_order) trial.set_thread_count(threads);
  trial.set_metadata("generator", "perfbench");
  trial.set_metadata("generator.hot_events", std::to_string(plan.hot_events));

  std::vector<std::size_t> children(n, 0);
  for (std::size_t e = 1; e < n; ++e) ++children[plan.parent[e]];

  perfknow::Rng rng(noise_seed);
  const auto& skew = plan.skew;

  std::vector<double> excl(n * nm);
  std::vector<double> incl(n * nm);
  for (std::size_t t = 0; t < threads; ++t) {
    for (std::size_t e = 0; e < n; ++e) {
      double time = plan.weight[e];
      if (plan.pair[e] >= 0) {
        const double s = skew[static_cast<std::size_t>(plan.pair[e]) *
                                  threads + t];
        time *= (1.0 + (plan.inner[e] ? kImbalance : -kImbalance) * s) *
                (1.0 + 0.01 * rng.uniform(-1.0, 1.0));
      } else {
        time *= 1.0 + kNoise * rng.uniform(-1.0, 1.0);
      }
      if (e == plan.regression_event) time *= regression_scale;
      double* x = &excl[e * nm];
      x[0] = time;
      if (nm > 1) {
        const double cycles = time * plan.cycles_per_us[e];
        const double stalls = cycles * plan.stall_rate[e];
        const double l3 = cycles * plan.l3_rate[e];
        x[1] = cycles;
        x[2] = stalls;
        x[3] = stalls * plan.memfp_share[e] * 0.7;
        x[4] = stalls * plan.memfp_share[e] * 0.3;
        x[5] = l3;
        x[6] = l3 * plan.remote_share[e];
        x[7] = l3 * (1.0 - plan.remote_share[e]);
      }
    }
    incl = excl;
    for (std::size_t e = n; e-- > 1;) {
      for (std::size_t m = 0; m < nm; ++m) {
        incl[plan.parent[e] * nm + m] += incl[e * nm + m];
      }
    }
    for (std::size_t e = 0; e < n; ++e) {
      trial.set_calls(t, ids[e], plan.calls[e],
                      static_cast<double>(children[e]));
      for (std::size_t m = 0; m < nm; ++m) {
        trial.set_exclusive(t, ids[e], static_cast<pp::MetricId>(m),
                            excl[e * nm + m]);
        trial.set_inclusive(t, ids[e], static_cast<pp::MetricId>(m),
                            incl[e * nm + m]);
      }
    }
  }
  return trial;
}

std::vector<double> cell_sums(const pp::TrialView& trial) {
  std::vector<std::pair<std::string, pp::MetricId>> order;
  for (pp::MetricId m = 0; m < trial.metric_count(); ++m) {
    order.emplace_back(trial.metric(m).name, m);
  }
  std::sort(order.begin(), order.end());
  std::vector<double> sums;
  for (const auto& [name, m] : order) {
    double ex = 0.0;
    double in = 0.0;
    for (pp::EventId e = 0; e < trial.event_count(); ++e) {
      for (std::size_t t = 0; t < trial.thread_count(); ++t) {
        ex += trial.exclusive(t, e, m);
        in += trial.inclusive(t, e, m);
      }
    }
    sums.push_back(ex);
    sums.push_back(in);
  }
  return sums;
}

bool same_sums(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double scale = std::max(std::abs(a[i]), std::abs(b[i]));
    if (std::abs(a[i] - b[i]) > 1e-9 * scale) return false;
  }
  return true;
}

}  // namespace perfbench
