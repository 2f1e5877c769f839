#include "provenance/lineage.hpp"

namespace perfknow::provenance {

namespace {

// Stamp wire format: fields joined by '|' with backslash escaping
// ("op|trial|operand..."), chosen over JSON so the stamp survives the
// simplest metadata serializers unmangled.
std::string escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '\\' || c == '|') out += '\\';
    out += c;
  }
  return out;
}

std::vector<std::string> split_unescape(const std::string& s) {
  std::vector<std::string> out(1);
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '\\' && i + 1 < s.size()) {
      out.back() += s[++i];
    } else if (s[i] == '|') {
      out.emplace_back();
    } else {
      out.back() += s[i];
    }
  }
  return out;
}

}  // namespace

void stamp(profile::Trial& trial, const MetricLineage& lineage) {
  std::string value = escape(lineage.operation) + "|" + escape(lineage.trial);
  for (const auto& op : lineage.operands) {
    value += "|" + escape(op);
  }
  trial.set_metadata(kMetricKeyPrefix + lineage.metric, std::move(value));
}

std::optional<MetricLineage> lineage_of(const profile::Trial& trial,
                                        const std::string& metric) {
  const auto value = trial.metadata(kMetricKeyPrefix + metric);
  if (!value) return std::nullopt;
  auto fields = split_unescape(*value);
  if (fields.size() < 2) return std::nullopt;
  MetricLineage l;
  l.metric = metric;
  l.operation = std::move(fields[0]);
  l.trial = std::move(fields[1]);
  l.operands.assign(std::make_move_iterator(fields.begin() + 2),
                    std::make_move_iterator(fields.end()));
  return l;
}

std::vector<std::string> lineage_chain(const profile::Trial& trial,
                                       const std::string& metric) {
  std::vector<std::string> out;
  std::vector<std::string> seen;
  // Worklist resolution with a visited set: malformed stamps could name
  // themselves as operands, and chains are short in practice.
  std::vector<std::string> work{metric};
  constexpr std::size_t kMaxLines = 64;
  while (!work.empty() && out.size() < kMaxLines) {
    const std::string m = work.front();
    work.erase(work.begin());
    bool visited = false;
    for (const auto& s : seen) {
      if (s == m) {
        visited = true;
        break;
      }
    }
    if (visited) continue;
    seen.push_back(m);
    if (const auto l = lineage_of(trial, m)) {
      std::string line = "\"" + m + "\" = " + l->operation + " of [";
      for (std::size_t i = 0; i < l->operands.size(); ++i) {
        if (i > 0) line += ", ";
        line += l->operands[i];
        work.push_back(l->operands[i]);
      }
      line += "] on trial '" + l->trial + "'";
      out.push_back(std::move(line));
      continue;
    }
    const auto id = trial.find_metric(m);
    if (!id) {
      out.push_back("\"" + m + "\": not present on trial '" + trial.name() +
                    "'");
    } else if (trial.metric(*id).derived) {
      out.push_back("\"" + m + "\": derived column of trial '" +
                    trial.name() + "' (no recorded lineage)");
    } else {
      out.push_back("\"" + m + "\": raw column of trial '" + trial.name() +
                    "'");
    }
  }
  return out;
}

}  // namespace perfknow::provenance
